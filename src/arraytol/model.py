"""Problem inputs: excitation intervals, array scenarios, angular grids, config files."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError


@dataclass(frozen=True)
class ExcitationInterval:
    """Nominal excitation of one element plus its amplitude/phase tolerance box.

    Amplitudes are unitless, phases in radians.  The phase interval must be
    narrower than pi so the swept phasor region stays within a half-plane.
    """

    nominal_amplitude: float
    nominal_phase: float
    amplitude_lo: float
    amplitude_hi: float
    phase_lo: float
    phase_hi: float

    def __post_init__(self):
        ends = (self.amplitude_lo, self.amplitude_hi, self.phase_lo, self.phase_hi)
        if not all(map(math.isfinite, ends)):
            raise ValidationError(
                f"interval endpoints must be finite, got amplitude [{ends[0]}, {ends[1]}] "
                f"and phase [{ends[2]}, {ends[3]}]"
            )
        if not (0.0 <= self.amplitude_lo <= self.nominal_amplitude <= self.amplitude_hi):
            raise ValidationError(
                "amplitude interval must satisfy 0 <= lo <= nominal <= hi, got "
                f"lo={self.amplitude_lo}, nominal={self.nominal_amplitude}, hi={self.amplitude_hi}"
            )
        if not (self.phase_lo <= self.nominal_phase <= self.phase_hi):
            raise ValidationError(
                "phase interval must bracket the nominal phase, got "
                f"lo={self.phase_lo}, nominal={self.nominal_phase}, hi={self.phase_hi}"
            )
        if self.phase_hi - self.phase_lo >= math.pi:
            raise ValidationError(
                f"phase interval width {self.phase_hi - self.phase_lo} rad must be below pi"
            )

    @property
    def nominal(self) -> complex:
        return self.nominal_amplitude * complex(
            math.cos(self.nominal_phase), math.sin(self.nominal_phase)
        )


@dataclass(frozen=True)
class ArrayScenario:
    """Uniformly spaced linear array with per-element excitation intervals."""

    elements: tuple[ExcitationInterval, ...]
    spacing: float  # element spacing in wavelengths

    def __post_init__(self):
        if len(self.elements) < 2:
            raise ValidationError(f"an array needs at least 2 elements, got {len(self.elements)}")
        if not (self.spacing > 0.0):
            raise ValidationError(f"spacing must be positive, got {self.spacing}")
        if not any(e.nominal_amplitude for e in self.elements):
            raise ValidationError("every nominal amplitude is 0: the nominal pattern is zero")
        # the largest steering phase, at u = +-1 on the last element
        if not math.isfinite(2.0 * math.pi * self.spacing * (len(self.elements) - 1)):
            raise ValidationError(
                f"spacing {self.spacing} makes the steering phase 2*pi*spacing*(N-1) overflow"
            )

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class AngularGrid:
    """Strictly increasing samples of the direction cosine u = sin(theta)."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("grid samples must be a 1-D array")
        if not np.all(np.diff(arr) > 0.0):
            raise ValidationError("grid samples must be strictly increasing")
        if not (arr[0] >= -1.0 and arr[-1] <= 1.0):
            raise ValidationError("grid samples must lie in [-1, 1]")
        object.__setattr__(self, "samples", arr)
        arr.flags.writeable = False

    def __len__(self) -> int:
        return self.samples.size


def scenario_from_tolerances(
    nominals,
    xi: float,
    gamma: float,
    spacing: float,
) -> ArrayScenario:
    """Build a scenario from (amplitude, phase) nominals and symmetric tolerances.

    xi is the relative amplitude deviation (fraction of each nominal
    amplitude), gamma the phase deviation in radians; element n gets
    [A*(1-xi), A*(1+xi)] and [B-gamma, B+gamma].
    """
    if not (0.0 <= xi < 1.0):
        raise ValidationError(f"xi must lie in [0, 1), got {xi}")
    if not (0.0 <= gamma < math.pi / 2.0):
        raise ValidationError(f"gamma must lie in [0, pi/2), got {gamma}")
    elements = []
    for n, (amp, phase) in enumerate(nominals, start=1):
        if amp < 0.0:
            raise ValidationError(f"element {n}: nominal amplitude {amp} must be non-negative")
        elements.append(
            ExcitationInterval(
                nominal_amplitude=amp,
                nominal_phase=phase,
                amplitude_lo=amp * (1.0 - xi),
                amplitude_hi=amp * (1.0 + xi),
                phase_lo=phase - gamma,
                phase_hi=phase + gamma,
            )
        )
    return ArrayScenario(elements=tuple(elements), spacing=spacing)


def uniform_grid(n_samples: int) -> AngularGrid:
    """Equally spaced grid spanning [-1, 1] inclusive, bitwise antisymmetric.

    Sample k is j / (n_samples - 1) for the integer j = 2k - (n_samples - 1):
    the double nearest to -1 + 2k / (n_samples - 1).  Division rounds -j to
    exactly minus the rounding of j, so the negative half is the negated
    non-negative half (u[::-1] == -u, and the middle sample of an odd grid
    is exactly 0), which iams.mirrored_rows needs; np.linspace is not
    antisymmetric, and differs from this grid by at most one ulp of 1.
    """
    check_integer("n_samples", n_samples, 2)
    return AngularGrid(np.arange(1 - n_samples, n_samples, 2) / (n_samples - 1))


def scenario_from_config(cfg: dict) -> ArrayScenario:
    """Build an ArrayScenario from a parsed config mapping.

    Per-element explicit endpoints (amplitude_lo/hi, phase_lo_deg/hi_deg)
    override the scenario-wide xi_percent / gamma_deg tolerances.
    """
    spacing = config_number(cfg, "spacing_wavelengths")
    raw_elements = cfg.get("elements")
    if not (isinstance(raw_elements, list) and raw_elements):
        raise ConfigError("config field 'elements' must be a non-empty list")
    xi = config_number(cfg, "xi_percent", default=0.0) / 100.0
    gamma_deg = config_number(cfg, "gamma_deg", default=0.0)
    gamma = math.radians(gamma_deg)
    if not (0.0 <= xi < 1.0):
        raise ConfigError(f"config field 'xi_percent' must lie in [0, 100), got {xi * 100.0}")
    if not (0.0 <= gamma < math.pi / 2.0):
        raise ConfigError(f"config field 'gamma_deg' must lie in [0, 90), got {gamma_deg}")

    elements = []
    for n, entry in enumerate(raw_elements, start=1):
        ctx = f"elements[{n}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx} must be a mapping")
        for lo_key, hi_key in (("amplitude_lo", "amplitude_hi"), ("phase_lo_deg", "phase_hi_deg")):
            if (lo_key in entry) != (hi_key in entry):
                raise ConfigError(f"{ctx}: '{lo_key}' and '{hi_key}' must be given together")
        amp = config_number(entry, "amplitude", ctx)
        phase = math.radians(config_number(entry, "phase_deg", ctx))
        amp_lo = float(config_number(entry, "amplitude_lo", ctx, amp * (1.0 - xi)))
        amp_hi = float(config_number(entry, "amplitude_hi", ctx, amp * (1.0 + xi)))
        ph_lo, ph_hi = phase - gamma, phase + gamma
        if "phase_lo_deg" in entry:
            ph_lo = math.radians(config_number(entry, "phase_lo_deg", ctx))
            ph_hi = math.radians(config_number(entry, "phase_hi_deg", ctx))
        try:
            elements.append(
                ExcitationInterval(
                    nominal_amplitude=amp,
                    nominal_phase=phase,
                    amplitude_lo=amp_lo,
                    amplitude_hi=amp_hi,
                    phase_lo=ph_lo,
                    phase_hi=ph_hi,
                )
            )
        except ValidationError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    try:
        return ArrayScenario(elements=tuple(elements), spacing=float(spacing))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    """Read a JSON config file, raising ConfigError on parse failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer of too many digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object at top level")
    return cfg


def config_number(mapping: dict, key: str, ctx: str = "config", default=None):
    """mapping[key], which must be an int or float that a finite double holds, and not a bool.

    An absent key gives default, or a ConfigError when default is None.
    Every error names ctx and key.
    """
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{ctx} is missing required field '{key}'")
        return default
    value = mapping[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{ctx} field '{key}' must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or a JSON integer too large
        raise ConfigError(f"{ctx} field '{key}' must be finite, got {value}")
    return value


def check_integer(name: str, value, minimum: int, limit: int | None = None) -> None:
    """Raise ValidationError unless value is an int in [minimum, limit)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"'{name}' must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"'{name}' must be an integer of at least {minimum}, got {value}")
    if limit is not None and value >= limit:
        raise ValidationError(f"'{name}' must be an integer below {limit}, got {value}")
