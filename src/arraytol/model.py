"""Problem inputs: excitation intervals, array scenarios, angular grids, config files."""

from __future__ import annotations

import json
import math
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
    is exactly 0), which the geometry's mirror needs; np.linspace is not
    antisymmetric, and differs from this grid by at most one ulp of 1.
    """
    check_integer("n_samples", n_samples, 2)
    return AngularGrid(np.arange(1 - n_samples, n_samples, 2) / (n_samples - 1))


def scenario_from_config(cfg: dict) -> ArrayScenario:
    """Build an ArrayScenario from a parsed config mapping.

    Per-element explicit endpoints (amplitude_lo/hi, phase_lo_deg/hi_deg)
    override the scenario-wide xi_percent / gamma_deg tolerances.
    """
    spacing = _require(cfg, "spacing_wavelengths", (int, float))
    raw_elements = _require(cfg, "elements", list)
    if not raw_elements:
        raise ConfigError("config field 'elements' must be a non-empty list")
    xi = cfg.get("xi_percent", 0.0)
    gamma_deg = cfg.get("gamma_deg", 0.0)
    check_number("xi_percent", xi)
    check_number("gamma_deg", gamma_deg)
    xi = xi / 100.0
    gamma = math.radians(gamma_deg)
    if not (0.0 <= xi < 1.0):
        raise ConfigError(f"config field 'xi_percent' must lie in [0, 100), got {xi * 100.0}")
    if not (0.0 <= gamma < math.pi / 2.0):
        raise ConfigError(f"config field 'gamma_deg' must lie in [0, 90), got {gamma_deg}")

    elements = []
    for n, entry in enumerate(raw_elements, start=1):
        if not isinstance(entry, dict):
            raise ConfigError(f"elements[{n}] must be a mapping")
        amp = _require(entry, "amplitude", (int, float), ctx=f"elements[{n}]")
        phase_deg = _require(entry, "phase_deg", (int, float), ctx=f"elements[{n}]")
        phase = math.radians(phase_deg)
        amp_lo, amp_hi = _endpoint_pair(
            entry, "amplitude_lo", "amplitude_hi", n,
            default=(amp * (1.0 - xi), amp * (1.0 + xi)),
        )
        ph_lo, ph_hi = _endpoint_pair(
            entry, "phase_lo_deg", "phase_hi_deg", n,
            default=None,
        )
        if ph_lo is None:
            ph_lo, ph_hi = phase - gamma, phase + gamma
        else:
            ph_lo, ph_hi = math.radians(ph_lo), math.radians(ph_hi)
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
            raise ConfigError(f"elements[{n}]: {exc}") from exc
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object at top level")
    return cfg


def _require(mapping: dict, key: str, types, ctx: str = "config"):
    if key not in mapping:
        raise ConfigError(f"{ctx} is missing required field '{key}'")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{ctx} field '{key}' has the wrong type")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{ctx} field '{key}' must be finite, got {value}")
    return value


def check_number(name: str, value) -> None:
    """Raise ConfigError unless a config value is a finite int or float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config field '{name}' must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"config field '{name}' must be finite, got {value}")


def check_integer(name: str, value, minimum: int, limit: int | None = None) -> None:
    """Raise ValidationError unless value is an int in [minimum, limit)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"'{name}' must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"'{name}' must be an integer of at least {minimum}, got {value}")
    if limit is not None and value >= limit:
        raise ValidationError(f"'{name}' must be an integer below {limit}, got {value}")


def _endpoint_pair(entry: dict, lo_key: str, hi_key: str, n: int, default):
    has_lo = lo_key in entry
    has_hi = hi_key in entry
    if has_lo != has_hi:
        raise ConfigError(
            f"elements[{n}]: '{lo_key}' and '{hi_key}' must be given together"
        )
    if not has_lo:
        return default if default is not None else (None, None)
    lo, hi = entry[lo_key], entry[hi_key]
    check_number(f"elements[{n}].{lo_key}", lo)
    check_number(f"elements[{n}].{hi_key}", hi)
    return float(lo), float(hi)
