"""Workload definitions: seeded config generators and the CLI commands each workload runs.

Every config is generated here from the benchmark seed; the program only
ever sees the resulting JSON file.  See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PROBES = ("--probe", "-0.336", "--probe", "0.0")


def taylor_taper(n_elements: int, sll_db: float = 25.0, nbar: int = 3) -> list[float]:
    """Taylor line-source taper (one parameter nbar) at the element positions, max 1."""
    big_a = math.acosh(10.0 ** (sll_db / 20.0)) / math.pi
    sigma2 = nbar**2 / (big_a**2 + (nbar - 0.5) ** 2)

    def coeff(m: int) -> float:
        num = 1.0
        den = 1.0
        for n in range(1, nbar):
            num *= 1.0 - m**2 / (sigma2 * (big_a**2 + (n - 0.5) ** 2))
            if n != m:
                den *= 1.0 - (m / n) ** 2
        return ((-1) ** (m + 1) / 2.0) * num / den

    coeffs = [coeff(m) for m in range(1, nbar)]
    gains = []
    for n in range(1, n_elements + 1):
        pos = (n - (n_elements + 1) / 2.0) / (n_elements / 2.0)
        gains.append(
            1.0 + 2.0 * sum(c * math.cos(math.pi * m * pos) for m, c in enumerate(coeffs, 1))
        )
    peak = max(gains)
    return [g / peak for g in gains]


def _taylor16(seed: int, n_u: int, mc_samples: int) -> dict:
    """The paper's reference case: Taylor-16, 0.5 wavelength spacing, 1 % / 3 deg."""
    return {
        "spacing_wavelengths": 0.5,
        "elements": [{"amplitude": a, "phase_deg": 0.0} for a in taylor_taper(16)],
        "xi_percent": 1.0,
        "gamma_deg": 3.0,
        "k_regions": 5,
        "n_u": n_u,
        "arc_points": 8,
        "mc_samples": mc_samples,
        "seed": seed,
    }


def taylor16_config(seed: int) -> dict:
    return _taylor16(seed, n_u=501, mc_samples=20_000)


def mc_coarse16_config(seed: int) -> dict:
    return _taylor16(seed, n_u=101, mc_samples=100_000)


def steered64_config(seed: int) -> dict:
    """Taylor-64 steered by a 30 deg/element progression, seeded asymmetric intervals."""
    rng = random.Random(seed)
    elements = []
    for n, amp in enumerate(taylor_taper(64)):
        phase = float((30 * n) % 360)
        elements.append(
            {
                "amplitude": amp,
                "phase_deg": phase,
                "amplitude_lo": amp * (1.0 - rng.uniform(0.005, 0.02)),
                "amplitude_hi": amp * (1.0 + rng.uniform(0.005, 0.02)),
                "phase_lo_deg": phase - rng.uniform(1.0, 4.0),
                "phase_hi_deg": phase + rng.uniform(1.0, 4.0),
            }
        )
    return {
        "spacing_wavelengths": 0.5,
        "elements": elements,
        "k_regions": 5,
        "n_u": 501,
        "arc_points": 8,
        "mc_samples": 1,
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    config: object  # seed -> config mapping
    commands: tuple[tuple[str, ...], ...]  # CLI argument lists, without --config/--out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "taylor16",
            taylor16_config,
            (
                ("bounds", "--threads", "1"),
                ("pia", "--threads", "1"),
                ("features", "--threads", "1"),
                ("mc", "--threads", "1", *PROBES),
                ("validate", "--threads", "1"),
            ),
        ),
        Workload(
            "steered64",
            steered64_config,
            (
                ("bounds", "--threads", "1", "--dump-polygons"),
                ("pia", "--threads", "1"),
            ),
        ),
        Workload(
            "mc-coarse16",
            mc_coarse16_config,
            (("mc", "--threads", "2", *PROBES),),
        ),
    )
}
