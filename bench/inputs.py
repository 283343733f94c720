"""Seeded input generators for the three workloads.

Every workload runs in rounds. A round has a fixed composition (the same
kinds of items in the same numbers) and draws its numbers from
``default_rng([seed, round])``, so the seed changes values but never the mix,
and whole rounds keep the mix of every run the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (lambda, alpha1, alpha2) of the three presets
REGIMES = {
    "mg-slow": (0.1, 0.1, 1.3),
    "mg-medium": (5.0, 0.1, 30.0),
    "mg-fast": (10.0, 0.1, 100.0),
}
ROLES = ("controller", "observer")


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """k draws, one from each of k equal slices of [lo, hi], in random order."""
    u = (rng.permutation(k) + rng.uniform(size=k)) / k
    return lo + (hi - lo) * u


# -- synth-sweep ------------------------------------------------------------------


@dataclass(frozen=True)
class SynthItem:
    key: str  # stable within a round, e.g. "preset/mg-slow/controller/2"
    family: str  # "mg" | "lag"
    coeffs: tuple  # mg: (a, b, c); lag: (a, b, c, k)
    role: str
    regime: str
    rho_degree: int


MG_NOMINAL = (1.5, 0.5, 1.0)
LAG_NOMINAL = (1.5, 0.5, 1.0, 2.0)


def synth_round(seed: int, r: int) -> list[SynthItem]:
    """33 synthesize calls: 12 presets (rho_degree 2 and 4), mg-slow at
    rho_degree 6 (both roles), 12 Moore-Greitzer models with coefficients
    scaled by stratified factors in [0.5, 1.5], 6 actuator-lag models at
    rho_degree 2 and one at rho_degree 4."""
    rng = round_rng(seed, r)
    items = []
    for regime in REGIMES:
        for role in ROLES:
            for deg in (2, 4):
                items.append(SynthItem(f"preset/{regime}/{role}/{deg}", "mg",
                                       MG_NOMINAL, role, regime, deg))
    for role in ROLES:
        items.append(SynthItem(f"preset/mg-slow/{role}/6", "mg", MG_NOMINAL,
                               role, "mg-slow", 6))
    scale = np.stack([_strata(rng, 12, 0.5, 1.5) for _ in MG_NOMINAL], axis=1)
    k = 0
    for regime in REGIMES:
        for role in ROLES:
            for deg in (2, 4):
                coeffs = tuple(float(v) for v in np.array(MG_NOMINAL) * scale[k])
                items.append(SynthItem(f"mg/{k}", "mg", coeffs, role, regime, deg))
                k += 1
    scale = np.stack([_strata(rng, 7, 0.5, 1.5) for _ in LAG_NOMINAL], axis=1)
    k = 0
    for regime in REGIMES:
        for role in ROLES:
            coeffs = tuple(float(v) for v in np.array(LAG_NOMINAL) * scale[k])
            items.append(SynthItem(f"lag/{k}", "lag", coeffs, role, regime, 2))
            k += 1
    # one large program per round: the controller role of the lag model at
    # rho_degree 4 (257 equalities), regime cycling with the round
    regime = list(REGIMES)[r % 3]
    coeffs = tuple(float(v) for v in np.array(LAG_NOMINAL) * scale[k])
    items.append(SynthItem(f"lag/{k}", "lag", coeffs, "controller", regime, 4))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def build_model(family: str, coeffs):
    from ccm.poly import PolyMatrix, poly_from_text
    from ccm.synth import SystemModel

    if family == "mg":
        a, b, c = coeffs
        f = [f"-x2 - {a!r}*x1^2 - {b!r}*x1^3", f"{c!r}*x1"]
        B, C = [[0.0], [1.0]], [[0.0, 1.0]]
    else:
        a, b, c, k = coeffs
        f = [f"-x2 - {a!r}*x1^2 - {b!r}*x1^3", f"{c!r}*x1 + x3", f"-{k!r}*x3"]
        B, C = [[0.0], [0.0], [1.0]], [[0.0, 1.0, 0.0]]
    n = len(f)
    return SystemModel(PolyMatrix.column([poly_from_text(t, n) for t in f]),
                       np.array(B), np.array(C))


# -- closed-loop ------------------------------------------------------------------


@dataclass(frozen=True)
class TrajItem:
    key: str
    mode: str  # "output_fb" | "state_fb"
    regime: str
    noise_std: float
    x0: tuple
    noise_seed: int


TRAJ_T = 1.0
TRAJ_DT = 1e-3
NOISE_STD = 0.3
# initial states are uniform in a disk of this radius around the limit-cycle
# point; the noise-free mg-fast loop diverges from some starts at radius 0.2
# and from none on circles of radius 0.1 and 0.15
X0_RADIUS = 0.1


def disk_offset(rng) -> np.ndarray:
    r = X0_RADIUS * np.sqrt(rng.uniform())
    a = 2.0 * np.pi * rng.uniform()
    return np.array([r * np.cos(a), r * np.sin(a)])


# mg-fast diverges under sigma = 0.3 noise at dt = 1e-3 (its observer gain is
# too high for the step), so noisy runs use the slow and medium metrics only
TRAJ_MIX = (
    [("output_fb", reg, 0.0) for reg in ("mg-slow", "mg-medium", "mg-fast",
                                         "mg-medium", "mg-fast")]
    + [("output_fb", reg, NOISE_STD) for reg in ("mg-slow", "mg-medium", "mg-slow",
                                                 "mg-medium", "mg-slow")]
    + [("state_fb", reg, 0.0) for reg in ("mg-slow", "mg-fast")]
)


def traj_round(seed: int, r: int, center: np.ndarray) -> list[TrajItem]:
    """12 trajectories of T = 1 s: 5 noise-free and 5 noisy output-feedback
    runs and 2 state-feedback runs, started in a disk around ``center`` with
    xhat0 = 0."""
    rng = round_rng(seed, r)
    items = []
    for k, (mode, regime, sigma) in enumerate(TRAJ_MIX):
        x0 = center + disk_offset(rng)
        items.append(TrajItem(f"traj/{k}", mode, regime, sigma,
                              tuple(float(v) for v in x0), int(rng.integers(2**31))))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# -- verify-export ----------------------------------------------------------------


@dataclass(frozen=True)
class VerifyItem:
    key: str
    metric: str  # "<regime>/<role>"
    grid: int
    half_width: float


@dataclass(frozen=True)
class ExportItem:
    key: str


VERIFY_GRIDS = (401, 501, 601, 701, 801, 1001)
EXPORTS_PER_ROUND = 10
TRACE_T = 6.0


def verify_export_round(seed: int, r: int):
    """Six verify_pointwise calls (one per preset metric, grids 401^2 to
    1001^2 in seeded order, box half-width in [3, 5]) and ten CSV round trips
    of the setup trace, interleaved."""
    rng = round_rng(seed, r)
    metrics = [f"{reg}/{role}" for reg in REGIMES for role in ROLES]
    grids = rng.permutation(VERIFY_GRIDS)
    widths = _strata(rng, len(metrics), 3.0, 5.0)
    verify = [VerifyItem(f"verify/{k}", m, int(grids[k]), float(widths[k]))
              for k, m in enumerate(metrics)]
    export = [ExportItem(f"export/{k}") for k in range(EXPORTS_PER_ROUND)]
    items = verify + export
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def trace_spec(seed: int):
    """Initial state offset and noise seed of the setup trace."""
    rng = np.random.default_rng([seed, 1 << 20])
    return disk_offset(rng), int(rng.integers(2**31))
