"""Boundary-weight profiles and regularity measurement instruments.

Positive solutions vanish at the wall like d^gamma, gamma = min(s,
(2s-beta)/(1+delta)) (`boundary_exponent`), with a logarithmic correction on
the critical line beta/s + delta = 1.  The profile of that rate is the
boundary profile b = (L^2 - x^2)^gamma (`boundary_profile`); sup-normalized,
and times (ln(2/b))^(1/(delta+1)) on the critical line, it is the weight
of the cone norm (`build_weight_profile`).

This module also provides the cone norm sup |u|/b, a log-log boundary-exponent
fit, a grid Hoelder-seminorm estimate, and the integrability indicator for
the energy-class threshold 2*beta + delta*(2s-1) < 1 + 2s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .operator import Grid
from .problem import ProblemSpec

__all__ = [
    "Regime",
    "NormReport",
    "classify_regime",
    "boundary_exponent",
    "boundary_profile",
    "distance_field",
    "weight_k",
    "build_weight_profile",
    "cone_norms",
    "fit_boundary_exponent",
    "holder_seminorm",
    "hs_membership_indicator",
]

CRITICAL_TOL = 1e-12
# fit_boundary_exponent fits nodes with d <= FIT_WINDOW * L on each side
FIT_WINDOW = 0.15
# holder_seminorm pairs nodes at most HOLDER_STRIDE_CAP spacings apart
HOLDER_STRIDE_CAP = 64


class Regime(enum.Enum):
    SUB = "sub"
    CRITICAL = "critical"
    SUPER = "super"


def classify_regime(s: float, delta: float, beta: float) -> Regime:
    """Regime of (s, delta, beta) from the sign of beta/s + delta - 1."""
    indicator = beta / s + delta - 1.0
    if abs(indicator) <= CRITICAL_TOL:
        return Regime.CRITICAL
    return Regime.SUB if indicator < 0.0 else Regime.SUPER


def boundary_exponent(s: float, delta: float, beta: float) -> float:
    """gamma = min(s, (2s-beta)/(1+delta)), the power of d at which solutions vanish at the wall.

    It is s below and at the critical ratio beta/s + delta = 1, where the two
    terms agree, and (2s-beta)/(1+delta) above it.
    """
    return min(s, (2.0 * s - beta) / (1.0 + delta))


def boundary_profile(grid: Grid, gamma: float) -> np.ndarray:
    """b = (L^2 - x^2)^gamma at the interior nodes, the rate d^gamma at both walls.

    b is even bit for bit: (L - x)(L + x) is one product of the same two
    factors at x and -x.
    """
    x, half_width = grid.nodes, grid.half_width
    return ((half_width - x) * (half_width + x)) ** gamma


def distance_field(grid: Grid) -> np.ndarray:
    """d(x_i) = L - |x_i| at the interior nodes."""
    return grid.distance()


def weight_k(grid: Grid, beta: float, coeff: float, s: float) -> np.ndarray:
    """Boundary-singular weight K(x_i) = coeff * d(x_i)^(-beta), gated at beta < 2s: `ProblemSpec.k_field`."""
    return ProblemSpec(s=s, delta=0.0, beta=beta, coeff=coeff).k_field(grid)


def build_weight_profile(grid: Grid, s: float, delta: float, beta: float) -> np.ndarray:
    """The cone norm's weight for (s, delta, beta): b = boundary_profile / L^(2 gamma), log-corrected on the critical line.

    b is (1 - x^2/L^2)^gamma, so 0 < b <= 1 with b = 1 only at x = 0; on the
    critical line it is multiplied by (ln(2/b))^(1/(delta+1)), which keeps
    it in (0, 1] since t (ln(2/t))^p <= 1 for t in (0, 1], p in (0, 1].
    """
    gamma = boundary_exponent(s, delta, beta)
    b = boundary_profile(grid, gamma) / (grid.half_width * grid.half_width) ** gamma
    if classify_regime(s, delta, beta) is Regime.CRITICAL:
        b = b * np.log(2.0 / b) ** (1.0 / (delta + 1.0))
    return b


@dataclass(frozen=True)
class NormReport:
    """The cone norm against a weight profile plus the optional fitted boundary exponent."""

    cone_norm: float
    fitted_exponent: float | None = None


def cone_norms(u: np.ndarray, profile: np.ndarray) -> NormReport:
    """sup |u|/b over the weight profile b (`build_weight_profile`)."""
    return NormReport(cone_norm=float(np.abs(np.asarray(u, dtype=float) / profile).max()))


def fit_boundary_exponent(u: np.ndarray, grid: Grid) -> tuple[float, float]:
    """Boundary exponent from a weighted log-log fit near each endpoint.

    Uses nodes with d in [2h, FIT_WINDOW*L] on each side separately (the node
    nearest each endpoint is excluded as discretization-polluted) and averages
    the two sides.  The model is ln u = alpha ln d + c + b d, i.e. a power law
    times an analytic correction, which is the structure positive solutions
    have near the wall; fitting the correction coefficient b keeps the outer
    end of the window from biasing alpha low, and on a pure power law the fit
    is exact (b = 0).  Samples are weighted by 1/d so the regression is
    uniform over ln d rather than over the uniform-in-x nodes.  Returns
    (alpha, r^2) with r^2 from the weighted fit.
    """
    u = np.asarray(u, dtype=float)
    d = distance_field(grid)
    lo = 2.0 * grid.h * (1.0 - 1e-12)
    hi = FIT_WINDOW * grid.half_width
    slopes, rsqs = [], []
    for side in (grid.nodes < 0.0, grid.nodes > 0.0):
        mask = side & (d >= lo) & (d <= hi)
        if mask.sum() < 6:
            raise ValueError("fewer than 6 nodes in the fit window: refine grid")
        uw = u[mask]
        if uw.min() <= 0.0:
            raise ValueError("field must be positive near the boundary for a log-log fit")
        t = np.log(d[mask])
        y = np.log(uw)
        dd = d[mask]
        w = 1.0 / dd
        sw = np.sqrt(w)
        design = np.column_stack([t, np.ones_like(t), dd])
        coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        slopes.append(coef[0])
        fit = design @ coef
        wn = w / w.sum()
        ybar = wn @ y
        rsqs.append(1.0 - (wn * (y - fit)) @ (y - fit) / ((wn * (y - ybar)) @ (y - ybar)))
    return float(np.mean(slopes)), float(np.mean(rsqs))


def holder_seminorm(u: np.ndarray, grid: Grid, gamma: float) -> float:
    """max |u_i - u_j| / |x_i - x_j|^gamma over node pairs at most HOLDER_STRIDE_CAP spacings apart.

    Each near-wall node is also paired against the exterior zero value at its
    wall, so a boundary layer steeper than gamma is detected; fields that do
    not vanish toward the walls are then dominated by their wall pairs.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    u = np.asarray(u, dtype=float)
    n, h = grid.n, grid.h
    best = 0.0
    for m in range(1, min(HOLDER_STRIDE_CAP, n - 1) + 1):
        diff = np.abs(u[m:] - u[:-m]).max()
        best = max(best, diff / (m * h) ** gamma)
    cap = min(HOLDER_STRIDE_CAP, n)
    dist = h * np.arange(1, cap + 1)
    best = max(best, float((np.abs(u[:cap]) / dist ** gamma).max()))
    best = max(best, float((np.abs(u[-cap:][::-1]) / dist ** gamma).max()))
    return best


def _trapezoid_mass(values: np.ndarray, spacing: float) -> float:
    return float(np.trapezoid(values, dx=spacing))


def hs_membership_indicator(u: np.ndarray, grid: Grid, spec: ProblemSpec) -> tuple[float, str]:
    """Trapezoid mass of K u^(1-delta) with a divergence verdict.

    The mass is recomputed on the grid coarsened by a stride of 4;
    subsampling starts at index 3 so the nearest retained node sits at
    distance 4h from the wall, exactly as on a grid of spacing 4h (forward
    and backward sweeps are averaged so both boundaries are treated alike).
    A fine-to-coarse mass ratio above 1.5 signals a boundary-divergent
    integrand, matching the algebraic threshold 2*beta + delta*(2s-1) < 1+2s
    on resolved solutions.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ValueError("field must be strictly positive at interior nodes")
    integrand = spec.k_field(grid) * u ** (1.0 - spec.delta)
    mass = _trapezoid_mass(integrand, grid.h)
    fwd = _trapezoid_mass(integrand[3::4], 4 * grid.h)
    bwd = _trapezoid_mass(integrand[::-1][3::4], 4 * grid.h)
    verdict = "diverging" if mass / (0.5 * (fwd + bwd)) > 1.5 else "finite"
    return mass, verdict
