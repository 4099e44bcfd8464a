"""Boundary-weight profiles and regularity measurement instruments.

The sharp boundary profile of positive solutions is an eigenfunction power,
with a logarithmic correction in the borderline regime.  With phi the
sup-normalized principal eigenfunction and ratio = beta/s + delta:

    ratio < 1:  phi
    ratio = 1:  phi * (ln(2/phi))^(1/(delta+1))
    ratio > 1:  phi^((2s-beta)/((delta+1) s))

This module also provides the cone norms u/phi, a log-log boundary-exponent
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
    "WeightProfile",
    "NormReport",
    "classify_regime",
    "distance_field",
    "weight_k",
    "build_weight_profile",
    "cone_norms",
    "fit_boundary_exponent",
    "holder_seminorm",
    "hs_membership_indicator",
]

CRITICAL_TOL = 1e-12


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


def distance_field(grid: Grid) -> np.ndarray:
    """d(x_i) = L - |x_i| at the interior nodes."""
    return grid.distance()


def weight_k(grid: Grid, beta: float, coeff: float, s: float) -> np.ndarray:
    """Boundary-singular weight K(x_i) = coeff * d(x_i)^(-beta), gated at beta < 2s."""
    if coeff <= 0.0:
        raise ValueError(f"coefficient must be positive, got {coeff}")
    if not (0.0 <= beta < 2.0 * s):
        raise ValueError(f"beta must lie in [0, 2s) = [0, {2.0 * s}), got {beta}")
    return coeff * distance_field(grid) ** (-beta)


@dataclass(frozen=True, eq=False)
class WeightProfile:
    regime: Regime
    values: np.ndarray


def build_weight_profile(phi1s: np.ndarray, s: float, delta: float, beta: float) -> WeightProfile:
    """Boundary profile for (s, delta, beta) built from the principal eigenfunction.

    phi1s must be strictly positive and sup-normalized to 1, so ln(2/phi1s) > 0
    everywhere and the critical-regime formula is well defined.
    """
    phi = np.asarray(phi1s, dtype=float)
    if phi.min() <= 0.0:
        raise ValueError("principal eigenfunction must be strictly positive")
    if abs(phi.max() - 1.0) > 1e-10:
        raise ValueError(f"principal eigenfunction must be sup-normalized, max is {phi.max()!r}")
    regime = classify_regime(s, delta, beta)
    if regime is Regime.SUB:
        values = phi.copy()
    elif regime is Regime.CRITICAL:
        values = phi * np.log(2.0 / phi) ** (1.0 / (delta + 1.0))
    else:
        values = phi ** ((2.0 * s - beta) / ((delta + 1.0) * s))
    return WeightProfile(regime=regime, values=values)


@dataclass(frozen=True)
class NormReport:
    """Cone norms against a weight profile plus the optional fitted boundary exponent."""

    cone_norm: float
    cone_lower: float
    fitted_exponent: float | None = None


def cone_norms(u: np.ndarray, profile: WeightProfile) -> NormReport:
    """sup |u|/phi and inf u/phi; membership in the positive cone needs both > 0."""
    u = np.asarray(u, dtype=float)
    ratios = u / profile.values
    return NormReport(cone_norm=float(np.abs(ratios).max()), cone_lower=float(ratios.min()))


def fit_boundary_exponent(u: np.ndarray, grid: Grid, window: float = 0.15) -> tuple[float, float]:
    """Boundary exponent from a weighted log-log fit near each endpoint.

    Uses nodes with d in [2h, window*L] on each side separately (the node
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
    hi = window * grid.half_width
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


def holder_seminorm(
    u: np.ndarray, grid: Grid, gamma: float, stride_cap: int = 64, include_boundary: bool = True
) -> float:
    """max |u_i - u_j| / |x_i - x_j|^gamma over node pairs within the stride cap.

    With include_boundary (the default) each near-wall node is also paired
    against the exterior zero value at its wall, so a boundary layer steeper
    than gamma is detected; fields that do not vanish toward the walls are
    then dominated by their wall pairs.  Pass include_boundary=False to probe
    only the interior difference quotient.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    u = np.asarray(u, dtype=float)
    n, h = grid.n, grid.h
    best = 0.0
    for m in range(1, min(stride_cap, n - 1) + 1):
        diff = np.abs(u[m:] - u[:-m]).max()
        best = max(best, diff / (m * h) ** gamma)
    if include_boundary:
        cap = min(stride_cap, n)
        dist = h * np.arange(1, cap + 1)
        best = max(best, float((np.abs(u[:cap]) / dist ** gamma).max()))
        best = max(best, float((np.abs(u[-cap:][::-1]) / dist ** gamma).max()))
    return best


def _trapezoid_mass(values: np.ndarray, spacing: float) -> float:
    return float(np.trapezoid(values, dx=spacing))


def hs_membership_indicator(u: np.ndarray, grid: Grid, spec: ProblemSpec) -> tuple[float, str]:
    """Trapezoid mass of K u^(1-delta) with a divergence verdict.

    The mass is recomputed on the once- and twice-coarsened grids; subsampling
    starts at index stride-1 so the nearest retained node sits at distance
    stride*h from the wall, exactly as on a grid of spacing stride*h (forward
    and backward sweeps are averaged so both boundaries are treated alike).
    A fine-to-coarsest mass ratio above 1.5 signals a boundary-divergent
    integrand, matching the algebraic threshold 2*beta + delta*(2s-1) < 1+2s
    on resolved solutions.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ValueError("field must be strictly positive at interior nodes")
    integrand = spec.k_field(grid) * u ** (1.0 - spec.delta)
    masses = [_trapezoid_mass(integrand, grid.h)]
    for stride in (2, 4):
        fwd = _trapezoid_mass(integrand[stride - 1 :: stride], stride * grid.h)
        bwd = _trapezoid_mass(integrand[::-1][stride - 1 :: stride], stride * grid.h)
        masses.append(0.5 * (fwd + bwd))
    ratio = masses[0] / masses[2]
    verdict = "diverging" if ratio > 1.5 else "finite"
    return masses[0], verdict
