"""Problem data: parameters and nonlinearity descriptors.

The continuous problem on (-L, L) is

    A u = lam * (K(x) u^(-delta) + f(u)),   u > 0 inside, u = 0 outside,

with A the fractional Laplacian of order s, K(x) = coeff * d(x)^(-beta) for the
boundary distance d, delta >= 0 the singular exponent, and f a superlinear
perturbation.  In one dimension the superlinear theory requires s < 1/2 with
subcritical power p < (1+2s)/(1-2s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operator import Grid

__all__ = ["Nonlinearity", "ProblemSpec", "power_nonlinearity", "no_nonlinearity"]


@dataclass(frozen=True)
class Nonlinearity:
    """Descriptor for the superlinear term f.

    kind is one of "none", "power" (f(t) = c t^p), or "custom" with callables
    for f, f' and f''.
    """

    kind: str = "none"
    p: float | None = None
    c: float | None = None
    f_fn: Callable | None = None
    fp_fn: Callable | None = None
    fpp_fn: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("none", "power", "custom"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "power":
            if self.p is None or self.p <= 1.0:
                raise ValueError("power nonlinearity requires p > 1")
            if self.c is None or self.c <= 0.0:
                raise ValueError("power nonlinearity requires c > 0")
        if self.kind == "custom" and not (self.f_fn and self.fp_fn and self.fpp_fn):
            raise ValueError("custom nonlinearity requires f, f', and f'' callables")

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    def f(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.zeros_like(t)
        if self.kind == "power":
            return self.c * t ** self.p
        return np.asarray(self.f_fn(t), dtype=float)

    def fprime(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.zeros_like(t)
        if self.kind == "power":
            return self.c * self.p * t ** (self.p - 1.0)
        return np.asarray(self.fp_fn(t), dtype=float)

    def fsecond(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.zeros_like(t)
        if self.kind == "power":
            return self.c * self.p * (self.p - 1.0) * t ** (self.p - 2.0)
        return np.asarray(self.fpp_fn(t), dtype=float)


def power_nonlinearity(p: float, c: float = 1.0) -> Nonlinearity:
    return Nonlinearity(kind="power", p=p, c=c)


def no_nonlinearity() -> Nonlinearity:
    return Nonlinearity(kind="none")


@dataclass(frozen=True)
class ProblemSpec:
    """All continuous parameters of one problem instance."""

    s: float
    delta: float
    beta: float = 0.0
    coeff: float = 1.0
    nonlinearity: Nonlinearity = field(default_factory=no_nonlinearity)
    lam: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not (0.0 <= self.beta < 2.0 * self.s):
            raise ValueError(
                f"beta must lie in [0, 2s) = [0, {2.0 * self.s}); "
                f"got {self.beta} (no positive solution exists for beta >= 2s)"
            )
        if self.coeff <= 0.0:
            raise ValueError(f"weight coefficient must be positive, got {self.coeff}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")

    @property
    def hs_flag(self) -> bool:
        """True iff 2*beta + delta*(2s - 1) < 1 + 2s (energy-class membership)."""
        return 2.0 * self.beta + self.delta * (2.0 * self.s - 1.0) < 1.0 + 2.0 * self.s

    @property
    def subcritical_limit(self) -> float:
        """Largest admissible power exponent, (1+2s)/(1-2s) for s < 1/2."""
        if self.s >= 0.5:
            return np.inf
        return (1.0 + 2.0 * self.s) / (1.0 - 2.0 * self.s)

    def require_subcritical(self) -> None:
        nl = self.nonlinearity
        if nl.kind == "power" and nl.p >= self.subcritical_limit:
            raise ValueError(
                f"p = {nl.p} is not subcritical for s = {self.s}: need p < {self.subcritical_limit}"
            )

    def k_field(self, grid: Grid) -> np.ndarray:
        """K at the nodes: coeff * d(x)^(-beta)."""
        if self.beta == 0.0:
            return np.full(grid.n, self.coeff)
        return self.coeff * grid.distance() ** (-self.beta)
