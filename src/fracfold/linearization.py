"""Linearized spectral analysis and derivative solves of the solution operator.

Around a positive solution u of A u = lam (K u^-delta + f(u)) the linearized
operator is J = A + diag(lam delta K u^(-delta-1) - lam f'(u)); its smallest
eigenvalue tracks stability of the minimal branch and vanishes at the fold.

With P = A + diag(lam delta K u^(-delta-1)) and F = diag(lam f'(u)), J = P - F
and the Fredholm monitor obeys I - P^(-1) F = P^(-1) J, so

    sigma_min(I - P^(-1) F) = 1 / sigma_max(J^(-1) P) = 1 / sigma_max(I + J^(-1) F).

Both numbers come from one LinearizedOperator, which factors J once and
shares the factor: lambda1 runs shift-invert Lanczos on the Cholesky factor
of J (of J - mu*I with the Gershgorin shift mu when J is indefinite), and the
monitor runs Lanczos on (I + F J^-1)(I + J^-1 F), two solves with J's factor
(Cholesky, or LU when J is indefinite) per step.

The solution operator T(lam, h) of A u - lam K u^(-delta) = h is twice
differentiable; its derivative fields solve

    P v    = phi                                     (direction phi in h)
    P w1   = K u^-delta                              (d/dlam)
    P w11  = lam d(d+1) K u^(-d-2) w1^2 - 2 d K u^(-d-1) w1
    P w12  = lam d(d+1) K u^(-d-2) w1 v  -   d K u^(-d-1) v
    P w22  = lam d(d+1) K u^(-d-2) v_phi v_psi

(obtained by implicit differentiation; all right-hand sides are checked
against finite differences of the solve itself in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .blas import single_pool
from .errors import ConvergenceError
from .operator import (
    EigenPair,
    NonlocalOperator,
    _gershgorin_cholesky,
    _lanczos_largest,
    _shift_invert_pairs,
    _try_cholesky,
)
from .problem import ProblemSpec
from .singular import DEFAULT_TOL, SolutionField, solve_A

__all__ = [
    "LinearizedOperator",
    "SensitivityBundle",
    "linearized_operator",
    "lambda1",
    "lambda1_pairs",
    "d2A_directional",
    "sensitivity_bundle",
    "fredholm_monitor",
]

# Relative residual |B x - theta x| / theta accepted for the monitor's Ritz pair;
# the Ritz value is then within that of an eigenvalue, so sigma_min is good to 5e-9.
MONITOR_RTOL = 1e-8


@dataclass(eq=False)
class LinearizedOperator:
    """J = base + diag(potential) = P - diag(fprime); each factor is computed once, on first use."""

    base: NonlocalOperator
    potential: np.ndarray
    matrix: np.ndarray
    fprime: np.ndarray

    @cached_property
    def cholesky(self):
        """Cholesky factor of J, or None when J is not positive definite."""
        return _try_cholesky(self.matrix)

    @cached_property
    def spectral_factor(self):
        """Cholesky factor of J - mu I: mu = 0 when J is positive definite, else the Gershgorin shift."""
        return self.cholesky or _gershgorin_cholesky(self.matrix)

    @cached_property
    def solve(self):
        """x -> J^-1 x by J's Cholesky or LU factor, or None when J is exactly singular."""
        cho = self.cholesky
        if cho is not None:
            return lambda x: cho_solve(cho, x, check_finite=False)
        lu = lu_factor(self.matrix)
        if not np.all(np.diag(lu[0])):
            return None
        return lambda x: lu_solve(lu, x, check_finite=False)


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, SolutionField) else np.asarray(u, dtype=float)


def linearized_operator(lam: float, u, op: NonlocalOperator, spec: ProblemSpec) -> LinearizedOperator:
    """A + diag(lam delta K u^(-delta-1) - lam f'(u)) around a positive field."""
    uv = _values(u)
    if uv.min() <= 0.0:
        raise ValueError("linearization requires a strictly positive field")
    k = spec.k_field(op.grid)
    fprime = lam * spec.nonlinearity.fprime(uv)
    potential = lam * spec.delta * k * uv ** (-spec.delta - 1.0) - fprime
    if not np.all(np.isfinite(potential)):
        raise ValueError("linearized potential is not finite")
    return LinearizedOperator(base=op, potential=potential, matrix=op.matrix + np.diag(potential), fprime=fprime)


@single_pool
def lambda1_pairs(
    lam: float, u, op: NonlocalOperator, spec: ProblemSpec, k: int = 2, tol: float = DEFAULT_TOL, lin=None
) -> list[EigenPair]:
    """k smallest eigenpairs of the linearization (first one is principal).

    Pass `lin` to reuse a linearization, and its factors, built at (lam, u).
    """
    lin = lin if lin is not None else linearized_operator(lam, u, op, spec)
    return _shift_invert_pairs(lin.matrix, k, lin.spectral_factor, tol)


def lambda1(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, tol: float = DEFAULT_TOL, lin=None) -> EigenPair:
    """Principal eigenpair of the linearization around u (`lin` as in lambda1_pairs)."""
    return lambda1_pairs(lam, u, op, spec, k=1, tol=tol, lin=lin)[0]


def _p_factor(lam: float, uv: np.ndarray, op: NonlocalOperator, spec: ProblemSpec):
    k = spec.k_field(op.grid)
    pot = lam * spec.delta * k * uv ** (-spec.delta - 1.0)
    mat = op.matrix + np.diag(pot)
    return mat, cho_factor(mat, lower=True)


@single_pool
def d2A_directional(
    lam: float,
    h: np.ndarray,
    phi: np.ndarray,
    op: NonlocalOperator,
    spec: ProblemSpec,
    tol: float = DEFAULT_TOL,
    u: SolutionField | None = None,
) -> np.ndarray:
    """Directional derivative v of the solution operator in its forcing slot.

    v solves (A + lam delta K u^(-delta-1)) v = phi at u = T(lam, h); the
    potential is nonnegative, so the system is always solvable.
    """
    phi = np.asarray(phi, dtype=float)
    if u is None:
        u = solve_A(lam, h, op, spec, tol=tol)
    mat, factor = _p_factor(lam, _values(u), op, spec)
    v = cho_solve(factor, phi, check_finite=False)
    res = np.abs(mat @ v - phi).max()
    if not res <= tol * (1.0 + np.abs(phi).max()):  # also rejects a NaN residual
        raise RuntimeError(f"directional solve residual {res:.3e} exceeds tolerance")
    return v


@dataclass(eq=False)
class SensitivityBundle:
    """First and second derivative fields of the solution operator at (lam, h)."""

    w1: np.ndarray
    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray
    v: np.ndarray
    residuals: dict


@single_pool
def sensitivity_bundle(
    lam: float,
    h: np.ndarray,
    op: NonlocalOperator,
    spec: ProblemSpec,
    directions: tuple[np.ndarray, np.ndarray] | None = None,
    tol: float = DEFAULT_TOL,
    u: SolutionField | None = None,
) -> SensitivityBundle:
    """Solve the four derivative systems of the solution operator at (lam, h).

    directions = (phi, psi) are the forcing-slot directions; psi defaults to
    phi.  Every field's residual is recorded and checked against tol.
    """
    h = np.asarray(h, dtype=float)
    if u is None:
        u = solve_A(lam, h, op, spec, tol=tol)
    uv = _values(u)
    n = op.n
    if directions is None:
        phi = np.ones(n)
        psi = phi
    else:
        phi = np.asarray(directions[0], dtype=float)
        psi = np.asarray(directions[1], dtype=float) if directions[1] is not None else phi
    k = spec.k_field(op.grid)
    d = spec.delta
    mat, factor = _p_factor(lam, uv, op, spec)

    rhs = {}
    rhs["w1"] = k * uv ** -d
    w1 = cho_solve(factor, rhs["w1"], check_finite=False)
    rhs["v"] = phi
    v = cho_solve(factor, phi, check_finite=False)
    v_psi = v if psi is phi else cho_solve(factor, psi, check_finite=False)
    rhs["w11"] = lam * d * (d + 1.0) * k * uv ** (-d - 2.0) * w1 ** 2 - 2.0 * d * k * uv ** (-d - 1.0) * w1
    w11 = cho_solve(factor, rhs["w11"], check_finite=False)
    rhs["w12"] = lam * d * (d + 1.0) * k * uv ** (-d - 2.0) * w1 * v - d * k * uv ** (-d - 1.0) * v
    w12 = cho_solve(factor, rhs["w12"], check_finite=False)
    rhs["w22"] = lam * d * (d + 1.0) * k * uv ** (-d - 2.0) * v * v_psi
    w22 = cho_solve(factor, rhs["w22"], check_finite=False)

    fields = {"w1": w1, "v": v, "w11": w11, "w12": w12, "w22": w22}
    residuals = {}
    for name, field in fields.items():
        res = float(np.abs(mat @ field - rhs[name]).max())
        residuals[name] = res
        if not res <= tol * (1.0 + np.abs(rhs[name]).max()):
            raise RuntimeError(f"sensitivity solve {name} residual {res:.3e} exceeds tolerance")
    return SensitivityBundle(w1=w1, w11=w11, w12=w12, w22=w22, v=v, residuals=residuals)


@single_pool
def fredholm_monitor(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, lin=None) -> float:
    """Smallest singular value of I - P^(-1) diag(lam f'(u)).

    This is the compact-perturbation-of-identity form of the equation's
    linearization; a near-zero value flags a singular point of the branch and
    co-occurs with a vanishing principal eigenvalue.  It is computed as
    1/sigma_max(I + J^-1 F) by Lanczos on J's factor (see the module notes);
    pass `lin` to reuse a linearization built at (lam, u).
    """
    lin = lin if lin is not None else linearized_operator(lam, u, op, spec)
    fp = lin.fprime
    if not np.any(fp):
        return 1.0
    solve = lin.solve
    if solve is None:
        return 0.0

    def normal(v):  # (I + F J^-1)(I + J^-1 F) v = (J^-1 P)^T (J^-1 P) v
        z = v + solve(fp * v)
        return z + fp * solve(z)

    theta, vecs = _lanczos_largest(normal, op.n, 1)
    theta, x = float(theta[0]), vecs[:, 0]
    res = float(np.linalg.norm(normal(x) - theta * x))
    if res > MONITOR_RTOL * theta:
        raise ConvergenceError(f"monitor Ritz residual {res:.3e} exceeds {MONITOR_RTOL:.0e} relative", residual=res)
    return float(1.0 / np.sqrt(theta))
