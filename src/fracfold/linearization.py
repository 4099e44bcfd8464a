"""Linearized spectral analysis and derivative solves of the solution operator.

Around a positive solution u of A u = lam (K u^-delta + f(u)) the linearized
operator is J = A + diag(lam delta K u^(-delta-1) - lam f'(u)); its smallest
eigenvalue tracks stability of the minimal branch and vanishes at the fold.

With P = A + diag(lam delta K u^(-delta-1)) and F = diag(lam f'(u)), J = P - F
and the Fredholm monitor obeys I - P^(-1) F = P^(-1) J, so

    sigma_min(I - P^(-1) F) = 1 / sigma_max(J^(-1) P) = 1 / sigma_max(I + J^(-1) F).

Both numbers come from one `operator.LinearizedOperator` (re-exported
here), the holder of J's solves, which A's own solves share
(`NonlocalOperator.lin`) and the equation builds (`Equation.linearization`).
It builds one solve with each of its matrices and shares it: Cholesky when
the matrix is positive definite, else LU.  This module holds no solver, no
factor and no block of J.  At an even solution (the whole traced branch) J
commutes with the reflection of the nodes, and the holder keeps
its even block J_e = Q^T J Q, of order about n/2, in place of J, and a
builder of its odd block J_o = Q_o^T J Q_o; Q and Q_o have orthonormal
columns, so both are plain symmetric matrices whose eigenpairs are J's among
even (odd) fields.  The principal eigenvector is even (it is the Perron
vector), so lambda1 comes from J_e alone, by `operator.smallest_eigenpairs`,
the one smallest-pair routine, which also gives phi_1 of A (its Perron
certificate and fallbacks are described there); odd negative modes do not
reach its Gershgorin fallback, since J_e does not see them.  P and F split
on Q and Q_o as J does, so the monitor is min(sigma_e, sigma_o), each read
on its own block by `operator.fredholm_sigma`: Lanczos on (I + F_e
J_e^-1)(I + J_e^-1 F_e) through the J_e factor lambda1 already made, and
the same on J_o only where a Collatz-Wielandt floor on lambda_min(J_o)
(`operator.odd_floor`, from the equation's potential) does not already show
sigma_o above sigma_e.  On the default branch that floor rules sigma_o out
at every minimal point, the fold and the first upper points, so J_o is
built and factored at the last few upper points only.  The derivative
fields at even data solve through J_e only.  Each Lanczos run
(operator._lanczos_largest) stops as soon as its Ritz pair has converged,
after 2-15 steps on the default branch at n=256 to 2048.  At an asymmetric
field the monitor's run is on n-node vectors through J's solve.

The solution operator T(lam, h) of G(u, lam) = A u - lam K u^-delta - h = 0
is twice differentiable.  Implicit differentiation gives its derivative
fields as solves with P = G_u, the linearization without f:

    P v    = phi                                     (direction phi in h)
    P w1   = -G_lam                                  (d/dlam)
    P w11  = -G_uu[w1, w1] - 2 G_ulam w1
    P w12  = -G_uu[w1, v]  -   G_ulam v
    P w22  = -G_uu[v_phi, v_psi]

with G_uu[a, b] = Equation.d_potential * a * b and G_ulam the potential at
lam = 1.  All right-hand sides are checked against finite differences of the
solve itself in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operator import EigenPair, LinearizedOperator, NonlocalOperator, fredholm_sigma, smallest_eigenpairs
from .problem import ProblemSpec, no_nonlinearity
from .singular import DEFAULT_TOL, Equation, SolutionField, _field_values, solve_A

__all__ = [
    "LinearizedOperator",
    "SensitivityBundle",
    "linearized_operator",
    "lambda1",
    "sensitivity_bundle",
    "fredholm_monitor",
]

# Relative residual |B x - theta x| / theta accepted for the monitor's Ritz pair;
# the Ritz value is then within that of an eigenvalue, so sigma_min is good to 5e-9.
# Its Lanczos run stops at a Ritz residual a hundred times smaller.
MONITOR_RTOL = 1e-8


def linearized_operator(lam: float, u, op: NonlocalOperator, spec: ProblemSpec) -> LinearizedOperator:
    """A + diag(lam delta K u^(-delta-1) - lam f'(u)) around a positive field, on its blocks when the field is even."""
    uv = _field_values(u)
    if uv.min() <= 0.0:
        raise ValueError("linearization requires a strictly positive field")
    return Equation.of(op, spec, lam).linearization(uv)


def lambda1(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, tol: float = DEFAULT_TOL, lin=None) -> EigenPair:
    """Principal eigenpair of the linearization around u, by `operator.smallest_eigenpairs`.

    At an even u it comes from J_e alone, whose pairs are J's among even
    fields.  Pass `lin` to reuse a linearization, and its solves, built at
    (lam, u).
    """
    return smallest_eigenpairs(lin if lin is not None else linearized_operator(lam, u, op, spec), tol)


def _checked_solve(p: LinearizedOperator, apply, rhs: np.ndarray, tol: float, name: str) -> np.ndarray:
    """P^-1 rhs, raising when its sup residual |apply(x) - rhs| exceeds tol * (1 + sup|rhs|)."""
    x = p.solve(rhs)
    res = float(np.abs(apply(x) - rhs).max())
    if not res <= tol * (1.0 + np.abs(rhs).max()):  # also rejects a NaN residual
        raise RuntimeError(f"sensitivity {name} solve residual {res:.3e} exceeds tolerance")
    return x


@dataclass(eq=False)
class SensitivityBundle:
    """First and second derivative fields of the solution operator at (lam, h)."""

    w1: np.ndarray
    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray
    v: np.ndarray


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
    phi, and v is the directional derivative along phi.  Every field's
    residual is checked against tol.
    """
    if directions is None:
        directions = (np.ones(op.n), None)
    phi = np.asarray(directions[0], dtype=float)
    psi = phi if directions[1] is None else np.asarray(directions[1], dtype=float)
    if u is None:
        u = solve_A(lam, np.asarray(h, dtype=float), op, spec, tol=tol)
    spec = replace(spec, nonlinearity=no_nonlinearity())  # P = G_u is the linearization without f
    uv, eq = _field_values(u), Equation.of(op, spec, lam)
    p = linearized_operator(lam, u, op, spec)
    potential = eq.potential(uv)
    g_uu = eq.d_potential(uv)
    g_ulam = replace(eq, lam=1.0).potential(uv)

    def apply(x):  # P x on the nodes, whatever basis p is in
        return op.apply(x) + potential * x

    w1 = _checked_solve(p, apply, -eq.d_dlam(uv), tol, "w1")
    v = _checked_solve(p, apply, phi, tol, "v")
    v_psi = v if psi is phi else _checked_solve(p, apply, psi, tol, "v_psi")
    w11 = _checked_solve(p, apply, -g_uu * w1 * w1 - 2.0 * g_ulam * w1, tol, "w11")
    w12 = _checked_solve(p, apply, -g_uu * w1 * v - g_ulam * v, tol, "w12")
    w22 = _checked_solve(p, apply, -g_uu * v * v_psi, tol, "w22")
    return SensitivityBundle(w1=w1, w11=w11, w12=w12, w22=w22, v=v)


def fredholm_monitor(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, lin=None) -> float:
    """Smallest singular value of I - P^(-1) diag(lam f'(u)).

    This is the compact-perturbation-of-identity form of the equation's
    linearization; a near-zero value flags a singular point of the branch and
    co-occurs with a vanishing principal eigenvalue.  It is 1/sigma_max(I +
    J^-1 F), read by `operator.fredholm_sigma` from F = lam f'(u) and the
    equation's potential (see the module notes): at an even u the smaller of
    the even and odd blocks' values, J_o being built only where the odd
    floor cannot rule it out.  An exactly singular J, or block of J, gives
    0.0.  Pass `lin` to reuse a linearization built at (lam, u).
    """
    uv = _field_values(u)
    fp = lam * spec.nonlinearity.fprime(uv)
    if not np.any(fp):
        return 1.0
    lin = lin if lin is not None else linearized_operator(lam, u, op, spec)
    return fredholm_sigma(lin, op, fp, Equation.of(op, spec, lam).potential(uv), MONITOR_RTOL)
