"""Linearized spectral analysis and derivative solves of the solution operator.

Around a positive solution u of A u = lam (K u^-delta + f(u)) the linearized
operator is J = A + diag(lam delta K u^(-delta-1) - lam f'(u)); its smallest
eigenvalue tracks stability of the minimal branch and vanishes at the fold.

With P = A + diag(lam delta K u^(-delta-1)) and F = diag(lam f'(u)), J = P - F
and the Fredholm monitor obeys I - P^(-1) F = P^(-1) J, so

    sigma_min(I - P^(-1) F) = 1 / sigma_max(J^(-1) P) = 1 / sigma_max(I + J^(-1) F).

Both numbers come from one LinearizedOperator, which builds one solve with
each of its matrices and shares it: `operator.spd_solver` when the matrix is
positive definite, else `operator.lu_solver`.  This module holds solves
only, never a factor.  At an even solution (the whole traced branch) J
commutes with the reflection of the nodes, and the LinearizedOperator holds
its even block J_e = E^T J E and odd block J_o = E_o^T J E_o, each of order
about n/2, in place of J.  The principal eigenvector is even (it is the
Perron vector), so lambda1 comes from J_e alone: Lanczos through the solve
on J_e^-1, or on -J_e^-1 when J_e's Cholesky fails, whose top Ritz pair is
the negative eigenvalue nearest 0 among even fields.  J_e is an irreducible
symmetric Z-matrix (as J is), so that pair is lambda1 exactly when its
eigenvector is strictly positive (Perron-Frobenius), whatever the sign its
Rayleigh quotient rounds to at a fold.  Where it is not, the top pair of
J_e^-1 through the LU is tested the same way (a Cholesky that failed by
rounding at a positive lambda1).  Only where neither is certified (Morse
index 2 or more among even fields) does lambda1 take a second
factorization, through `operator.shifted_spd_solver`: a solve with J_e -
mu*D for the Gershgorin shift mu (D = E^T E).  Odd negative modes no longer
reach that fallback: J_e does not see them.  The monitor runs Lanczos on
(I + F J^-1)(I + J^-1 F), two solves with J per step, each the split solve
through J_e and J_o (`operator.split_solver`).  Each Lanczos run
(operator._lanczos_largest) stops as soon as its Ritz pair has converged,
after 2-15 steps on the default branch at n=256 to 2048.  The monitor's run
is on n-node vectors, and its start vector has no reflection symmetry: J and
F are reflection-symmetric, and on the upper branch the monitor's singular
vector can be antisymmetric.  The lambda1 runs are on the even block, which
holds no reflection, so there the start only needs to be positive.

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
from functools import cached_property

import numpy as np

from .blas import single_pool
from .errors import ConvergenceError
from .operator import (
    EigenPair,
    NonlocalOperator,
    _lanczos_largest,
    _shift_invert_pair,
    lu_solver,
    shifted_spd_solver,
    spd_solver,
    split_solver,
)
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


@dataclass(eq=False)
class LinearizedOperator:
    """J = P - diag(fprime) on n = len(fprime) nodes, in the basis of its field; each solve is built once, on first use.

    At an even field with even data `matrix` is J's even block J_e = E^T J E
    and `odd` its odd block J_o = E_o^T J E_o (J = J_e (+) J_o); otherwise
    `matrix` is J and `odd` is None.
    """

    matrix: np.ndarray
    fprime: np.ndarray
    odd: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.fprime)

    @cached_property
    def cholesky(self):
        """x -> matrix^-1 x by its Cholesky factor, or None when it is not positive definite."""
        return spd_solver(self.matrix, self.n)

    @cached_property
    def block_solve(self):
        """x -> matrix^-1 x by its Cholesky or else LU factor, or None when it is exactly singular."""
        return self.cholesky or lu_solver(self.matrix)

    @cached_property
    def solve(self):
        """x -> J^-1 x on any n-node x: `block_solve`, or at an even field the split solve through J_e and J_o."""
        return self.block_solve if self.odd is None else split_solver(self.block_solve, self.odd, self.n)


def linearized_operator(lam: float, u, op: NonlocalOperator, spec: ProblemSpec) -> LinearizedOperator:
    """A + diag(lam delta K u^(-delta-1) - lam f'(u)) around a positive field, on its blocks when the field is even."""
    uv = _field_values(u)
    if uv.min() <= 0.0:
        raise ValueError("linearization requires a strictly positive field")
    eq = Equation.of(op, spec, lam)
    matrix = eq.jacobian(uv)
    if not np.all(np.isfinite(np.diagonal(matrix))):  # A is finite, so only the potential can fail
        raise ValueError("linearized potential is not finite")
    odd = eq.jacobian(uv, odd=True) if len(matrix) < op.n else None
    return LinearizedOperator(matrix=matrix, fprime=lam * spec.nonlinearity.fprime(uv), odd=odd)


@single_pool
def lambda1(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, tol: float = DEFAULT_TOL, lin=None) -> EigenPair:
    """Principal eigenpair of the linearization around u.

    Lanczos through the solve with the linearization's matrix (J, or J_e
    at an even u, whose pairs are J's among even fields), with the
    Gershgorin-shifted Cholesky solve as the fallback when that matrix's
    Cholesky fails and the Perron test rejects the Lanczos pair of its
    negated inverse (see the module notes).  Pass `lin` to reuse a
    linearization, and its solves, built at (lam, u).
    """
    lin = lin if lin is not None else linearized_operator(lam, u, op, spec)
    if lin.cholesky is not None:
        return _shift_invert_pair(lin.matrix, lin.cholesky, tol, lin.n)
    pair = _perron_pair(lin, tol)
    if pair is not None:
        return pair
    return _shift_invert_pair(lin.matrix, shifted_spd_solver(lin.matrix, lin.n), tol, lin.n)


def _perron_pair(lin: LinearizedOperator, tol: float) -> EigenPair | None:
    """lambda1 of J, when the Cholesky of lin.matrix (J or J_e) failed, from its LU; None when it is not certified.

    The argument below holds for J_e as for J (below, J stands for either),
    and the Perron vector of J is even, so it is J_e's.
    J = A + diag(potential) is an irreducible symmetric Z-matrix, so by
    Perron-Frobenius a strictly positive eigenvector belongs to lambda1 and to
    no other eigenvalue; for the positive vector x with residual r the
    Collatz-Wielandt bounds give |lambda1 - mu| <= max|r_i| / min x_i.  The
    top Lanczos pair of -J^-1 is that of the negative eigenvalue nearest 0
    (lambda1 at Morse index 1); when it is not certified, the top pair of
    J^-1 is tried, lambda1 when J is positive definite and its Cholesky failed
    only by rounding, as at a fold.  A pair is accepted when its residual is
    at most tol and its sup-normalized vector is strictly positive, whatever
    the sign its value rounds to.
    """
    solve = lin.block_solve
    if solve is None:
        return None
    for sign in (-1.0, 1.0):
        try:
            pair = _shift_invert_pair(lin.matrix, lambda x: sign * solve(x), tol, lin.n)
        except ConvergenceError:
            continue
        if pair.vector.min() > 0.0:
            return pair
    return None


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
    uv, eq, p = _field_values(u), Equation.of(op, spec, lam), linearized_operator(lam, u, op, spec)
    g_uu = eq.d_potential(uv)
    g_ulam = replace(eq, lam=1.0).potential(uv)
    potential = eq.potential(uv)

    def apply(x):  # P x on the nodes, whatever basis p is in
        return op.matrix @ x + potential * x

    w1 = _checked_solve(p, apply, -eq.d_dlam(uv), tol, "w1")
    v = _checked_solve(p, apply, phi, tol, "v")
    v_psi = v if psi is phi else p.solve(psi)
    w11 = _checked_solve(p, apply, -g_uu * w1 * w1 - 2.0 * g_ulam * w1, tol, "w11")
    w12 = _checked_solve(p, apply, -g_uu * w1 * v - g_ulam * v, tol, "w12")
    w22 = _checked_solve(p, apply, -g_uu * v * v_psi, tol, "w22")
    return SensitivityBundle(w1=w1, w11=w11, w12=w12, w22=w22, v=v)


@single_pool
def fredholm_monitor(lam: float, u, op: NonlocalOperator, spec: ProblemSpec, lin=None) -> float:
    """Smallest singular value of I - P^(-1) diag(lam f'(u)).

    This is the compact-perturbation-of-identity form of the equation's
    linearization; a near-zero value flags a singular point of the branch and
    co-occurs with a vanishing principal eigenvalue.  It is computed as
    1/sigma_max(I + J^-1 F) by Lanczos on J's solve (see the module notes);
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

    theta, x = _lanczos_largest(normal, op.n, 0.01 * MONITOR_RTOL)
    res = float(np.linalg.norm(normal(x) - theta * x))
    if res > MONITOR_RTOL * theta:
        raise ConvergenceError(f"monitor Ritz residual {res:.3e} exceeds {MONITOR_RTOL:.0e} relative", residual=res)
    return float(1.0 / np.sqrt(theta))
