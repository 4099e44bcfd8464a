"""Discrete restricted (integral) fractional Laplacian on a uniform 1-D grid.

The operator acts on fields that vanish identically outside the open interval
(-L, L).  At an interior node x_i it discretizes

    2 C(1,s) P.V. int_R (u(x_i) - u(y)) |x_i - y|^(-1-2s) dy,

with C(1,s) = pi^(-1/2) 2^(2s-1) s Gamma((1+2s)/2) / Gamma(1-s).  With this
normalization the operator has Fourier symbol |xi|^(2s), so the closed form
(-Delta)^s (1-x^2)_+^s = Gamma(2s+1) on (-1,1) holds and is used as the
discretization oracle.

Scheme: the integrand is evaluated against the piecewise-linear interpolant of
the nodal values (zero at and beyond the boundary nodes), integrated exactly
cell by cell, with the remaining exterior tail added in closed form.  On the
two cells touching the collocation node the symmetrized second difference
2u(x_i) - u(x_i+z) - u(x_i-z) is modeled by its quadratic interpolant, which
keeps the quadrature finite for every s in (0,1) and yields weights that are
positive, summable, and translation invariant.

A diagonal wall correction is then added so that every row is exact on the
one-sided wall profile (y+L)^s_+ truncated at the far wall (left-wall profile
for nodes left of center, mirrored on the right).  The profile is annihilated
by the continuous operator on its half-line, and the truncation's exact
operator value has a hypergeometric closed form, so the correction is
computable and removes the dominant boundary-layer error of nodal schemes
(observed sup errors on the closed-form benchmark drop by two orders).

The corrected matrix stays symmetric with positive diagonal, negative
off-diagonals, and positive row sums: an M-matrix, so the discrete comparison
principle holds.

This is the one module that factors a dense matrix, and it hands out solves
x -> M^-1 x, never factors: `spd_solver` (Cholesky), `lu_solver` (LU with
partial pivoting) and `shifted_spd_solver` (Cholesky below the Gershgorin
discs).  Every other module solves through them, and the smallest eigenpair
comes from one shift-invert Lanczos run through one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import cho_factor, eigh_tridiagonal, get_blas_funcs, lu_factor, lu_solve, toeplitz
from scipy.special import gamma, hyp2f1

from .errors import AssemblyError, ConvergenceError, GridError

__all__ = [
    "Grid",
    "NonlocalOperator",
    "EigenPair",
    "normalization_constant",
    "build_grid",
    "assemble_operator",
    "solve_dirichlet",
    "spd_solver",
    "lu_solver",
    "shifted_spd_solver",
    "dump_triplets",
]

MIN_NODES = 8
SIGN_SLACK = 1e-12
# Lanczos gives up after this many operator applications.
LANCZOS_STEPS = 200
# BLAS triangular solve with one right-hand side, from scipy's BLAS
_TRSV = get_blas_funcs("trsv", dtype=np.float64)


def normalization_constant(s: float) -> float:
    """C(1, s) = pi^(-1/2) 2^(2s-1) s Gamma((1+2s)/2) / Gamma(1-s)."""
    return np.pi ** -0.5 * 2.0 ** (2.0 * s - 1.0) * s * gamma((1.0 + 2.0 * s) / 2.0) / gamma(1.0 - s)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform interior nodes of (-L, L); the boundary nodes carry the value 0."""

    half_width: float
    n: int
    h: float
    nodes: np.ndarray

    def distance(self) -> np.ndarray:
        """d(x_i) = L - |x_i|, the distance to the boundary."""
        return self.half_width - np.abs(self.nodes)


def build_grid(half_width: float, n: int) -> Grid:
    """Build the uniform grid with n interior nodes and spacing 2L/(n+1)."""
    if not np.isfinite(half_width) or half_width <= 0.0:
        raise GridError(f"half_width must be positive and finite, got {half_width}")
    if n < MIN_NODES:
        raise GridError(f"need at least {MIN_NODES} interior nodes for exponent fits, got {n}")
    h = 2.0 * half_width / (n + 1)
    nodes = -half_width + h * np.arange(1, n + 1)
    return Grid(half_width=float(half_width), n=int(n), h=h, nodes=nodes)


@dataclass(eq=False)
class NonlocalOperator:
    """Dense matrix form of the fractional Laplacian restricted to interior nodes."""

    grid: Grid
    s: float
    normalization: float
    matrix: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def _solve(self):
        """x -> A^-1 x by one Cholesky factor of A, which is positive definite (a symmetric M-matrix)."""
        return spd_solver(self.matrix)


def _hat_weights(n: int, h: float, sigma: float) -> np.ndarray:
    """Kernel weights w_k, k = 1..n-1, for node pairs at distance k*h.

    w_1 couples the singular cell's quadratic model with the exact hat
    integral over [h, 2h]; w_k for k >= 2 is the exact integral of the hat
    function at offset k against z^(-1-sigma).
    """
    k = np.arange(1, n, dtype=float)
    a = k * h
    b = (k + 1.0) * h
    # I0 = int_a^b z^(-1-sigma) dz, I1 = int_a^b z^(-sigma) dz, cancellation-safe.
    log_ratio = np.log1p(1.0 / k)
    i0 = -(a ** -sigma) * np.expm1(-sigma * log_ratio) / sigma
    x = (1.0 - sigma) * log_ratio
    phi = np.where(x == 0.0, 1.0, np.expm1(x) / np.where(x == 0.0, 1.0, x))
    i1 = a ** (1.0 - sigma) * log_ratio * phi
    p = (k + 1.0) * i0 - i1 / h
    q = i1 / h - k * i0
    w = np.empty(n - 1)
    w[0] = h ** -sigma / (2.0 - sigma) + p[0]
    if n > 2:
        w[1:] = q[:-1] + p[1:]
    return w


def _wall_correction(grid: Grid, s: float, mat: np.ndarray) -> np.ndarray:
    """Diagonal wall-consistency correction.

    With uL(y) = (y+L)^s_+ cut off at the far wall, the exact operator value is
    R(x) = 2 C(1,s) a^(-s)/s * 2F1(-s, s; s+1; -b/a), a = L-x, b = L+x (the
    profile itself is annihilated on its half-line; only the far-wall cutoff
    contributes).  The returned diagonal makes each row reproduce R exactly on
    the wall profile of its nearer boundary.
    """
    nodes, L, n = grid.nodes, grid.half_width, grid.n
    u_left = (nodes + L) ** s
    a = L - nodes
    b = L + nodes
    exact = 2.0 * normalization_constant(s) * a ** (-s) / s * hyp2f1(-s, s, s + 1.0, -b / a)
    delta_left = (exact - mat @ u_left) / u_left
    delta_right = delta_left[::-1]
    delta = np.where(nodes < 0.0, delta_left, delta_right)
    if n % 2 == 1:
        delta[n // 2] = 0.5 * (delta_left[n // 2] + delta_right[n // 2])
    return delta


def assemble_operator(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the dense n x n operator matrix for fractional order s in (0,1)."""
    if not (0.0 < s < 1.0):
        raise GridError(f"fractional order must lie in (0,1), got {s}")
    sigma = 2.0 * s
    h, n = grid.h, grid.n
    w = _hat_weights(n, h, sigma)
    diag = 2.0 / ((2.0 - sigma) * h ** sigma) + 2.0 / (sigma * h ** sigma)
    col = np.concatenate(([diag], -w))
    mat = (2.0 * normalization_constant(s)) * toeplitz(col)
    mat[np.diag_indices(n)] += _wall_correction(grid, s, mat)
    op = NonlocalOperator(grid=grid, s=float(s), normalization=normalization_constant(s), matrix=mat)
    _check_structure(op)
    return op


def _check_structure(op: NonlocalOperator) -> None:
    mat = op.matrix
    scale = np.abs(mat).max()
    if np.abs(mat - mat.T).max() > SIGN_SLACK * scale:
        raise AssemblyError("assembled operator is not symmetric")
    off = mat - np.diag(np.diag(mat))
    if np.diag(mat).min() <= 0.0 or off.max() > SIGN_SLACK * scale:
        raise AssemblyError("assembled operator violates the M-matrix sign pattern")
    if mat.sum(axis=1).min() <= 0.0:
        raise AssemblyError("assembled operator has a nonpositive row sum")


def solve_dirichlet(op: NonlocalOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs by the cached Cholesky solve.

    For rhs >= 0 not identically zero the result is strictly positive at all
    interior nodes (discrete maximum principle).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite at all nodes")
    return op._solve(rhs)


def _trsv_pair(tri: np.ndarray):
    """x -> L^-T L^-1 x for the lower Cholesky factor L = tri, by two BLAS trsv calls.

    LAPACK's potrs (scipy's cho_solve) runs the BLAS-3 trsm on a single
    column, which under OpenBLAS takes 2-4 times as long as the BLAS-2 trsv
    pair at n = 256 to 2048.
    """

    def solve(x):
        return _TRSV(tri, _TRSV(tri, x, lower=1), lower=1, trans=1, overwrite_x=1)

    return solve


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue with its sup-normalized eigenvector and achieved residual."""

    value: float
    vector: np.ndarray
    residual: float


def _sine_profile(n: int) -> np.ndarray:
    return np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


def spd_solver(mat: np.ndarray):
    """x -> mat^-1 x by one Cholesky factor, or None when mat is not positive definite.

    A negative Rayleigh quotient on the sine profile already proves that
    (as on most of the upper branch) and saves the failing factorization.
    """
    probe = _sine_profile(mat.shape[0])
    if probe @ (mat @ probe) < 0.0:
        return None
    try:
        return _trsv_pair(cho_factor(mat, lower=True)[0])
    except np.linalg.LinAlgError:
        return None


def lu_solver(mat: np.ndarray):
    """x -> mat^-1 x by one LU with partial pivoting, or None when mat is not finite or exactly singular."""
    if not np.all(np.isfinite(mat)):
        return None
    lu = lu_factor(mat, check_finite=False)
    return partial(lu_solve, lu, check_finite=False) if np.all(np.diag(lu[0])) else None


def shifted_spd_solver(mat: np.ndarray):
    """x -> (mat - mu I)^-1 x by one Cholesky, mu = min(g, 0) - 1 below every Gershgorin disc of mat.

    g is the lowest left end of the discs.  The shift is taken off the
    diagonal of one Fortran-ordered copy, which LAPACK then factors in place;
    mat is left as it was.
    """
    d = np.diag(mat)
    shift = min(float(np.min(d - (np.abs(mat).sum(axis=1) - np.abs(d)))), 0.0) - 1.0
    shifted = np.array(mat, order="F")
    shifted[np.diag_indices_from(shifted)] -= shift
    return _trsv_pair(cho_factor(shifted, lower=True, overwrite_a=True)[0])


def _lanczos_largest(matvec, n: int, rtol: float) -> tuple[float, np.ndarray]:
    """Largest eigenpair of a symmetric operator by Lanczos, as (value, vector).

    Full reorthogonalization keeps the basis orthonormal, so the residual of
    a Ritz pair (theta, Q s) of the j x j tridiagonal is beta_j |s_j| (Parlett,
    The Symmetric Eigenvalue Problem, ch. 13).  It is tested after every
    step, and the run stops once it is at most rtol |theta| for the top
    pair; on breakdown (beta_j = 0) it is exact.  The basis grows one vector
    per step.  The start vector linspace(1, 2, n) is fixed, so repeated runs
    agree bit for bit.  It is positive, so it meets the Perron vector of an
    inverse M-matrix, and it has no reflection symmetry, so the Krylov space
    of a reflection-symmetric operator holds its antisymmetric modes too.
    """
    q = np.linspace(1.0, 2.0, n)
    basis = [q / np.linalg.norm(q)]
    alpha: list[float] = []
    beta: list[float] = []
    for _ in range(min(LANCZOS_STEPS, n)):
        w = matvec(basis[-1])
        alpha.append(float(basis[-1] @ w))
        qs = np.array(basis)
        w = w - qs.T @ (qs @ w)
        w -= qs.T @ (qs @ w)
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta))
        theta, s = theta[-1:], s[:, -1:]
        if b * abs(s[-1, 0]) <= rtol * abs(theta[0]):
            return float(theta[0]), (qs.T @ s)[:, 0]
        if b == 0.0:
            break
        beta.append(b)
        basis.append(w / b)
    raise ConvergenceError(f"Lanczos found no converged Ritz pair in {len(alpha)} steps")


def _shift_invert_pair(mat, solve, tol) -> EigenPair:
    """Eigenpair of symmetric mat from the largest pair of a shift-invert operator.

    solve is x -> (mat - mu I)^-1 x with mu below the spectrum, whose largest
    eigenvalue belongs to the smallest of mat; or x -> -mat^-1 x, whose
    largest belongs to the negative eigenvalue of mat nearest 0.  The
    eigenvalue is the Rayleigh quotient of the Ritz vector; the residual is
    sup-norm on the sup-normalized vector.  Lanczos stops at the Ritz
    residual rtol theta that keeps it below tol: the residual in mat is then
    at most sqrt(n) ||mat - mu I|| rtol, and ||mat - mu I|| <= 2 ||mat||_inf
    + 1 for mu = 0 and for the Gershgorin shift alike.
    """
    rtol = tol / (np.sqrt(mat.shape[0]) * (2.0 * np.abs(mat).sum(axis=1).max() + 1.0))
    _, x = _lanczos_largest(solve, mat.shape[0], rtol)
    mu = float(x @ (mat @ x))
    vec = x / np.abs(x).max()
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    res = float(np.abs(mat @ vec - mu * vec).max())
    if res > tol:
        raise ConvergenceError(f"eigenpair residual {res:.3e} exceeds {tol:.1e}", residual=res)
    return EigenPair(value=mu, vector=vec, residual=res)


def smallest_eigenpairs(mat: np.ndarray, tol: float = 1e-8) -> EigenPair:
    """Smallest eigenpair of a dense symmetric matrix.

    Shift-invert Lanczos through one Cholesky solve: with mat itself when it
    is positive definite, else with mat - mu*I for the Gershgorin shift mu.
    """
    return _shift_invert_pair(mat, spd_solver(mat) or shifted_spd_solver(mat), tol)


def principal_eigenpair(op: NonlocalOperator) -> EigenPair:
    """Cached principal eigenpair of the operator (sup-normalized, strictly positive eigenvector)."""
    if "phi1" not in op._cache:
        pair = smallest_eigenpairs(op.matrix)
        if pair.vector.min() <= 0.0:
            raise ConvergenceError("principal eigenvector is not strictly positive", residual=pair.residual)
        op._cache["phi1"] = pair
    return op._cache["phi1"]


def dump_triplets(op: NonlocalOperator, path) -> None:
    """Write the matrix in plain-text triplet form: one `i j value` per line."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(op.n):
            row = op.matrix[i]
            for j in range(op.n):
                fh.write(f"{i} {j} {float(row[j])!r}\n")
