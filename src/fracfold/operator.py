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

The grid is symmetric about 0 bit for bit, and so is A: with R the reversal
of the nodes, A = RAR exactly (`toeplitz` is, and the wall correction is
mirrored).  So A, and the Jacobian A + diag(p) at any even potential p,
commute with R and split into two blocks of order about n/2 (Cantoni &
Butler, Linear Algebra Appl. 13, 1976).  Let E be the n x ceil(n/2) map that
unfolds first-half values y to the even field (y, Ry) (its centre column
holds a single 1 when n is odd) and E_o the n x floor(n/2) map to the odd
field (y, [0,] -Ry).  Then J = A + diag(p) acts on even fields as the even
block J_e = E^T J E = E^T A E + diag(E^T p), and on odd ones as J_o = E_o^T J
E_o; for any x, J^-1 x = E J_e^-1 E^T x + E_o J_o^-1 E_o^T x.  This module
is the one home of that fold and unfold (`fold`, `unfold`, `Basis`), of the
bitwise test that picks the even path for Newton (`is_even`), and of the
cached blocks of A.  Every solve on n-node vectors with A, or with a J that
commutes with R, is the split solve (`split_solver`), which factors J_o only
once a right-hand side has an odd part; only an asymmetric Jacobian (an
asymmetric forcing, a random start) is factored at order n.

This is the one module that calls a dense kernel: a factorization or a
matrix-vector product.  Every product of a matrix with a vector is `matvec`,
BLAS gemv from scipy, so all dense work runs in the one OpenBLAS that also
factors and solves; numpy's own OpenBLAS, and its thread pool, stay idle.
It hands out solves x -> M^-1 x, never factors: `spd_solver` (Cholesky),
`lu_solver` (LU with partial pivoting), `shifted_spd_solver` (Cholesky
below the Gershgorin discs) and `split_solver` (both blocks of a
reflection-symmetric J).  Every other module solves through them, and the
smallest eigenpair comes from one shift-invert Lanczos run through one of
them, on the even block when the matrix is one.  Every `spd_solver` of a
block of an n x n matrix is given n, so its probe is the n-node sine
profile whatever the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np
from scipy.linalg import cho_factor, eigh_tridiagonal, get_blas_funcs, lu_factor, lu_solve, toeplitz
from scipy.special import gamma, hyp2f1

from .errors import AssemblyError, ConvergenceError, GridError

__all__ = [
    "Grid",
    "NonlocalOperator",
    "EigenPair",
    "Basis",
    "basis_for",
    "is_even",
    "fold",
    "unfold",
    "normalization_constant",
    "build_grid",
    "assemble_operator",
    "solve_dirichlet",
    "spd_solver",
    "lu_solver",
    "shifted_spd_solver",
    "split_solver",
    "matvec",
    "dump_triplets",
]

MIN_NODES = 8
SIGN_SLACK = 1e-12
# Lanczos gives up after this many operator applications.
LANCZOS_STEPS = 200
# BLAS triangular solve with one right-hand side, and the matrix-vector product, from scipy's BLAS
_TRSV = get_blas_funcs("trsv", dtype=np.float64)
_GEMV = get_blas_funcs("gemv", dtype=np.float64)


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
    # x_i = h (i - (n+1)/2): i - (n+1)/2 is an exact half-integer, so x_{n+1-i} = -x_i bit for bit
    nodes = h * (np.arange(1, n + 1) - 0.5 * (n + 1))
    return Grid(half_width=float(half_width), n=int(n), h=h, nodes=nodes)


@dataclass(eq=False)
class NonlocalOperator:
    """Dense matrix form of the fractional Laplacian restricted to interior nodes."""

    grid: Grid
    s: float
    matrix: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def even_block(self) -> np.ndarray:
        """E^T A E: A on even fields, of order ceil(n/2)."""
        return _fold_matrix(self.matrix)

    @cached_property
    def odd_block(self) -> np.ndarray:
        """E_o^T A E_o: A on odd fields, of order floor(n/2)."""
        return _fold_matrix(self.matrix, odd=True)

    @cached_property
    def _solve(self):
        """x -> A^-1 x on any n-node x: the split solve through Cholesky factors of A's blocks."""
        return split_solver(spd_solver(self.even_block, self.n), lambda: self.odd_block, self.n)


def is_even(x) -> bool:
    """True when x equals its reflection bit for bit: x_i = x_{n-1-i}, or M_ij = M_{n-1-i,n-1-j} for a matrix.

    This is the one test that picks the even path; a scalar is even.
    """
    x = np.asarray(x)
    return bool(np.array_equal(x, np.flip(x)))


def fold(x: np.ndarray, odd: bool = False) -> np.ndarray:
    """E^T x, or E_o^T x with odd=True, along the first axis of x.

    Row i < floor(n/2) is x_i + x_{n-1-i} (x_i - x_{n-1-i} for E_o); E^T keeps
    the centre row of an odd n once, E_o^T drops it.
    """
    n = len(x)
    k = n // 2 if odd else (n + 1) // 2
    mirror = x[::-1][:k]
    out = x[:k] - mirror if odd else x[:k] + mirror
    if n % 2 and not odd:
        out[-1] = x[k - 1]
    return out


def unfold(y: np.ndarray, n: int, odd: bool = False) -> np.ndarray:
    """E y, or E_o y with odd=True: the even (odd) field on n nodes whose first-half values are y."""
    if odd:
        return np.concatenate((y, np.zeros(n - 2 * len(y)), -y[::-1]))
    return np.concatenate((y, y[: n // 2][::-1]))


def _fold_matrix(mat: np.ndarray, odd: bool = False) -> np.ndarray:
    """E^T mat E (E_o^T mat E_o with odd=True), folding the rows and then the columns.

    For a symmetric mat with mat = R mat R bit for bit, as A is, the entry
    (i, j) is computed as (a + b) + (b + a) (as (a - b) - (b - a) for E_o),
    with a = a_ij and b = a_i,n-1-j, and so is the entry (j, i): the block
    is symmetric bit for bit.
    """
    return np.ascontiguousarray(fold(fold(mat, odd).T, odd).T)


@dataclass(frozen=True)
class Basis:
    """The coordinates of a solve on n-node vectors: E's columns (even) or the nodes themselves.

    `fold` maps a vector to the basis (E^T x) and `unfold` back (E y); both
    carry entries past the first n (the unknowns of a bordered system)
    through unchanged, and both return their argument on the node basis.
    """

    n: int
    even: bool

    @property
    def order(self) -> int:
        return (self.n + 1) // 2 if self.even else self.n

    def fold(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate((fold(x[: self.n]), x[self.n :])) if self.even else x

    def unfold(self, y: np.ndarray) -> np.ndarray:
        k = self.order
        return np.concatenate((unfold(y[:k], self.n), y[k:])) if self.even else y

    def lift(self, solve):
        """x -> E solve(E^T x): a solve with a matrix of this basis as one on n-node vectors.

        For M = E^T J E and an even x it gives J^-1 x; the odd part of x,
        which J maps to odd fields, is dropped.  None stays None.
        """
        if solve is None or not self.even:
            return solve
        return lambda x: self.unfold(solve(self.fold(x)))


def basis_for(n: int, *data) -> Basis:
    """E's columns when every one of the data (n-node fields or scalars) is even, else the nodes."""
    return Basis(n, all(is_even(x) for x in data))


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
    delta_left = (exact - matvec(mat, u_left)) / u_left
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
    mat = toeplitz(col)
    mat *= 2.0 * normalization_constant(s)
    mat[np.diag_indices(n)] += _wall_correction(grid, s, mat)
    op = NonlocalOperator(grid=grid, s=float(s), matrix=mat)
    _check_structure(op)
    return op


def _check_structure(op: NonlocalOperator) -> None:
    """Symmetry, the M-matrix sign pattern, positive row sums and A = RAR, with one n x n temporary at a time."""
    mat = op.matrix
    scale = max(mat.max(), -mat.min())
    asym = mat - mat.T
    if np.abs(asym, out=asym).max() > SIGN_SLACK * scale:
        raise AssemblyError("assembled operator is not symmetric")
    del asym
    # mat is symmetric, so its strict upper triangle holds every off-diagonal value (triu zeros the rest)
    if np.diag(mat).min() <= 0.0 or np.triu(mat, 1).max() > SIGN_SLACK * scale:
        raise AssemblyError("assembled operator violates the M-matrix sign pattern")
    if mat.sum(axis=1).min() <= 0.0:
        raise AssemblyError("assembled operator has a nonpositive row sum")
    if not is_even(mat):
        raise AssemblyError("assembled operator does not commute with the reflection of the grid")


def solve_dirichlet(op: NonlocalOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs by the operator's cached split solve (`split_solver`).

    For rhs >= 0 not identically zero the result is strictly positive at all
    interior nodes (discrete maximum principle).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite at all nodes")
    return op._solve(rhs)


def matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x by BLAS gemv from scipy, whose OpenBLAS also factors and solves.

    A C-ordered mat goes in as its F-ordered transpose with trans=1, an
    F-ordered one (a transpose such as qs.T) as it is, so f2py copies
    neither.
    """
    if mat.flags.f_contiguous:
        return _GEMV(1.0, mat, x)
    return _GEMV(1.0, mat.T, x, trans=1)


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


def _mass(k: int, n: int | None) -> np.ndarray:
    """diag(E^T E) for a block of order k < n (2 at each folded pair, 1 at an odd n's centre), else ones."""
    return np.ones(k) if n in (None, k) else fold(np.ones(n))


def spd_solver(mat: np.ndarray, n: int | None = None):
    """x -> mat^-1 x by one Cholesky factor, or None when mat is not positive definite.

    A negative Rayleigh quotient on the sine profile already proves that
    (as on most of the upper branch) and saves the failing factorization.
    For a block of an n x n matrix (order k < n) the probe is the first k
    values of the n-node profile, so it gives the full matrix's quotient.
    """
    k = mat.shape[0]
    probe = _sine_profile(n or k)[:k]
    if probe @ matvec(mat, probe) < 0.0:
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


def shifted_spd_solver(mat: np.ndarray, n: int | None = None):
    """x -> (mat - mu D)^-1 x by one Cholesky, mu = min(g, 0) - 1 below every Gershgorin disc of D^-1 mat.

    D is the identity, or for the even block of an n x n matrix (order k <
    n) the diagonal of E^T E, so that mu lies below the spectrum of the
    generalized problem mat y = mu D y (see `_shift_invert_pair`).  g is the
    lowest left end of the discs.  The shift is taken off the diagonal of
    one Fortran-ordered copy, which LAPACK then factors in place; mat is
    left as it was.
    """
    mass = _mass(mat.shape[0], n)
    d = np.diag(mat)
    shift = min(float(np.min((d - (np.abs(mat).sum(axis=1) - np.abs(d))) / mass)), 0.0) - 1.0
    shifted = np.array(mat, order="F")
    shifted[np.diag_indices_from(shifted)] -= shift * mass
    return _trsv_pair(cho_factor(shifted, lower=True, overwrite_a=True)[0])


def split_solver(even, odd, n: int):
    """x -> J^-1 x on any n-node x, for an n x n J that commutes with the reflection, from its two blocks.

    `even` is a solve with J_e = E^T J E (built by the caller, who may share
    it with an eigenpair); `odd` is a function of no arguments that returns
    J_o = E_o^T J E_o.  Then J^-1 x = E J_e^-1 E^T x + E_o J_o^-1 E_o^T x:
    two solves of order about n/2.  J_o is built and factored here, by
    Cholesky or else LU, on the first x with E_o^T x != 0; an x with E_o^T x
    = 0 (an even x) skips the odd half, which leaves the even one's bits.  A
    singular J_o is a ConvergenceError at that solve.  None when `even` is.
    """
    if even is None:
        return None

    @cache
    def odd_solve():
        block = odd()
        return spd_solver(block, n) or lu_solver(block)

    def solve(x):
        y = unfold(even(fold(x)), n)
        z = fold(x, odd=True)
        if not z.any():
            return y
        if (solve_odd := odd_solve()) is None:
            raise ConvergenceError("the odd block of a reflection-symmetric matrix is exactly singular")
        return y + unfold(solve_odd(z), n, odd=True)

    return solve


def _lanczos_largest(apply, n: int, rtol: float) -> tuple[float, np.ndarray]:
    """Largest eigenpair of the symmetric operator x -> apply(x) by Lanczos, as (value, vector).

    Full reorthogonalization keeps the basis orthonormal, so the residual of
    a Ritz pair (theta, Q s) of the j x j tridiagonal is beta_j |s_j| (Parlett,
    The Symmetric Eigenvalue Problem, ch. 13).  It is tested after every
    step, and the run stops once it is at most rtol |theta| for the top
    pair; on breakdown (beta_j = 0) it is exact.  The basis grows one vector
    per step.  The start vector linspace(1, 2, n) is fixed, so repeated runs
    agree bit for bit.  It is positive, so it meets the Perron vector of an
    inverse M-matrix: on an even block that is all it must do, since the
    block holds no reflection.  On an n-node operator that commutes with
    the reflection (the Fredholm monitor's) it matters too that the start
    has no reflection symmetry: the Krylov space then holds the
    antisymmetric modes as well.
    """
    q = np.linspace(1.0, 2.0, n)
    basis = [q / np.linalg.norm(q)]
    alpha: list[float] = []
    beta: list[float] = []
    for _ in range(min(LANCZOS_STEPS, n)):
        w = apply(basis[-1])
        alpha.append(float(basis[-1] @ w))
        qs = np.array(basis)
        w = w - matvec(qs.T, matvec(qs, w))
        w -= matvec(qs.T, matvec(qs, w))
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta))
        theta, s = theta[-1:], s[:, -1:]
        if b * abs(s[-1, 0]) <= rtol * abs(theta[0]):
            return float(theta[0]), matvec(qs.T, s[:, 0])
        if b == 0.0:
            break
        beta.append(b)
        basis.append(w / b)
    raise ConvergenceError(f"Lanczos found no converged Ritz pair in {len(alpha)} steps")


def _shift_invert_pair(mat, solve, tol, n: int | None = None) -> EigenPair:
    """Eigenpair of symmetric mat from the largest pair of a shift-invert operator.

    solve is x -> (mat - mu D)^-1 x with mu below the spectrum, whose largest
    eigenvalue belongs to the smallest of mat; or x -> -mat^-1 x, whose
    largest belongs to the negative eigenvalue of mat nearest 0.  D is the
    identity; or, when mat is the even block E^T J E of an n x n J (order k <
    n), the diagonal of E^T E.  The pair is then J's among even fields, from
    the generalized problem mat y = mu D y: Lanczos runs on D^1/2 solve D^1/2
    in the coordinates z = D^1/2 y, where J on even fields is a symmetric
    matrix, and the vector is unfolded to the n nodes.  The eigenvalue is
    the Rayleigh quotient of the Ritz vector; the residual is the sup norm
    of J x - mu x on the sup-normalized vector x.  Lanczos stops at the Ritz
    residual rtol theta that keeps it below tol: the residual is then at most
    sqrt(k) ||S - mu I|| rtol for the matrix S = D^-1/2 mat D^-1/2, and ||S -
    mu I|| <= 2 ||mat||_inf / min D + 1 for mu = 0 and for the Gershgorin
    shift alike.
    """
    k = mat.shape[0]
    mass = _mass(k, n)
    root = np.sqrt(mass)
    rtol = tol / (np.sqrt(k) * (2.0 * np.abs(mat).sum(axis=1).max() / mass.min() + 1.0))
    _, z = _lanczos_largest(lambda v: root * solve(root * v), k, rtol)
    x = z / root
    mu = float(x @ matvec(mat, x))
    vec = x / np.abs(x).max()
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    res = float(np.abs((matvec(mat, vec) - mu * mass * vec) / mass).max())
    if res > tol:
        raise ConvergenceError(f"eigenpair residual {res:.3e} exceeds {tol:.1e}", residual=res)
    return EigenPair(value=mu, vector=vec if n in (None, k) else unfold(vec, n), residual=res)


def smallest_eigenpairs(mat: np.ndarray, tol: float = 1e-8, n: int | None = None) -> EigenPair:
    """Smallest eigenpair of a dense symmetric matrix, or with n, of the n x n one whose even block mat is.

    Shift-invert Lanczos through one Cholesky solve: with mat itself when it
    is positive definite, else with mat - mu*D for the Gershgorin shift mu
    (see `_shift_invert_pair` for D and the even block).
    """
    return _shift_invert_pair(mat, spd_solver(mat, n) or shifted_spd_solver(mat, n), tol, n)


def principal_eigenpair(op: NonlocalOperator) -> EigenPair:
    """Cached principal eigenpair of the operator (sup-normalized, strictly positive eigenvector).

    The Perron vector of A is even, so it comes from A's even block.
    """
    if "phi1" not in op._cache:
        pair = smallest_eigenpairs(op.even_block, n=op.n)
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
