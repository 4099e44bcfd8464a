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

The corrected matrix is a symmetric M-matrix (positive diagonal, negative
off-diagonals, positive row sums), so the discrete comparison principle
holds.  The kernel is translation invariant, so A = toeplitz(column) +
diag(wall): `NonlocalOperator` holds the scaled kernel column and the wall
diagonal, and only this module reads them.  Symmetry holds by that form,
and assembly checks the rest in O(n) from the two (`_check_structure`).
The wall correction's product with toeplitz(column) is the one n x n array
assembly makes; A is built whole only by `NonlocalOperator.dense`.

The grid is symmetric about 0 bit for bit, and so is A: with R the reversal
of the nodes, A = RAR exactly.  So A, and the Jacobian J = A + diag(p) at
any even p, split into two blocks of order about n/2 (Cantoni & Butler,
Linear Algebra Appl. 13, 1976).  Let Q be the n x ceil(n/2) matrix whose
orthonormal columns are (e_j + e_{n-1-j}) / sqrt(2), j < n//2, and e_h at
the centre node h of an odd n, and Q_o the n x floor(n/2) one with columns
(e_j - e_{n-1-j}) / sqrt(2).  Then J acts on even fields as J_e = Q^T J Q =
Q^T A Q + diag(p[:ceil(n/2)]) and on odd ones as J_o = Q_o^T J Q_o, plain
symmetric matrices whose eigenpairs are J's among even (odd) fields, and
J^-1 x = Q J_e^-1 Q^T x + Q_o J_o^-1 Q_o^T x.  This module is the one home
of that fold and unfold (`fold` = Q^T, `unfold` = Q, `Basis`), of the
bitwise test that picks Newton's even path (`is_even`), and of A's cached
blocks, each Toeplitz plus (minus) Hankel plus a diagonal (Heinig & Rost,
Algebraic Methods for Toeplitz-like Matrices and Operators, 1984), built
from strided views of the column (`_block`).  Every solve with A, or with a
J that commutes with R, is its holder's split solve
(`LinearizedOperator.solve`), which builds and factors J_o only once a
right-hand side has an odd part; only an asymmetric Jacobian is factored at
order n.

This is the one module that calls a dense kernel: a factorization or a
matrix-vector product.  Every product of a matrix with a vector is `matvec`,
BLAS gemv from scipy, so numpy's own OpenBLAS and its thread pool stay idle;
every product with A is `NonlocalOperator.apply`, from the blocks (from the
even block alone for an even field).  LAPACK gets every matrix in
column-major order, so f2py makes no transposing copy: a symmetric matrix
as its transpose view, the bordered matrix of `continuation` allocated
F-ordered.  Scratch matrices (Newton's fresh Jacobian, the bordered matrix)
are factored in place; a kept one (a holder's `matrix`, A's blocks, a J_o
whose Cholesky an LU may follow) is copied once, contiguously.  A float32
matrix (a single-precision Newton Jacobian) meets only the float32 kernels.
The module hands out solves x -> M^-1 x, never factors: `spd_solver`
(Cholesky), `lu_solver` (LU with partial pivoting) and `shifted_spd_solver`
(Cholesky below the Gershgorin discs).  The solves with A and with every J
are held by one `LinearizedOperator` each (A's is `NonlocalOperator.lin`,
at p = 0), and the smallest eigenpair of either comes from
`smallest_eigenpairs`: shift-invert Lanczos through the holder's solve, on
the even block when it keeps one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, eigh_tridiagonal, get_blas_funcs, lu_factor, lu_solve
from scipy.special import gamma, hyp2f1

from .errors import AssemblyError, ConvergenceError, GridError

__all__ = [
    "Grid",
    "NonlocalOperator",
    "EigenPair",
    "LinearizedOperator",
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
    "matvec",
]

MIN_NODES = 8
SIGN_SLACK = 1e-12
# 1/sqrt(2), the entries of Q and Q_o off an odd n's centre
_ROOT_HALF = np.sqrt(0.5)
# Lanczos gives up after this many operator applications.
LANCZOS_STEPS = 200
# BLAS triangular solve with one right-hand side, and the matrix-vector product, from scipy's BLAS, by
# the matrix's precision: a float32 matrix (a single-precision Jacobian) never meets a float64 kernel,
# which f2py would feed a float64 copy of it
_TRSV = {np.dtype(t): get_blas_funcs("trsv", dtype=t) for t in (np.float64, np.float32)}
_GEMV = {np.dtype(t): get_blas_funcs("gemv", dtype=t) for t in (np.float64, np.float32)}


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
    """The fractional Laplacian on the interior nodes: A = toeplitz(column) + diag(wall), held as two n-vectors."""

    grid: Grid
    s: float
    column: np.ndarray
    wall: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def diagonal(self) -> np.ndarray:
        """A's diagonal, column_0 + wall, with the bits of dense()'s."""
        return self.column[0] + self.wall

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """A, built whole only here: written into `out` (an array or view, each entry rounded once) or a new array."""
        if out is None:
            out = np.empty((self.n, self.n))
        out[...] = _toeplitz(self.column, self.n)
        out[np.diag_indices(self.n)] = self.diagonal
        return out

    @cached_property
    def even_block(self) -> np.ndarray:
        """Q^T A Q: A on even fields, of order ceil(n/2)."""
        return _block(self.column, self.wall)

    @property
    def odd_block(self) -> np.ndarray:
        """Q_o^T A Q_o: A on odd fields, of order floor(n/2), from the cached builder of `lin`."""
        return self.lin.odd()

    @cached_property
    def lin(self) -> LinearizedOperator:
        """A as a holder at p = 0: its even block, its solves, and an odd-block builder of column and wall, not of self."""
        return LinearizedOperator(self.even_block, self.n, cache(partial(_block, self.column, self.wall, odd=True)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x = Q A_e Q^T x + Q_o A_o Q_o^T x, from the blocks.

        An even x (Q_o^T x = 0) skips the odd half: A x is then Q A_e Q^T x,
        from a quarter of A's bytes, and even bit for bit.
        """
        y = unfold(matvec(self.even_block, fold(x)), self.n)
        z = fold(x, odd=True)
        if not z.any():
            return y
        return y + unfold(matvec(self.odd_block, z), self.n, odd=True)


def is_even(x) -> bool:
    """True when x equals its reflection bit for bit: x_i = x_{n-1-i}, or M_ij = M_{n-1-i,n-1-j} for a matrix.

    This is the one test that picks the even path; a scalar is even.
    """
    x = np.asarray(x)
    return bool(np.array_equal(x, np.flip(x)))


def fold(x: np.ndarray, odd: bool = False) -> np.ndarray:
    """Q^T x, or Q_o^T x with odd=True, along the first axis of x.

    Row i < floor(n/2) is (x_i + x_{n-1-i}) / sqrt(2) ((x_i - x_{n-1-i}) /
    sqrt(2) for Q_o); Q^T keeps the centre row of an odd n as it is, Q_o^T
    drops it.
    """
    n = len(x)
    k = n // 2 if odd else (n + 1) // 2
    mirror = x[::-1][:k]
    out = (x[:k] - mirror if odd else x[:k] + mirror) * _ROOT_HALF
    if n % 2 and not odd:
        out[-1] = x[k - 1]
    return out


def unfold(y: np.ndarray, n: int, odd: bool = False) -> np.ndarray:
    """Q y, or Q_o y with odd=True: the even (odd) field on n nodes with Q^T (Q_o^T) of it equal to y."""
    half = y[: n // 2] * _ROOT_HALF
    if odd:
        return np.concatenate((half, np.zeros(n - 2 * len(y)), -half[::-1]))
    return np.concatenate((half, y[n // 2 :], half[::-1]))


def _toeplitz(column: np.ndarray, k: int) -> np.ndarray:
    """The leading k x k block of toeplitz(column), entry (i, j) = column_|i-j|, as a strided view of one vector."""
    n = len(column)
    r = np.concatenate((column[:0:-1], column))  # r[m] = column_|m-(n-1)|
    return sliding_window_view(r, k)[n - k : n][::-1]


def _block(column: np.ndarray, wall: np.ndarray, odd: bool = False) -> np.ndarray:
    """Q^T A Q (Q_o^T A Q_o with odd=True) of A = toeplitz(column) + diag(wall), as the one k x k array it allocates.

    Entry (i, j), i, j < n//2, is a_ij +- a_i,n-1-j: the Toeplitz entry
    column_|i-j| +- the Hankel entry column_(n-1-i-j), both strided views of
    the column, and on the diagonal (column_0 + wall_i) +- column_(n-1-2i).
    An odd n's centre row and column are scaled by 1/sqrt(2), and the centre
    corner is a_hh.  The block is symmetric bit for bit.
    """
    h = len(column) // 2
    k = h if odd else len(column) - h
    hankel = sliding_window_view(column[::-1][: 2 * k - 1], k)
    toeplitz = _toeplitz(column, k)
    out = np.subtract(toeplitz, hankel) if odd else np.add(toeplitz, hankel)
    diagonal = column[0] + wall[:k]
    out[np.diag_indices(k)] = diagonal - np.diagonal(hankel) if odd else diagonal + np.diagonal(hankel)
    if k > h:
        out[h, :h] *= _ROOT_HALF
        out[:h, h] *= _ROOT_HALF
        out[h, h] = diagonal[h]
    return out


@dataclass(frozen=True)
class Basis:
    """The coordinates of a solve on n-node vectors: Q's columns (even) or the nodes themselves.

    `fold` maps a vector to the basis (Q^T x) and `unfold` back (Q y); both
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
        """x -> Q solve(Q^T x): a solve with a matrix of this basis as one on n-node vectors.

        For M = Q^T J Q and an even x it gives J^-1 x; the odd part of x,
        which J maps to odd fields, is dropped.  None stays None.
        """
        if solve is None or not self.even:
            return solve
        return lambda x: self.unfold(solve(self.fold(x)))


def basis_for(n: int, *data) -> Basis:
    """Q's columns when every one of the data (n-node fields or scalars) is even, else the nodes."""
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


def _wall_correction(grid: Grid, s: float, column: np.ndarray) -> np.ndarray:
    """Diagonal wall-consistency correction of toeplitz(column).

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
    wall_left = (exact - matvec(_toeplitz(column, n).copy(), u_left)) / u_left
    wall_right = wall_left[::-1]
    wall = np.where(nodes < 0.0, wall_left, wall_right)
    if n % 2 == 1:
        wall[n // 2] = 0.5 * (wall_left[n // 2] + wall_right[n // 2])
    return wall


def assemble_operator(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the operator for fractional order s in (0,1): its kernel column and wall diagonal, both checked."""
    if not (0.0 < s < 1.0):
        raise GridError(f"fractional order must lie in (0,1), got {s}")
    sigma = 2.0 * s
    h, n = grid.h, grid.n
    w = _hat_weights(n, h, sigma)
    diag = 2.0 / ((2.0 - sigma) * h ** sigma) + 2.0 / (sigma * h ** sigma)
    column = np.concatenate(([diag], -w))
    column *= 2.0 * normalization_constant(s)
    wall = _wall_correction(grid, s, column)
    _check_structure(column, wall)
    return NonlocalOperator(grid=grid, s=float(s), column=column, wall=wall)


def _check_structure(column: np.ndarray, wall: np.ndarray) -> None:
    """Finiteness, the M-matrix sign pattern, positive row sums and A = RAR, in O(n) from the column and wall diagonal.

    A = toeplitz(column) + diag(wall) is symmetric, and commutes with the
    reversal R exactly when wall is even.  The sign pattern is judged
    against the largest magnitude of A.
    """
    if not (np.all(np.isfinite(column)) and np.all(np.isfinite(wall))):
        raise AssemblyError("assembled operator is not finite")
    diagonal = column[0] + wall
    off = column[1:]
    scale = max(diagonal.max(), off.max(), -diagonal.min(), -off.min())
    if diagonal.min() <= 0.0 or off.max() > SIGN_SLACK * scale:
        raise AssemblyError("assembled operator violates the M-matrix sign pattern")
    if _row_sums(column, wall).min() <= 0.0:
        raise AssemblyError("assembled operator has a nonpositive row sum")
    if not is_even(wall):
        raise AssemblyError("assembled operator does not commute with the reflection of the grid")


def _row_sums(column: np.ndarray, wall: np.ndarray) -> np.ndarray:
    """A's row sums (column_0 + wall_i) + S_i + S_(n-1-i), S the prefix sums of column[1:] (S_0 = 0)."""
    prefix = np.concatenate(([0.0], np.cumsum(column[1:])))
    return column[0] + wall + prefix + prefix[::-1]


def solve_dirichlet(op: NonlocalOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs by the split solve of the operator's cached holder (`lin.solve`).

    For rhs >= 0 not identically zero the result is strictly positive at all
    interior nodes (discrete maximum principle).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite at all nodes")
    return op.lin.solve(rhs)


def matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x by BLAS gemv from scipy, whose OpenBLAS also factors and solves.

    A C-ordered mat goes in as its F-ordered transpose with trans=1, an
    F-ordered one (a transpose such as qs.T) as it is, so f2py copies
    neither.  A float32 mat goes to sgemv, and the product is float32.
    """
    gemv = _GEMV[mat.dtype]
    if mat.flags.f_contiguous:
        return gemv(1.0, mat, x)
    return gemv(1.0, mat.T, x, trans=1)


def _trsv_pair(tri: np.ndarray):
    """x -> L^-T L^-1 x for the lower Cholesky factor L = tri, by two BLAS trsv calls.

    LAPACK's potrs (scipy's cho_solve) runs the BLAS-3 trsm on a single
    column, which under OpenBLAS takes 2-4 times as long as the BLAS-2 trsv
    pair at n = 256 to 2048.  A float32 factor solves in float32 (x is
    rounded to it) and hands back a float64 result.
    """
    trsv = _TRSV[tri.dtype]

    def solve(x):
        return np.asarray(trsv(tri, trsv(tri, x, lower=1), lower=1, trans=1, overwrite_x=1), dtype=float)

    return solve


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue with its sup-normalized eigenvector and achieved residual."""

    value: float
    vector: np.ndarray
    residual: float


def _sine_profile(n: int) -> np.ndarray:
    return np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


def spd_solver(mat: np.ndarray, n: int | None = None, overwrite: bool = False):
    """x -> mat^-1 x by one Cholesky factor of symmetric mat, or None when it is not finite or not positive definite.

    A negative Rayleigh quotient on the sine profile already proves that
    (as on most of the upper branch) and saves the failing factorization.
    The profile is positive, so a NaN or infinite entry makes the quotient
    NaN or infinite: that one test also rejects a non-finite mat, and LAPACK
    is called unchecked.  For a block of an n x n matrix (order k < n) the
    probe is the first k values of Q^T times the n-node profile: for the
    even block that is Q^T of the profile, which gives the full matrix's
    quotient.  LAPACK is handed mat's column-major form: mat when
    F-ordered, else its transpose view, which for a symmetric mat holds the
    same bits.  With overwrite=True mat is scratch and is factored in place;
    otherwise it is copied once, contiguously, and left as it was.  A
    float32 mat is probed and factored in float32 (spotrf), and its solve
    takes and gives float64 vectors; the Cholesky of a float32 mat that
    overflowed when it was rounded, or that rounding made indefinite, is
    None like any other.
    """
    k = mat.shape[0]
    col = mat if mat.flags.f_contiguous else mat.T
    probe = _sine_profile(k) if n in (None, k) else fold(_sine_profile(n))[:k]
    if not 0.0 <= probe @ matvec(col.T, probe) < np.inf:  # False for a NaN quotient too
        return None
    try:
        return _trsv_pair(cho_factor(col, lower=True, overwrite_a=overwrite, check_finite=False)[0])
    except np.linalg.LinAlgError:
        return None


def lu_solver(mat: np.ndarray, overwrite: bool = False):
    """x -> mat^-1 x by one LU with partial pivoting, or None when mat is not finite or exactly singular.

    LAPACK factors mat as it is given: an F-ordered mat with no copy (in
    place with overwrite=True), a C-ordered one through f2py's transposing
    copy.  So a caller holding a symmetric C-ordered mat hands over mat.T,
    the same matrix in column-major order.
    """
    if not np.all(np.isfinite(mat)):
        return None
    lu = lu_factor(mat, overwrite_a=overwrite, check_finite=False)
    return partial(lu_solve, lu, check_finite=False) if np.all(np.diag(lu[0])) else None


def shifted_spd_solver(mat: np.ndarray):
    """x -> (mat - mu I)^-1 x by one Cholesky, mu = min(g, 0) - 1 below every Gershgorin disc of mat.

    g is the lowest left end of the discs.  The shift is taken off the
    diagonal of one contiguous copy of the symmetric mat's transpose view
    (its column-major form), which LAPACK then factors in place; mat is
    left as it was.
    """
    d = np.diag(mat)
    shift = min(float(np.min(d - (np.abs(mat).sum(axis=1) - np.abs(d)))), 0.0) - 1.0
    shifted = mat.T.copy(order="F")
    shifted[np.diag_indices_from(shifted)] -= shift
    return _trsv_pair(cho_factor(shifted, lower=True, overwrite_a=True)[0])


@dataclass(eq=False)
class LinearizedOperator:
    """J = A + diag(p) on n nodes, in the basis of its field; each solve is built once, on first use.

    At an even field with even data `matrix` is J's even block J_e = Q^T J Q
    and `odd` a function of no arguments that builds its odd block J_o =
    Q_o^T J Q_o (J = J_e (+) J_o); otherwise `matrix` is J and `odd` is None.
    A itself is one, at p = 0 (`NonlocalOperator.lin`).
    """

    matrix: np.ndarray
    n: int
    odd: Callable[[], np.ndarray] | None = None

    @cached_property
    def cholesky(self):
        """x -> matrix^-1 x by its Cholesky factor, or None when it is not positive definite."""
        return spd_solver(self.matrix, self.n)

    @cached_property
    def block_solve(self):
        """x -> matrix^-1 x by its Cholesky or else LU factor, or None when it is exactly singular."""
        return self.cholesky or lu_solver(self.matrix.T)  # symmetric: .T is its column-major form

    @cached_property
    def solve(self):
        """x -> J^-1 x on any n-node x: `block_solve`, or at an even field the split solve through J_e and J_o.

        The split solve is J^-1 x = Q J_e^-1 Q^T x + Q_o J_o^-1 Q_o^T x: two
        solves of order about n/2.  J_o gets a holder of its own, built with
        its `block_solve` on the first x with Q_o^T x != 0; an x with Q_o^T x
        = 0 (an even x) skips the odd half, which leaves the even one's bits.
        A singular J_o is a ConvergenceError at that solve.  None when
        `block_solve` is.  The solve holds the blocks' solves, not the
        holder, so it makes no reference cycle.
        """
        even, build, n = self.block_solve, self.odd, self.n
        if build is None or even is None:
            return even

        @cache
        def odd_solve():
            return LinearizedOperator(build(), n).block_solve

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


def _shift_invert_pair(mat, solve, tol, n: int) -> EigenPair:
    """Eigenpair of symmetric mat from the largest pair of a shift-invert operator.

    solve is x -> (mat - mu I)^-1 x with mu below the spectrum, whose largest
    eigenvalue belongs to the smallest of mat; or x -> -mat^-1 x, whose
    largest belongs to the negative eigenvalue of mat nearest 0.  mat is an
    n x n J, or its even block Q^T J Q (order k < n): the pair is then J's
    among even fields, and the vector and residual are unfolded to the n
    nodes.  The eigenvalue is the Rayleigh quotient of the Ritz vector; the
    residual is the sup norm of J x - mu x on the sup-normalized vector x.
    Lanczos stops at the Ritz residual rtol theta that keeps it below tol:
    on the n nodes (unfolding keeps the 2-norm) the residual is then at
    most sqrt(n) ||mat - mu I|| rtol, and
    ||mat - mu I|| <= 2 ||mat||_inf + 1 for mu = 0 and for the Gershgorin
    shift alike.
    """
    k = mat.shape[0]
    rtol = tol / (np.sqrt(n) * (2.0 * np.abs(mat).sum(axis=1).max() + 1.0))
    _, x = _lanczos_largest(solve, k, rtol)
    mu = float(x @ matvec(mat, x))
    r = matvec(mat, x) - mu * x
    if k < n:
        x, r = unfold(x, n), unfold(r, n)
    top = x[np.argmax(np.abs(x))]  # the sup norm, with the sign that makes the largest entry positive
    res = float(np.abs(r).max() / abs(top))
    if res > tol:
        raise ConvergenceError(f"eigenpair residual {res:.3e} exceeds {tol:.1e}", residual=res)
    return EigenPair(value=mu, vector=x / top, residual=res)


def smallest_eigenpairs(lin: LinearizedOperator, tol: float = 1e-8) -> EigenPair:
    """Smallest eigenpair of the matrix J that `lin` holds (among even fields when it holds J_e).

    The one smallest-pair routine, for A (`principal_eigenpair`) and for
    every linearization (`linearization.lambda1`).  Shift-invert Lanczos
    (see `_shift_invert_pair`) runs first through lin's Cholesky solve: the
    top pair of J^-1 when J is positive definite.  Where that Cholesky fails,
    J (or J_e) is an irreducible symmetric Z-matrix, so by Perron-Frobenius a
    strictly positive eigenvector belongs to the smallest eigenvalue and to
    no other (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6), and for a positive x with residual r the
    Collatz-Wielandt bounds give |lambda1 - mu| <= max|r_i| / min x_i; the
    Perron vector of J is even, so it is J_e's.  The
    top pair of -J^-1 through lin's LU is that of the negative eigenvalue
    nearest 0 (the smallest at Morse index 1); the top pair of J^-1 through
    the LU is the smallest when J is positive definite and its Cholesky
    failed only by rounding, as at a fold.  The first of the two whose
    residual is at most tol and whose sup-normalized vector is strictly
    positive is returned, whatever the sign its value rounds to.  Only where
    neither is certified (Morse index 2 or more) does it take a second
    factorization: the Cholesky of J - mu*I for the Gershgorin shift mu
    (`shifted_spd_solver`).
    """
    if lin.cholesky is not None:
        return _shift_invert_pair(lin.matrix, lin.cholesky, tol, lin.n)
    if (solve := lin.block_solve) is not None:
        for sign in (-1.0, 1.0):
            try:
                pair = _shift_invert_pair(lin.matrix, lambda x: sign * solve(x), tol, lin.n)
            except ConvergenceError:
                continue
            if pair.vector.min() > 0.0:
                return pair
    return _shift_invert_pair(lin.matrix, shifted_spd_solver(lin.matrix), tol, lin.n)


def principal_eigenpair(op: NonlocalOperator) -> EigenPair:
    """Cached principal eigenpair of the operator (sup-normalized, strictly positive eigenvector).

    The Perron vector of A is even, so it comes from A's even block, through
    a holder of its own: its Cholesky factor is dropped with it, not kept on
    the operator beside the one `lin` keeps for solves.
    """
    if "phi1" not in op._cache:
        pair = smallest_eigenpairs(LinearizedOperator(op.even_block, op.n))
        if pair.vector.min() <= 0.0:
            raise ConvergenceError("principal eigenvector is not strictly positive", residual=pair.residual)
        op._cache["phi1"] = pair
    return op._cache["phi1"]
