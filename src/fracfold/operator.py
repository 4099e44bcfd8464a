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
The wall correction's product with toeplitz(column) is taken in blocks of
rows of at most 16 MiB (`_toeplitz_product`), the one large temporary of
assembly; A is built whole only by `NonlocalOperator.dense`.

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
of that fold and unfold (`fold` = Q^T, `unfold` = Q), of the coordinates of
a Newton run (`Basis`: an even field carried as its first ceil(n/2) node
values, the half grid, with A's product and the block solves taken there
with the bits of the n-node ones), of the bitwise test that picks them
(`is_even`, once per run through `basis_for`), and of A's cached
blocks, each Toeplitz plus (minus) Hankel plus a diagonal (Heinig & Rost,
Algebraic Methods for Toeplitz-like Matrices and Operators, 1984), built
from strided views of the column (`_block`).  Every solve with A, or with a
J that commutes with R, is its holder's split solve
(`LinearizedOperator.solve`), which builds and factors J_o only once a
right-hand side has an odd part; only an asymmetric Jacobian is factored at
order n.  The Fredholm monitor is read block by block too
(`fredholm_sigma`), and J_o is built for it only where a Collatz-Wielandt
floor on its smallest eigenvalue (`odd_floor`, from A_o's Perron vector,
cached per operator) cannot rule the odd block out.

This is the one module that calls a dense kernel: a factorization or a
matrix-vector product.  Every product of a matrix with a vector is `matvec`,
BLAS gemv from scipy, so numpy's own OpenBLAS and its thread pool stay idle;
every product with A is `NonlocalOperator.apply`, from the blocks (from the
even block alone for an even field), or `Basis.apply` on the half grid.
LAPACK gets every matrix in column-major order, so f2py makes no
transposing copy: a symmetric matrix as its transpose view, the bordered
matrix of `continuation` allocated F-ordered.  Scratch matrices (Newton's
fresh Jacobian, the bordered matrix) are factored in place; a kept one (a
holder's `matrix`, A's blocks, a J_o whose Cholesky an LU may follow) is
copied once, contiguously.  A float32 matrix (a single-precision Newton
Jacobian) meets only the float32 kernels.  The module hands out solves
x -> M^-1 x, never factors: `spd_solver` (Cholesky), `lu_solver` (LU with
partial pivoting) and `shifted_spd_solver` (Cholesky below the Gershgorin
discs).  The solves with A and with every J are held by one
`LinearizedOperator` each (A's is `NonlocalOperator.lin`, at p = 0), whose
`block_solve` is the one "Cholesky, else LU": its cached Cholesky, else an
LU of a copy of its kept matrix.  The smallest eigenpair of either
comes from `smallest_eigenpairs`: shift-invert Lanczos through the holder's
solve, on the even block when it keeps one.  The LU solve and the Lanczos
tridiagonal's eigensolver call LAPACK (getrs, stevd) directly, without
scipy's per-call wrappers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, get_blas_funcs, get_lapack_funcs, lu_factor
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
    "odd_floor",
    "fredholm_sigma",
]

MIN_NODES = 8
SIGN_SLACK = 1e-12
# 1/sqrt(2), the entries of Q and Q_o off an odd n's centre
_ROOT_HALF = np.sqrt(0.5)
# Lanczos gives up after this many operator applications.
LANCZOS_STEPS = 200
# The monitor's odd block is ruled out when its floor clears sigma_e by this much, relative: far more than
# the Lanczos error of sigma_e (5e-9 at the monitor's tolerance) and the rounding of the floor's last sums.
FLOOR_MARGIN = 1e-6
# The most bytes of toeplitz(column) the wall correction's product copies at once.  Not less: glibc's malloc
# raises its mmap threshold to the size of a freed mapped block (up to 32 MiB), below which Newton's per-run
# Jacobians reuse heap pages; after 64-row blocks each of them maps fresh pages, 2458 minor faults per
# `fold --n 512` against 4, and 7 % of its wall time on a 2-vCPU host
WALL_BLOCK_BYTES = 2**24
# BLAS triangular solve with one right-hand side, and the matrix-vector product, from scipy's BLAS, by
# the matrix's precision: a float32 matrix (a single-precision Jacobian) never meets a float64 kernel,
# which f2py would feed a float64 copy of it
_TRSV = {np.dtype(t): get_blas_funcs("trsv", dtype=t) for t in (np.float64, np.float32)}
_GEMV = {np.dtype(t): get_blas_funcs("gemv", dtype=t) for t in (np.float64, np.float32)}
# LAPACK's solve with an LU factor, and the tridiagonal eigensolver that scipy's eigh_tridiagonal runs for
# all pairs, called without scipy's per-call wrappers; a float32 LU factor (of a single-precision Newton
# Jacobian) solves in float64, as scipy's lu_solve does with a float64 right-hand side
_GETRS = get_lapack_funcs("getrs", dtype=np.float64)
_STEVD = get_lapack_funcs("stevd", dtype=np.float64)


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

    @cached_property
    def even_off_sums(self) -> np.ndarray:
        """sum_(j != i) |(Q^T A Q)_ij| by row, computed once: J_e = Q^T A Q + diag(p) has the same ones."""
        return np.abs(self.even_block).sum(axis=1) - np.abs(np.diagonal(self.even_block))

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
    """The coordinates of a Newton run: the half grid of an even field, or the n nodes themselves.

    On the half grid an even field is carried as its first ceil(n/2) node
    values, an odd n's centre node once: `half` takes them from an n-node
    vector (a scalar passes through), and `mirror` gives the field back.
    `fold` maps them to Q's coordinates (Q^T of the mirrored field) and
    `unfold` maps those back; both carry one entry past the first
    ceil(n/2), the unknown of a bordered system, through unchanged.  Both
    do the arithmetic of the module's `fold` and `unfold` on the mirrored
    field, where x_i + x_(n-1-i) is x_i + x_i, so A's product (`apply`,
    from the even block) and a solve with a block (`solver`) give the first
    ceil(n/2) entries of their n-node results bit for bit.  On the node
    basis every map is the identity and `apply` is `NonlocalOperator.apply`.
    """

    n: int
    even: bool

    @property
    def order(self) -> int:
        return (self.n + 1) // 2 if self.even else self.n

    def half(self, x):
        """The first ceil(n/2) values of an n-node x on the half grid; x itself on the nodes or for a scalar."""
        return x[: self.order] if self.even and np.ndim(x) else x

    def mirror(self, v: np.ndarray) -> np.ndarray:
        """The n-node even field whose first ceil(n/2) values are v, on the half grid; v itself on the nodes."""
        return np.concatenate((v, v[: self.n // 2][::-1])) if self.even else v

    @cached_property
    def _scales(self) -> tuple[np.ndarray, np.ndarray]:
        """The row scales of `fold` and `unfold` on the half grid, 1 past it.

        (v_i + v_i) / sqrt(2) and v_i (2 / sqrt(2)) are one rounding of the
        same product, since doubling is exact, so one multiply has the bits
        of the module's `fold` on the mirrored field.
        """
        h, k = self.n // 2, self.order
        scales = np.ones((2, k + 1))
        scales[:, :h] = ((2.0 * _ROOT_HALF,), (_ROOT_HALF,))
        return scales[0], scales[1]

    def fold(self, v: np.ndarray) -> np.ndarray:
        """Q^T of the field of v on the half grid (rows (v_i + v_i) / sqrt(2), the centre as it is); v on the nodes."""
        return v * self._scales[0][: len(v)] if self.even else v

    def unfold(self, y: np.ndarray) -> np.ndarray:
        """The half-grid values of Q y (rows y_i / sqrt(2), the centre as it is): the inverse of `fold`."""
        return y * self._scales[1][: len(y)] if self.even else y

    def apply(self, op: NonlocalOperator, v: np.ndarray) -> np.ndarray:
        """A v in these coordinates: on the half grid from the even block alone, with the bits of `op.apply`."""
        if not self.even:
            return op.apply(v)
        return self.unfold(matvec(op.even_block, self.fold(v)))

    def solver(self, solve):
        """v -> unfold(solve(fold(v))): a solve with a matrix of Q's coordinates as one on these; None stays None.

        For M = Q^T J Q (or its bordered form) and v on the half grid it
        gives J^-1 of the mirrored v on the half grid.
        """
        if solve is None or not self.even:
            return solve
        return lambda v: self.unfold(solve(self.fold(v)))


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


def _toeplitz_product(column: np.ndarray, x: np.ndarray) -> np.ndarray:
    """toeplitz(column) @ x by one gemv per block of rows, each copied contiguously from the strided view.

    A block is at most WALL_BLOCK_BYTES, in a multiple of 64 rows, so up to
    n = 1448 the product is one gemv on the whole matrix, and at n = 8192 the
    temporary is 16 MiB, not 512.  Each entry of a gemv with trans=1 is the
    dot product of one row with x: blocks of 64 rows or a multiple kept the
    bits of the one gemv at n = 255, 256, 1023, 1024, 2047, 2048 and 4096, at
    one BLAS thread and at two, where blocks of 37 rows did not.  Not at
    every n: at two threads, n = 1449, 1500 and 2049 moved some entries by up
    to 3e-15 relative, a rounding-level change of the wall diagonal.
    """
    n = len(column)
    rows = max(64, WALL_BLOCK_BYTES // (8 * n) // 64 * 64)
    view = _toeplitz(column, n)
    return np.concatenate([matvec(view[i : i + rows].copy(), x) for i in range(0, n, rows)])


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
    wall_left = (exact - _toeplitz_product(column, u_left)) / u_left
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
    the same matrix in column-major order.  The solve is LAPACK's getrs,
    called directly: the bits of scipy's lu_solve at a third of its cost
    per call.
    """
    if not np.all(np.isfinite(mat)):
        return None
    lu, piv = lu_factor(mat, overwrite_a=overwrite, check_finite=False)
    if not np.all(np.diag(lu)):
        return None

    def solve(x):
        return _GETRS(lu, piv, x)[0]

    return solve


def shifted_spd_solver(mat: np.ndarray):
    """x -> (mat - mu I)^-1 x by one Cholesky, mu = min(g, 0) - 1 below every Gershgorin disc of mat.

    g is the lowest left end of the discs.  The shift is taken off the
    diagonal of one contiguous copy of the symmetric mat's transpose view
    (its column-major form), which `spd_solver` then factors in place; mat
    is left as it was.  A shifted matrix that still fails its Cholesky (one
    not finite) raises ConvergenceError.
    """
    d = np.diag(mat)
    shift = min(float(np.min(d - (np.abs(mat).sum(axis=1) - np.abs(d)))), 0.0) - 1.0
    shifted = mat.T.copy(order="F")
    shifted[np.diag_indices_from(shifted)] -= shift
    if (solve := spd_solver(shifted, overwrite=True)) is None:
        raise ConvergenceError(f"no Cholesky of the matrix shifted by {-shift!r}")
    return solve


@dataclass(eq=False)
class LinearizedOperator:
    """J = A + diag(p) on n nodes, in the basis of its field; each solve is built once, on first use.

    At an even field with even data `matrix` is J's even block J_e = Q^T J Q
    and `odd` a function of no arguments that builds its odd block J_o =
    Q_o^T J Q_o (J = J_e (+) J_o), called only by `odd_solve`; otherwise
    `matrix` is J and `odd` is None.  `off_sums`, when given, are matrix's
    off-diagonal absolute row sums, A's block's (a potential moves only the
    diagonal), from which `inf_norm` is read in O(k).
    A itself is one, at p = 0 (`NonlocalOperator.lin`).
    """

    matrix: np.ndarray
    n: int
    odd: Callable[[], np.ndarray] | None = None
    off_sums: np.ndarray | None = None

    @cached_property
    def inf_norm(self) -> float:
        """||matrix||_inf: from `off_sums` and the diagonal in O(k) when given, else from |matrix| whole."""
        if self.off_sums is None:
            return float(np.abs(self.matrix).sum(axis=1).max())
        return float(np.max(self.off_sums + np.abs(np.diagonal(self.matrix))))

    @cached_property
    def cholesky(self):
        """x -> matrix^-1 x by its Cholesky factor, or None when it is not positive definite."""
        return spd_solver(self.matrix, self.n)

    @cached_property
    def block_solve(self):
        """x -> matrix^-1 x by its cached `cholesky`, else by an LU of matrix's column-major form; None when singular.

        matrix is kept, so the LU factors a copy and no Cholesky is tried twice.
        """
        return self.cholesky or lu_solver(self.matrix if self.matrix.flags.f_contiguous else self.matrix.T)

    @cached_property
    def odd_solve(self):
        """At an even field, a function of no arguments that gives J_o's `block_solve`; None without an odd block.

        J_o gets a holder of its own, built and factored on the first call
        and kept: the split solve and the Fredholm monitor share its one
        factor.  The function holds the builder, not this holder, so it
        makes no reference cycle.
        """
        build, n = self.odd, self.n
        if build is None:
            return None
        return cache(lambda: LinearizedOperator(build(), n).block_solve)

    @cached_property
    def solve(self):
        """x -> J^-1 x on any n-node x: `block_solve`, or at an even field the split solve through J_e and J_o.

        The split solve is J^-1 x = Q J_e^-1 Q^T x + Q_o J_o^-1 Q_o^T x: two
        solves of order about n/2.  J_o is built on the first x with Q_o^T x
        != 0 (`odd_solve`); an x with Q_o^T x = 0 (an even x) skips the odd
        half, which leaves the even one's bits.  A singular J_o is a
        ConvergenceError at that solve.  None when `block_solve` is.  The
        solve holds the blocks' solves, not the holder, so it makes no
        reference cycle.
        """
        even, odd_solve, n = self.block_solve, self.odd_solve, self.n
        if odd_solve is None or even is None:
            return even

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
    pair; on breakdown (beta_j = 0) it is exact.  The basis vectors are the
    rows of one C-ordered array allocated up front, whose leading j rows
    are the j x n matrix of the reorthogonalization's two gemv pairs, and
    the tridiagonal is diagonalized by LAPACK's stevd, called directly.  The
    start vector linspace(1, 2, n) is fixed, so repeated runs agree bit for
    bit.  It is positive, so it meets the Perron vector of an inverse
    M-matrix: on a block (lambda1's, and the Fredholm monitor's at an even
    field) that is all it must do, since a block holds no reflection.  On an
    n-node operator that commutes with the reflection it matters too that
    the start has no reflection symmetry: the Krylov space then holds the
    antisymmetric modes as well.
    """
    steps = min(LANCZOS_STEPS, n)
    basis = np.empty((steps + 1, n))
    alpha, beta = np.empty(steps), np.zeros(steps)
    q = np.linspace(1.0, 2.0, n)
    basis[0] = q / np.linalg.norm(q)
    for j in range(steps):
        w = apply(basis[j])
        alpha[j] = basis[j] @ w
        qs = basis[: j + 1]
        w = w - matvec(qs.T, matvec(qs, w))
        w -= matvec(qs.T, matvec(qs, w))
        b = float(np.linalg.norm(w))
        theta, s, _ = _STEVD(alpha[: j + 1], beta[: max(j, 1)])  # stevd takes one off-diagonal entry at order 1
        if b * abs(s[-1, -1]) <= rtol * abs(theta[-1]):
            return float(theta[-1]), matvec(qs.T, s[:, -1])
        if b == 0.0:
            break
        beta[j] = b
        basis[j + 1] = w / b
    raise ConvergenceError(f"Lanczos found no converged Ritz pair in {j + 1} steps")


def _shift_invert_pair(lin: LinearizedOperator, solve, tol) -> EigenPair:
    """Eigenpair of the symmetric mat that lin holds, from the largest pair of a shift-invert operator.

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
    shift alike (`LinearizedOperator.inf_norm`).
    """
    mat, n = lin.matrix, lin.n
    k = mat.shape[0]
    rtol = tol / (np.sqrt(n) * (2.0 * lin.inf_norm + 1.0))
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
        return _shift_invert_pair(lin, lin.cholesky, tol)
    if (solve := lin.block_solve) is not None:
        for sign in (-1.0, 1.0):
            try:
                pair = _shift_invert_pair(lin, lambda x: sign * solve(x), tol)
            except ConvergenceError:
                continue
            if pair.vector.min() > 0.0:
                return pair
    return _shift_invert_pair(lin, shifted_spd_solver(lin.matrix), tol)


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


def _odd_collatz_wielandt(op: NonlocalOperator) -> np.ndarray | None:
    """c_i = (A_o psi)_i / psi_i less a rounding bound, for A_o's Perron vector psi; None when the premise fails.

    A_o's off-diagonals are column_|i-j| - column_(n-1-i-j), with |i-j| <
    n-1-i-j, so they are <= 0, rounded too, when column[1:] is
    non-decreasing (a kernel that decays with distance): then A_o and J_o =
    A_o + diag(p[:n//2]) at any even p are symmetric Z-matrices, and for any
    x > 0, min_i (J_o x)_i / x_i <= lambda_min(J_o) (Collatz-Wielandt;
    Berman & Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    ch. 6).  With x = psi that minimum is min_i (c_i + p_i).  The computed
    product is within gamma_m (|A_o| psi)_i of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), and for a
    Z-matrix |A_o| psi = (|d| + d) psi - A_o psi, d its diagonal; that bound
    is taken off.  psi is the smallest eigenvector of A_o from
    `smallest_eigenpairs` on a holder of A_o of its own order (one Cholesky
    of order n//2); it need not be exact, only strictly positive.
    """
    if np.any(np.diff(op.column[1:]) < 0.0):
        return None
    block = op.odd_block
    m = len(block)
    psi = smallest_eigenpairs(LinearizedOperator(block, m)).vector
    if not psi.min() > 0.0:
        return None
    d = np.diagonal(block)
    product = matvec(block, psi)
    gamma_m = m * np.finfo(float).eps / (1.0 - m * np.finfo(float).eps)
    return (product - gamma_m * ((np.abs(d) + d) * psi - product)) / psi


def odd_floor(op: NonlocalOperator, potential: np.ndarray) -> float:
    """A lower bound on lambda_min(J_o) for J = A + diag(potential) with an even potential; -inf when the premise fails.

    It is min_i (c_i + p_i) over the first n//2 nodes, c from
    `_odd_collatz_wielandt`, computed once per operator and cached in
    op._cache as phi_1 is: O(n) per call after the first.
    """
    if "odd_floor" not in op._cache:
        op._cache["odd_floor"] = _odd_collatz_wielandt(op)
    c = op._cache["odd_floor"]
    return -np.inf if c is None else float(np.min(c + potential[: len(c)]))


def _sigma_min(solve, f: np.ndarray, rtol: float) -> float:
    """1 / sigma_max(I + M^-1 F) for symmetric M, F = diag(f), through solve = x -> M^-1 x; 0.0 when solve is None.

    Lanczos runs on (I + F M^-1)(I + M^-1 F) = (M^-1 P)^T (M^-1 P), P = M +
    F, two solves per step, to a Ritz residual of rtol/100; the Ritz pair
    (theta, x) is then checked, |B x - theta x| <= rtol theta, so sigma_max^2
    is within rtol theta of an eigenvalue.
    """
    if solve is None:
        return 0.0

    def normal(v):
        z = v + solve(f * v)
        return z + f * solve(z)

    theta, x = _lanczos_largest(normal, len(f), 0.01 * rtol)
    res = float(np.linalg.norm(normal(x) - theta * x))
    if res > rtol * theta:
        raise ConvergenceError(f"monitor Ritz residual {res:.3e} exceeds {rtol:.0e} relative", residual=res)
    return float(1.0 / np.sqrt(theta))


def fredholm_sigma(lin: LinearizedOperator, op: NonlocalOperator, f, potential, rtol: float) -> float:
    """sigma_min(I - P^-1 F) for the J = P - F = A + diag(potential) that lin holds, F = diag(f); 0 for a singular J.

    I - P^-1 F = P^-1 J, so sigma_min = 1 / sigma_max(I + J^-1 F)
    (`_sigma_min`).  At an even field J, P and F split on Q and Q_o, and
    sigma_min = min(sigma_e, sigma_o), each read on its own block: sigma_e
    through J_e's `block_solve`, the factor lambda1 uses, with F_e =
    diag(f[:ceil(n/2)]).  J_o is built and factored (`odd_solve`) only when
    a floor on sigma_o does not rule it out: for l = `odd_floor` > 0, J_o >=
    l I, so |J_o^-1 F_o| <= max|f_o| / l and sigma_o >= 1 / (1 + max|f_o| /
    l); once that is at least (1 + FLOOR_MARGIN) sigma_e, the minimum is
    sigma_e.  Where it is not, or the floor's premise fails, sigma_o is read
    like sigma_e, and a singular J_o gives 0.0.  Without an odd block (an
    asymmetric field) matrix is J itself and sigma_e is sigma_min.
    """
    k = len(lin.matrix)
    sigma = _sigma_min(lin.block_solve, f[:k], rtol)
    if lin.odd_solve is None:
        return sigma
    f_odd = f[: lin.n - k]
    floor = odd_floor(op, potential)
    if floor > 0.0 and 1.0 / (1.0 + np.abs(f_odd).max() / floor) >= (1.0 + FLOOR_MARGIN) * sigma:
        return sigma
    return min(sigma, _sigma_min(lin.odd_solve(), f_odd, rtol))
