import gc
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh, toeplitz
from scipy.special import gamma

from fracfold import (
    AssemblyError,
    ConvergenceError,
    GridError,
    ProblemSpec,
    assemble_operator,
    build_grid,
    solve_dirichlet,
    solve_pure_singular,
)
import fracfold.operator as op_mod
from fracfold.operator import (
    Basis,
    LinearizedOperator,
    _block,
    _row_sums,
    _lanczos_largest,
    fold,
    is_even,
    lu_solver,
    matvec,
    normalization_constant,
    principal_eigenpair,
    smallest_eigenpairs,
    spd_solver,
    unfold,
)
from fracfold.config import RunConfig
from fracfold.io import dump_triplets
from fracfold.continuation import FoldPolicy, TracePolicy, fold_round, trace_minimal
from fracfold.singular import Equation


def test_grid_partition_arithmetic():
    g = build_grid(1.0, 511)
    assert g.h == pytest.approx(2.0 / 512, abs=0)
    assert g.h * (g.n + 1) == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_symmetry_and_extremes():
    g = build_grid(2.0, 15)
    assert np.array_equal(g.nodes, -g.nodes[::-1])  # bit for bit
    assert g.nodes[0] == pytest.approx(-2.0 + g.h)
    assert abs(g.nodes).max() < 2.0


def test_grid_rejections():
    for n in (3, 7):
        with pytest.raises(GridError):
            build_grid(1.0, n)
    with pytest.raises(GridError):
        build_grid(0.0, 64)
    with pytest.raises(GridError):
        build_grid(np.inf, 64)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_operator_structure(s):
    op = assemble_operator(build_grid(1.0, 128), s)
    mat = op.dense()
    scale = np.abs(mat).max()
    assert np.abs(mat - mat.T).max() <= 1e-12 * scale
    off = mat - np.diag(np.diag(mat))
    assert off.max() <= 1e-12 * scale
    assert np.diag(mat).min() > 0.0
    assert mat.sum(axis=1).min() > 0.0


def test_operator_rejects_bad_order():
    g = build_grid(1.0, 32)
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(GridError):
            assemble_operator(g, s)


def test_constant_field_sees_only_the_tail(op128_s05):
    c = 1.7
    mat = op128_s05.dense()
    out = mat @ np.full(128, c)
    assert np.all(out > 0.0)
    assert np.allclose(out, c * mat.sum(axis=1), rtol=1e-13)


def test_apply_linearity_and_shapes(op128_s05, rng):
    n, mat = op128_s05.n, op128_s05.dense()
    assert np.all(mat @ np.zeros(n) == 0.0)
    u, v = rng.normal(size=n), rng.normal(size=n)
    lhs = mat @ (u + v)
    rhs = mat @ u + mat @ v
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())
    with pytest.raises(ValueError):
        solve_dirichlet(op128_s05, np.ones(n + 1))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_closed_form_constant_against_quadrature():
    # adaptive quadrature of the defining symmetrized integral at three points
    for s in (0.25, 0.5, 0.75):
        exact = gamma(2.0 * s + 1.0)

        def u(y):
            yy = np.asarray(y, dtype=float)
            return np.where(np.abs(yy) < 1.0, np.clip(1.0 - yy * yy, 0.0, None) ** s, 0.0)

        for x0 in (0.0, 0.3, -0.45):
            def integrand(z):
                return (2.0 * u(x0) - u(x0 + z) - u(x0 - z)) / z ** (1.0 + 2.0 * s)

            total = 0.0
            for a, b in ((1e-12, 1 - abs(x0)), (1 - abs(x0), 1 + abs(x0)), (1 + abs(x0), 50.0)):
                val, _ = quad(integrand, a, b, limit=400)
                total += val
            total += 2.0 * float(u(x0)) * 50.0 ** (-2 * s) / (2 * s)
            measured = 2.0 * normalization_constant(s) * total
            assert measured == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("s,const", [(0.5, 1.0), (0.25, gamma(1.5))])
def test_apply_on_closed_form_samples(s, const):
    g = build_grid(1.0, 1024)
    op = assemble_operator(g, s)
    out = op.dense() @ (1.0 - g.nodes ** 2) ** s
    inner = np.abs(g.nodes) <= 0.5
    assert np.abs(out[inner] - const).max() / const <= 1e-2


def test_solve_zero_and_roundtrip(op128_s05, rng):
    assert np.all(solve_dirichlet(op128_s05, np.zeros(128)) == 0.0)
    v = rng.normal(size=128)
    rec = solve_dirichlet(op128_s05, op128_s05.dense() @ v)
    assert np.abs(rec - v).max() <= 1e-10 * np.abs(v).max()
    with pytest.raises(ValueError):
        solve_dirichlet(op128_s05, np.full(128, np.nan))


def test_solve_positivity(op128_s05, rng):
    rhs = np.clip(rng.normal(size=128), 0.0, None)
    rhs[rhs.argmax()] += 1.0
    assert solve_dirichlet(op128_s05, rhs).min() > 0.0


def test_solve_matches_closed_form():
    s = 0.5
    g = build_grid(1.0, 1024)
    op = assemble_operator(g, s)
    w = solve_dirichlet(op, np.ones(1024))
    exact = (1.0 - g.nodes ** 2) ** 0.5
    assert np.abs(w - exact).max() / np.abs(exact).max() <= 2e-2


def test_eigen_principal_pair(op128_s05):
    pair = principal_eigenpair(op128_s05)
    assert pair.vector.min() > 0.0
    assert np.abs(pair.vector).max() == pytest.approx(1.0)
    assert pair.residual <= 1e-8
    out = op128_s05.dense() @ pair.vector
    assert np.abs(out - pair.value * pair.vector).max() <= 1e-7


def test_eigen_against_dense_oracle(op256_s04):
    mat = op256_s04.dense()
    val = eigh(mat, eigvals_only=True)[0]
    pair = smallest_eigenpairs(LinearizedOperator(mat, op256_s04.n))
    assert pair.value == pytest.approx(val, abs=1e-10 * max(1.0, abs(val)))


def test_eigen_grid_self_convergence():
    vals = {}
    for n in (512, 1024):
        op = assemble_operator(build_grid(1.0, n), 0.5)
        vals[n] = principal_eigenpair(op).value
    assert abs(vals[512] - vals[1024]) / vals[1024] <= 0.01


def _second_difference(n):
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def test_lanczos_finds_an_antisymmetric_top_mode():
    # tridiag(-1, 2, -1) of even order is reflection-symmetric and its top
    # eigenvector sin(n pi i / (n+1)) is antisymmetric: a Krylov space built
    # from a reflection-symmetric start never contains it
    n = 10
    mat = _second_difference(n)
    val, vec = _lanczos_largest(lambda x: mat @ x, n, 1e-12)
    assert val == pytest.approx(2.0 + 2.0 * np.cos(np.pi / (n + 1)), rel=1e-12)
    assert np.abs(vec + vec[::-1]).max() <= 1e-8
    assert np.linalg.norm(mat @ vec - val * vec) <= 1e-10


def test_lanczos_breakdown_and_step_cap(monkeypatch):
    # a start vector that is an eigenvector breaks down after one step with the exact pair
    val, vec = _lanczos_largest(lambda x: 3.0 * x, 12, 1e-12)
    assert val == pytest.approx(3.0, rel=1e-15)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    monkeypatch.setattr(op_mod, "LANCZOS_STEPS", 3)
    mat = _second_difference(40)
    with pytest.raises(ConvergenceError):
        _lanczos_largest(lambda x: mat @ x, 40, 1e-12)


def _lanczos_reference(apply, n, rtol):
    """The Lanczos run on a list of basis vectors, stacked by np.array at every step, and scipy's eigh_tridiagonal."""
    from scipy.linalg import eigh_tridiagonal

    q = np.linspace(1.0, 2.0, n)
    basis, alpha, beta = [q / np.linalg.norm(q)], [], []
    for _ in range(min(op_mod.LANCZOS_STEPS, n)):
        w = apply(basis[-1])
        alpha.append(float(basis[-1] @ w))
        qs = np.array(basis)
        w = w - matvec(qs.T, matvec(qs, w))
        w -= matvec(qs.T, matvec(qs, w))
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta))
        if b * abs(s[-1, -1]) <= rtol * abs(theta[-1]):
            return float(theta[-1]), matvec(qs.T, s[:, -1])
        beta.append(b)
        basis.append(w / b)
    raise AssertionError("no converged pair")


def test_lanczos_keeps_the_bits_of_the_list_basis(op256_s04):
    # the preallocated basis and the direct stevd call change no bit of the
    # run: A_e^-1 on the even block and a one-step breakdown alike
    solve = op256_s04.lin.block_solve
    k = len(op256_s04.even_block)
    for apply, n in ((solve, k), (lambda x: 3.0 * x, 12)):
        val, vec = _lanczos_largest(apply, n, 1e-10)
        ref_val, ref_vec = _lanczos_reference(apply, n, 1e-10)
        assert val == ref_val
        assert np.array_equal(vec.view(np.uint64), ref_vec.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lu_solver_keeps_the_bits_of_scipy_lu_solve(rng, dtype):
    # the direct getrs call solves as scipy's lu_solve does, bit for bit; a
    # float32 factor (a single-precision Newton Jacobian) solves in float64
    from scipy.linalg import lu_factor, lu_solve

    k = 129
    mat = (rng.standard_normal((k, k)) + k * np.eye(k)).astype(dtype)
    x = rng.standard_normal(k)
    y = lu_solver(mat.T)(x)
    expected = lu_solve(lu_factor(mat.T), x)
    assert y.dtype == expected.dtype == np.float64
    assert np.array_equal(y.view(np.uint64), expected.view(np.uint64))


def _green_column(op, j):
    """Discrete Green function x -> G(x, x_j): column j of the inverse scaled by 1/h."""
    return solve_dirichlet(op, np.eye(op.n)[j]) / op.grid.h


def test_green_column_positivity_symmetry(op128_s05):
    gi = _green_column(op128_s05, 20)
    gj = _green_column(op128_s05, 90)
    assert gi.min() > 0.0
    assert gi[90] == pytest.approx(gj[20], rel=1e-10)


def _green_bound_constant(op):
    g = op.grid
    d = g.distance()
    idx = np.arange(g.n)
    best = 0.0
    for j in range(0, g.n, max(1, g.n // 48)):
        col = _green_column(op, j)
        mask = idx != j
        gap = np.abs(g.nodes[mask] - g.nodes[j])
        bound = np.minimum(d[mask] ** op.s * d[j] ** op.s, gap ** op.s * d[mask] ** op.s) / gap
        best = max(best, float((col[mask] / bound).max()))
    return best


@pytest.mark.parametrize("s", [0.4, 0.75])
def test_green_kernel_bound_stable_under_refinement(s):
    consts = [
        _green_bound_constant(assemble_operator(build_grid(1.0, n), s)) for n in (128, 256, 512)
    ]
    assert all(np.isfinite(consts))
    assert max(consts) / min(consts) <= 1.05


def test_discrete_comparison_random_pairs(op128_s05, rng):
    for _ in range(100):
        low = rng.uniform(0.0, 1.0, size=128)
        high = low + rng.uniform(0.0, 1.0, size=128)
        diff = solve_dirichlet(op128_s05, high) - solve_dirichlet(op128_s05, low)
        assert diff.min() >= -1e-12 * max(1.0, diff.max())


def test_triplet_dump_roundtrip(tmp_path, op128_s05):
    # one `i j value` line per entry, floats by repr, written atomically into
    # a directory it creates, with no temp file left beside it
    path = tmp_path / "nested" / "mat.txt"
    dump_triplets(op128_s05, path)
    mat = op128_s05.dense()
    assert path.read_text() == "".join(f"{i} {j} {float(mat[i, j])!r}\n" for i in range(128) for j in range(128))
    assert [p.name for p in path.parent.iterdir()] == ["mat.txt"]
    rows = np.loadtxt(path)
    assert rows.shape == (128 * 128, 3)
    rebuilt = rows[:, 2].reshape(128, 128)
    assert np.array_equal(rebuilt, mat)


def _sign_pattern(mat, ones=None):
    """Positive diagonal, nonpositive off-diagonals and positive row sums: the M-matrix pattern.

    For a block Q^T A Q pass ones = Q^T 1, the folded n-node ones: its row
    sums are then Q^T of A's, as Q Q^T 1 = 1.
    """
    off = mat - np.diag(np.diag(mat))
    sums = mat.sum(axis=1) if ones is None else mat @ ones
    return np.diag(mat).min() > 0.0 and off.max() <= 0.0 and sums.min() > 0.0


def _dense_q(n, odd=False):
    """Q (Q_o with odd=True) written out: columns (e_j +- e_{n-1-j}) / sqrt(2), and e_h at an odd n's centre in Q."""
    m, r = n // 2, np.sqrt(0.5)
    q = np.zeros((n, m if odd else n - m))
    for i in range(m):
        q[i, i], q[n - 1 - i, i] = r, (-r if odd else r)
    if n % 2 and not odd:
        q[m, m] = 1.0
    return q


def _assert_blocks_are_folds_of(op):
    """Both blocks of A equal Q^T A Q (Q_o^T A Q_o) to rounding and are symmetric bit for bit.

    The bound is the componentwise one of a product, 1e-14 (|Q|^T |A| |Q|):
    an odd block's entry a - b cancels where a_ij and a_i,n-1-j are close.
    """
    mat = op.dense()
    for odd, block in ((False, op.even_block), (True, op.odd_block)):
        q = _dense_q(op.n, odd)
        assert np.all(np.abs(block - q.T @ mat @ q) <= 1e-14 * (np.abs(q.T) @ np.abs(mat) @ np.abs(q)))
        assert np.array_equal(block, block.T)


@pytest.mark.parametrize("n", [8, 9, 255, 1024])
def test_fold_and_unfold_are_Q_transpose_and_Q(n, rng):
    # against Q and Q_o written out as matrices: the centre node of an odd n
    # is one column of Q and no column of Q_o.  Q's entries are irrational,
    # so a fold (two terms per row) meets the dense product to rounding; an
    # unfold (one term per row) meets it bit for bit
    x = rng.normal(size=n)
    for odd in (False, True):
        q = _dense_q(n, odd)
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 2.0 * np.finfo(float).eps
        assert np.abs(fold(x, odd) - q.T @ x).max() <= 1e-14 * np.abs(x).max()
        y = rng.normal(size=q.shape[1])
        assert np.array_equal(unfold(y, n, odd), q @ y)
    assert is_even(unfold(y, n)) and not is_even(x)
    _assert_blocks_are_folds_of(assemble_operator(build_grid(1.0, n), 0.4))


@pytest.mark.parametrize("s", [0.1, 0.9])
@pytest.mark.parametrize("n", [8, 9, 255, 256, 1025])
def test_dense_and_blocks_have_the_bits_of_the_dense_construction(n, s):
    # dense() is toeplitz(column) with wall added to its diagonal, and each
    # block is the sum a_ij +- a_i,n-1-j of A's entries (the centre row and
    # column of an odd n scaled by 1/sqrt(2), the corner a_hh), bit for bit
    op = assemble_operator(build_grid(1.0, n), s)
    mat = toeplitz(op.column)
    mat[np.diag_indices(n)] += op.wall
    assert np.array_equal(op.dense(), mat)
    assert np.array_equal(op.diagonal, np.diagonal(mat))
    h = n // 2
    for odd, block in ((False, op.even_block), (True, op.odd_block)):
        k = h if odd else n - h
        mirror = mat[:k, ::-1][:, :k]
        folded = mat[:k, :k] - mirror if odd else mat[:k, :k] + mirror
        if k > h:
            folded[h, :h] *= np.sqrt(0.5)
            folded[:h, h] *= np.sqrt(0.5)
            folded[h, h] = mat[h, h]
        assert np.array_equal(block, folded)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.05, 0.95),
    n=st.integers(8, 300),
    half_width=st.sampled_from([0.7, 1.0, 3.0]),
    seed=st.integers(0, 2 ** 16),
)
@example(s=0.95, n=255, half_width=0.7, seed=0)
@example(s=0.05, n=8, half_width=3.0, seed=1)
@example(s=0.5, n=9, half_width=1.0, seed=2)
def test_operator_reflection_split(s, n, half_width, seed):
    # A = RAR bit for bit, A and its even block Q^T A Q are M-matrices, and
    # the solves that the even/odd split gives match a solve with A itself
    op = assemble_operator(build_grid(half_width, n), s)
    mat = op.dense()
    assert np.array_equal(mat, mat[::-1, ::-1])
    assert np.array_equal(op.even_block, op.even_block.T) and np.array_equal(op.odd_block, op.odd_block.T)
    assert _sign_pattern(mat) and _sign_pattern(op.even_block, fold(np.ones(n)))
    rng = np.random.default_rng(seed)
    full = spd_solver(mat)
    even = spd_solver(op.even_block, n)
    split = op.lin.solve
    x = rng.normal(size=n)
    even_rhs = x + x[::-1]
    for solve, rhs in ((Basis(n, True).lift(even), even_rhs), (split, even_rhs), (split, x)):
        expected = full(rhs)
        assert np.abs(solve(rhs) - expected).max() <= 1e-12 * np.abs(expected).max()
    assert is_even(Basis(n, True).lift(even)(even_rhs))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_split_solve_meets_a_singular_odd_block_only_when_it_solves_with_it():
    # the odd block is built on the first right-hand side with an odd part;
    # an exactly singular one is then a ConvergenceError, not a solve
    n, built = 9, []

    def odd():
        built.append(1)
        return np.zeros((n // 2, n // 2))

    split = LinearizedOperator(np.eye((n + 1) // 2), n, odd).solve
    x = np.arange(n, dtype=float)
    even = x + x[::-1]
    assert np.array_equal(split(even), unfold(fold(even), n)) and built == []
    with pytest.raises(ConvergenceError, match="odd block"):
        split(x)
    assert built == [1]


@pytest.mark.parametrize("n", [15, 255, 511, 1023, 1024])
def test_principal_pair_from_the_even_block(n):
    # phi_1 of A from Q^T A Q agrees with the pair of A itself, and is even bit for bit
    op = assemble_operator(build_grid(1.0, n), 0.4)
    mat = op.dense()
    block, full = principal_eigenpair(op), smallest_eigenpairs(LinearizedOperator(mat, n))
    assert block.value == pytest.approx(full.value, rel=1e-12)
    assert np.abs(block.vector - full.vector).max() <= 1e-8
    assert is_even(block.vector) and block.vector.shape == (n,)
    assert np.abs(mat @ block.vector - block.value * block.vector).max() <= 1e-8


def test_operator_is_freed_by_reference_counting():
    # A's solve holder keeps A's column and wall, not the operator: with the
    # cyclic collector off, a solve through both blocks and phi_1 leave no
    # cycle that keeps an operator (and its blocks and factors) alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        op = assemble_operator(build_grid(1.0, 64), 0.4)
        ref = weakref.ref(op)
        solve_dirichlet(op, np.linspace(0.0, 1.0, 64))  # not even: the odd block is built and factored
        principal_eigenpair(op)
        del op
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (5, 7), (64, 64)])
def test_matvec_takes_either_memory_order(shape):
    # a C-ordered matrix, its F-ordered transpose and an F-ordered copy give mat @ x
    rng = np.random.default_rng(7)
    mat = rng.standard_normal(shape)
    x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
    for m, v in ((mat, x), (mat.T, y), (np.asfortranarray(mat), x)):
        assert np.allclose(matvec(m, v), m @ v, rtol=1e-13, atol=1e-13)


# Threads that appear while numpy is imported are its OpenBLAS pool; those that
# appear with scipy.linalg are scipy's.  The script prints the CPU seconds that
# numpy's threads spent, after the imports, on assembly, a pure singular solve,
# and lambda1 and the monitor at one minimal point, or "skip" when there are
# not two pools to tell apart.
POOL_SCRIPT = """
import os, sys, time

def tasks():
    return set(os.listdir("/proc/self/task"))

def cpu_seconds(tid):
    with open(f"/proc/self/task/{tid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

before = tasks()
import numpy as np
numpy_pool = tasks() - before
import scipy.linalg
scipy_pool = tasks() - before - numpy_pool
if not numpy_pool or not scipy_pool:
    print("skip")
    sys.exit(0)

from fracfold import (ProblemSpec, assemble_operator, build_grid, fredholm_monitor, lambda1, no_nonlinearity,
                      power_nonlinearity, solve_min, solve_pure_singular)

def pool_seconds():
    return sum(cpu_seconds(t) for t in numpy_pool)

spent = pool_seconds()
for _ in range(40):  # OpenBLAS workers busy-wait a while after start-up before they sleep
    time.sleep(0.05)
    if pool_seconds() == spent:
        break
    spent = pool_seconds()
op = assemble_operator(build_grid(1.0, 1024), 0.4)
solve_pure_singular(ProblemSpec(s=0.4, delta=3.0, nonlinearity=no_nonlinearity()), op)
spec = ProblemSpec(s=0.4, delta=0.5, nonlinearity=power_nonlinearity(2.0))
field = solve_min(0.3, spec, op)
lambda1(0.3, field, op, spec)
fredholm_monitor(0.3, field, op, spec)
print(pool_seconds() - spent)
"""


def test_solves_leave_numpys_thread_pool_idle():
    # every dense kernel of a solve runs in scipy's BLAS, so numpy's own
    # OpenBLAS pool, if it has one, stays asleep
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to read thread CPU times from")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", POOL_SCRIPT], env=env, capture_output=True, text=True, check=True)
    if out.stdout.strip() == "skip":
        pytest.skip("numpy has no OpenBLAS thread pool of its own here")
    assert float(out.stdout) <= 0.02


def _planted_diagonal(monkeypatch, change):
    """Patch the wall correction so that change(wall, column) rewrites the wall diagonal it returns."""
    original = op_mod._wall_correction

    def planted(grid, s, column):
        wall = original(grid, s, column)
        change(wall, column)
        return wall

    monkeypatch.setattr(op_mod, "_wall_correction", planted)


def _set_wall_pair(wall, value):
    """Give both wall nodes the same correction, so that the diagonal stays mirrored."""
    wall[0] = wall[-1] = value


def test_assembly_rejects_a_negative_weight(monkeypatch):
    # one negative kernel weight puts a positive value on the two off-diagonals at its offset
    original = op_mod._hat_weights

    def planted(n, h, sigma):
        w = original(n, h, sigma)
        w[5] = -w[5]
        return w

    monkeypatch.setattr(op_mod, "_hat_weights", planted)
    with pytest.raises(AssemblyError, match="M-matrix sign pattern"):
        assemble_operator(build_grid(1.0, 64), 0.4)


def test_assembly_rejects_an_unmirrored_wall_correction(monkeypatch):
    # a larger diagonal at the left wall alone keeps A symmetric and an M-matrix, but not A = RAR
    def change(wall, column):
        wall[0] += 0.01 * (column[0] + wall[0])

    _planted_diagonal(monkeypatch, change)
    with pytest.raises(AssemblyError, match="reflection of the grid"):
        assemble_operator(build_grid(1.0, 64), 0.4)


def test_assembly_rejects_a_nonpositive_diagonal(monkeypatch):
    # a zero diagonal at both walls keeps A symmetric and A = RAR
    _planted_diagonal(monkeypatch, lambda wall, column: _set_wall_pair(wall, -column[0]))
    with pytest.raises(AssemblyError, match="M-matrix sign pattern"):
        assemble_operator(build_grid(1.0, 64), 0.4)


def test_assembly_rejects_a_nonpositive_row_sum(monkeypatch):
    # the wall rows' diagonal stays positive but at half their off-diagonal mass
    def change(wall, column):
        _set_wall_pair(wall, -0.5 * column[1:].sum() - column[0])

    _planted_diagonal(monkeypatch, change)
    with pytest.raises(AssemblyError, match="nonpositive row sum"):
        assemble_operator(build_grid(1.0, 64), 0.4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_assembly_rejects_a_non_finite_wall_diagonal(monkeypatch, bad):
    # a non-finite value at both walls keeps the wall diagonal mirrored; it
    # is named as such, not as an asymmetry through NaN != NaN
    _planted_diagonal(monkeypatch, lambda wall, column: _set_wall_pair(wall, bad))
    with pytest.raises(AssemblyError, match="not finite"):
        assemble_operator(build_grid(1.0, 64), 0.4)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.01, 0.99), n=st.integers(8, 400), half_width=st.floats(0.25, 4.0))
@example(s=0.01, n=8, half_width=0.25)
@example(s=0.02, n=9, half_width=4.0)
@example(s=0.98, n=400, half_width=0.25)
@example(s=0.99, n=399, half_width=4.0)
def test_assembly_structure_across_parameters(s, n, half_width):
    # the dense oracle of every property the assembly check derives from the
    # construction, and both blocks against Q^T A Q, symmetric bit for bit
    op = assemble_operator(build_grid(half_width, n), s)
    mat = op.dense()
    assert np.array_equal(mat, mat.T) and np.array_equal(mat, mat[::-1, ::-1])
    assert _sign_pattern(mat)
    _assert_blocks_are_folds_of(op)


def test_assembled_operator_keeps_no_n_by_n_array():
    # the operator keeps its column and wall diagonal, O(n) bytes, once
    # assembly has dropped the one n x n product of its wall correction;
    # each block is the one array of its order that its builder allocates
    n = 1024
    grid = build_grid(1.0, n)
    assemble_operator(grid, 0.4)  # the first call's one-off allocations (special functions, caches)
    tracemalloc.start()
    try:
        op = assemble_operator(grid, 0.4)
        assert tracemalloc.get_traced_memory()[0] <= 8 * 8 * n
        for build in (lambda: op.even_block, lambda: op.odd_block):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            block = build()
            assert tracemalloc.get_traced_memory()[1] - base <= 1.1 * block.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [8, 9, 255, 1025, 4096])
def test_row_sums_from_prefix_sums_match_the_dense_ones(n, s):
    # the assembly check's O(n) row sums, (column_0 + wall_i) + S_i +
    # S_(n-1-i), against a sum over each row of A: they agree to rounding
    # relative to the row's absolute mass, not bit for bit (another order of
    # summation), and the smallest row sum is positive either way
    op = assemble_operator(build_grid(1.0, n), s)
    sums = _row_sums(op.column, op.wall)
    mat = op.dense()
    assert np.all(np.abs(sums - mat.sum(axis=1)) <= 1e-13 * np.abs(mat).sum(axis=1))
    assert sums.min() > 0.0 and mat.sum(axis=1).min() > 0.0


def _factor_calls(monkeypatch):
    """[kernel, matrix argument, overwrite_a, factor (None when it failed)] of every factorization in `operator`."""
    calls = []
    for name in ("cho_factor", "lu_factor"):
        original = getattr(op_mod, name)

        def recorded(mat, *args, _original=original, _name=name, **kwargs):
            calls.append([_name, mat, kwargs.get("overwrite_a", False), None])
            result = _original(mat, *args, **kwargs)
            calls[-1][3] = result[0]
            return result

        monkeypatch.setattr(op_mod, name, recorded)
    return calls


def test_every_factored_matrix_is_column_major(monkeypatch):
    # LAPACK gets every matrix in column-major order, so f2py makes no
    # transposing copy: a scratch matrix is factored in place, a kept one on
    # a copy; the branch, its rounding and every point's lambda1 and monitor
    # meet both kernels, the bordered LU among them
    spec = RunConfig().problem_spec()
    op = assemble_operator(build_grid(1.0, 128), spec.s)
    calls = _factor_calls(monkeypatch)
    branch = fold_round(trace_minimal(spec, op, TracePolicy()), op, spec, FoldPolicy(steps=2))
    for p in branch.points:
        assert np.isfinite(p.monitor)
    assert {kernel for kernel, *_ in calls} == {"cho_factor", "lu_factor"}
    assert 65 in {len(mat) for kernel, mat, *_ in calls if kernel == "lu_factor"}  # the bordered matrix
    assert all(mat.flags.f_contiguous for _, mat, _, _ in calls)
    for _, mat, overwrite, factor in calls:
        assert factor is None or np.shares_memory(factor, mat) is overwrite


def test_newton_factors_its_jacobian_in_place(monkeypatch):
    # each Newton Cholesky overwrites the fresh Jacobian; the one of A's
    # cached even block (for phi_1) works on a copy and leaves the block
    op = assemble_operator(build_grid(1.0, 256), 0.4)
    jacobians = []
    original = Equation.jacobian

    def recording(self, u, *args, **kwargs):
        jacobians.append(original(self, u, *args, **kwargs))
        return jacobians[-1]

    monkeypatch.setattr(Equation, "jacobian", recording)
    calls = _factor_calls(monkeypatch)
    solve_pure_singular(ProblemSpec(s=0.4, delta=0.5), op)
    assert all(mat.flags.f_contiguous for _, mat, _, _ in calls)
    newton = [(mat, factor) for _, mat, _, factor in calls if any(np.shares_memory(mat, j) for j in jacobians)]
    assert len(newton) == len(jacobians) >= 2
    assert all(np.shares_memory(factor, mat) for mat, factor in newton)
    (kept,) = [factor for _, mat, _, factor in calls if np.shares_memory(mat, op.even_block)]
    assert not np.shares_memory(kept, op.even_block)
    assert np.array_equal(op.even_block, _block(op.column, op.wall))


def test_lu_solver_solves_a_nonsymmetric_matrix_in_either_order(rng):
    # a C-ordered matrix is factored from f2py's copy and left as it was; its
    # F-ordered copy is factored in place, to the same bits
    k = 50
    mat = rng.standard_normal((k, k)) + k * np.eye(k)
    assert mat.flags.c_contiguous and not np.array_equal(mat, mat.T)
    before = mat.copy()
    x = rng.standard_normal(k)
    y = lu_solver(mat)(x)
    assert np.array_equal(mat, before)
    assert np.abs(mat @ y - x).max() <= 1e-12 * np.abs(x).max()
    col = np.asfortranarray(mat)
    assert np.array_equal(lu_solver(col, overwrite=True)(x), y)
    assert not np.array_equal(col, before)


def test_a_failed_cholesky_leaves_its_matrix_to_the_lu():
    # symmetric, positive on the sine probe, indefinite at its last pivot:
    # the Cholesky of a kept matrix fails on a copy, so the LU after it
    # factors the matrix itself, as the holder's block solve and as the odd
    # block of a split solve
    k = 40
    mat = np.diag(np.r_[np.full(k - 1, 2.0), -1.0]) - 0.5 * (np.eye(k, k=1) + np.eye(k, k=-1))
    before = mat.copy()
    lin = LinearizedOperator(mat, k)
    assert lin.cholesky is None and np.array_equal(mat, before)
    x = np.linspace(1.0, 2.0, k)
    assert np.abs(mat @ lin.block_solve(x) - x).max() <= 1e-12
    n = 2 * k
    solve = LinearizedOperator(np.eye(k), n, lambda: mat).solve
    z = fold(solve(unfold(x, n, odd=True)), odd=True)
    assert np.abs(mat @ z - x).max() <= 1e-12
    assert np.array_equal(mat, before)


@pytest.mark.parametrize("n", [255, 256])
def test_block_probe_gives_the_full_matrix_quotient(monkeypatch, n):
    # spd_solver probes a block with Q^T of the n-node sine profile, so a J
    # whose sine quotient is negative is rejected from its even block with no
    # factorization, at an odd n too, where the centre is a column of Q alone
    op = assemble_operator(build_grid(1.0, n), 0.4)
    sine = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    c = (1.0 + 1e-6) * (sine @ op.dense() @ sine) / (sine @ sine)
    calls = _factor_calls(monkeypatch)
    assert spd_solver(op.even_block - c * np.eye(len(op.even_block)), n) is None
    assert calls == []
