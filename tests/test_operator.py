import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.special import gamma

from fracfold import (
    ConvergenceError,
    GridError,
    assemble_operator,
    build_grid,
    solve_dirichlet,
)
import fracfold.operator as op_mod
from fracfold.operator import (
    Basis,
    _lanczos_largest,
    dump_triplets,
    fold,
    is_even,
    matvec,
    normalization_constant,
    principal_eigenpair,
    smallest_eigenpairs,
    spd_solver,
    split_solver,
    unfold,
)


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
    mat = op.matrix
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
    out = op128_s05.matrix @ np.full(128, c)
    assert np.all(out > 0.0)
    assert np.allclose(out, c * op128_s05.matrix.sum(axis=1), rtol=1e-13)


def test_apply_linearity_and_shapes(op128_s05, rng):
    n, mat = op128_s05.n, op128_s05.matrix
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
    out = op.matrix @ (1.0 - g.nodes ** 2) ** s
    inner = np.abs(g.nodes) <= 0.5
    assert np.abs(out[inner] - const).max() / const <= 1e-2


def test_solve_zero_and_roundtrip(op128_s05, rng):
    assert np.all(solve_dirichlet(op128_s05, np.zeros(128)) == 0.0)
    v = rng.normal(size=128)
    rec = solve_dirichlet(op128_s05, op128_s05.matrix @ v)
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
    out = op128_s05.matrix @ pair.vector
    assert np.abs(out - pair.value * pair.vector).max() <= 1e-7


def test_eigen_against_dense_oracle(op256_s04):
    val = eigh(op256_s04.matrix, eigvals_only=True)[0]
    pair = smallest_eigenpairs(op256_s04.matrix)
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
    path = tmp_path / "mat.txt"
    dump_triplets(op128_s05, path)
    rows = np.loadtxt(path)
    assert rows.shape == (128 * 128, 3)
    rebuilt = rows[:, 2].reshape(128, 128)
    assert np.array_equal(rebuilt, op128_s05.matrix)


def _sign_pattern(mat):
    """Positive diagonal, nonpositive off-diagonals and positive row sums: the M-matrix pattern."""
    off = mat - np.diag(np.diag(mat))
    return np.diag(mat).min() > 0.0 and off.max() <= 0.0 and mat.sum(axis=1).min() > 0.0


@pytest.mark.parametrize("n", [8, 9, 255, 1024])
def test_fold_and_unfold_are_E_transpose_and_E(n, rng):
    # against E and E_o written out as matrices: the centre node of an odd n
    # is one column of E and no column of E_o
    k, m = (n + 1) // 2, n // 2
    e, e_odd = np.zeros((n, k)), np.zeros((n, m))
    for i in range(m):
        e[i, i] = e[n - 1 - i, i] = 1.0
        e_odd[i, i], e_odd[n - 1 - i, i] = 1.0, -1.0
    if n % 2:
        e[m, m] = 1.0
    x = rng.normal(size=n)
    assert np.array_equal(fold(x), e.T @ x) and np.array_equal(fold(x, odd=True), e_odd.T @ x)
    y, z = rng.normal(size=k), rng.normal(size=m)
    assert np.array_equal(unfold(y, n), e @ y) and np.array_equal(unfold(z, n, odd=True), e_odd @ z)
    assert is_even(unfold(y, n)) and not is_even(x)
    op = assemble_operator(build_grid(1.0, n), 0.4)
    assert np.allclose(op.even_block, e.T @ op.matrix @ e, rtol=1e-14, atol=0.0)
    assert np.allclose(op.odd_block, e_odd.T @ op.matrix @ e_odd, rtol=1e-14, atol=0.0)


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
    # A = RAR bit for bit, A and its even block E^T A E are M-matrices, and
    # the solves that the even/odd split gives match a solve with A itself
    op = assemble_operator(build_grid(half_width, n), s)
    mat = op.matrix
    assert np.array_equal(mat, mat[::-1, ::-1])
    assert np.array_equal(op.even_block, op.even_block.T) and np.array_equal(op.odd_block, op.odd_block.T)
    assert _sign_pattern(mat) and _sign_pattern(op.even_block)
    rng = np.random.default_rng(seed)
    full = spd_solver(mat)
    even = spd_solver(op.even_block, n)
    split = split_solver(even, lambda: op.odd_block, n)
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

    split = split_solver(lambda y: y, odd, n)
    x = np.arange(n, dtype=float)
    even = x + x[::-1]
    assert np.array_equal(split(even), unfold(fold(even), n)) and built == []
    with pytest.raises(ConvergenceError, match="odd block"):
        split(x)
    assert built == [1]


@pytest.mark.parametrize("n", [15, 255, 511, 1023, 1024])
def test_principal_pair_from_the_even_block(n):
    # phi_1 of A from E^T A E agrees with the pair of A itself, and is even bit for bit
    op = assemble_operator(build_grid(1.0, n), 0.4)
    block, full = principal_eigenpair(op), smallest_eigenpairs(op.matrix)
    assert block.value == pytest.approx(full.value, rel=1e-12)
    assert np.abs(block.vector - full.vector).max() <= 1e-8
    assert is_even(block.vector) and block.vector.shape == (n,)
    assert np.abs(op.matrix @ block.vector - block.value * block.vector).max() <= 1e-8


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
