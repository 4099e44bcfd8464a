"""numpy's OpenBLAS pool is pinned to one thread inside fracfold's entry points,
and the LU steps that replaced numpy's dense solve keep Newton's failure contract."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracfold import ConvergenceError, ProblemSpec, assemble_operator, blas, build_grid, no_nonlinearity
from fracfold import singular
from fracfold.continuation import _corrector
from fracfold.operator import lu_solver
from fracfold.singular import Equation, solve_A

MAPS = "7f00-7f10 r-xp 00000000 00:2a 123 {}\n"
NUMPY_LIB = "/site-packages/numpy.libs/libscipy_openblas64_-32a4b2a6.so"
SCIPY_LIB = "/site-packages/scipy.libs/libscipy_openblas-6cdc3b4a.so"


def _pools():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = blas.openblas_libraries(fh)
    if "numpy" not in libraries or "scipy" not in libraries or libraries["numpy"] == libraries["scipy"]:
        pytest.skip("numpy and scipy do not load two separate OpenBLAS libraries here")
    return blas.thread_functions(libraries["numpy"]), blas.thread_functions(libraries["scipy"])


@pytest.fixture()
def two_numpy_threads():
    """numpy's pool at two threads for the test, put back as found afterwards."""
    (get, set_), scipy_pool = _pools()
    saved = get()
    set_(2)
    yield get, scipy_pool[0]
    set_(saved)


@pytest.fixture(scope="module")
def op16():
    return assemble_operator(build_grid(1.0, 16), 0.4)


def test_lookup_finds_numpy_beside_scipy():
    lines = [MAPS.format(NUMPY_LIB), MAPS.format(SCIPY_LIB), "7f20-7f30 rw-p 00000000 00:00 0\n"]
    assert blas.openblas_libraries(lines) == {"numpy": NUMPY_LIB, "scipy": SCIPY_LIB}
    assert blas.numpy_pool_library(lines) == NUMPY_LIB


def test_lookup_pins_nothing_without_two_pools():
    only_scipy = [MAPS.format(SCIPY_LIB), MAPS.format("/usr/lib/libm.so.6")]
    assert blas.numpy_pool_library(only_scipy) is None
    # numpy's copy alone: scipy's extensions link against the same library
    shared = [MAPS.format(NUMPY_LIB), MAPS.format(NUMPY_LIB)]
    assert blas.numpy_pool_library(shared) is None
    system = [MAPS.format("/usr/lib/libopenblas.so.0")]
    assert blas.numpy_pool_library(system) is None


def test_entry_point_runs_on_one_numpy_thread(monkeypatch, two_numpy_threads, op16, canonical_spec):
    numpy_threads, scipy_threads = two_numpy_threads
    scipy_before = scipy_threads()
    seen = []

    def dirichlet(op, rhs):
        seen.append((numpy_threads(), scipy_threads()))
        return np.ones(op.n)

    monkeypatch.setattr(singular, "solve_dirichlet", dirichlet)
    solve_A(0.0, np.ones(op16.n), op16, canonical_spec)
    assert seen == [(1, scipy_before)]
    assert numpy_threads() == 2
    assert scipy_threads() == scipy_before


def test_count_comes_back_after_a_raise(two_numpy_threads, op16, canonical_spec):
    numpy_threads, _ = two_numpy_threads
    with pytest.raises(ValueError):
        solve_A(-1.0, np.ones(op16.n), op16, canonical_spec)
    assert numpy_threads() == 2


def test_nested_calls_restore_the_outer_count(two_numpy_threads, op16, canonical_spec):
    numpy_threads, _ = two_numpy_threads
    inside = []

    @blas.single_pool
    def outer():
        solve_A(0.0, np.ones(op16.n), op16, canonical_spec)
        inside.append(numpy_threads())

    outer()
    assert inside == [1]
    assert numpy_threads() == 2


def _zero_operator(n=8):
    return replace(assemble_operator(build_grid(1.0, n), 0.4), matrix=np.zeros((n, n)), _cache={})


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_jacobian_fails_newton_and_corrector():
    op = _zero_operator()
    spec = ProblemSpec(s=0.4, delta=0.0, nonlinearity=no_nonlinearity())
    assert lu_solver(op.matrix) is None
    with pytest.raises(ConvergenceError, match="singular Jacobian"):
        Equation.of(op, spec, 1.0).solve(np.ones(op.n), 1e-8, lu_solver, 60)
    u = np.ones(op.n)
    tangent = (np.ones(op.n) / np.sqrt(op.n), 0.5)
    assert _corrector(Equation.of(op, spec, 1.0), (u, 1.0), tangent, 0.1, 1.0, 1e-8) is None


def test_non_finite_jacobian_is_a_convergence_failure(op16, canonical_spec):
    jac = op16.matrix.copy()
    jac[3, 3] = np.nan
    assert lu_solver(jac) is None
    op = replace(op16, matrix=jac, _cache={})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConvergenceError):
            Equation.of(op, canonical_spec, 0.1).solve(np.ones(op.n), 1e-8, lu_solver, 60)
