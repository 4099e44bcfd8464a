"""Newton on the half grid against the node-space Newton it replaces.

An even field is carried through a Newton run as its first ceil(n/2) node
values (`operator.Basis`).  The reference here is the node-space loop:
every residual, bound and step on n-node vectors, the even test made at
every factorization, A u from `NonlocalOperator.apply` and each step folded
by Q^T and unfolded by Q.  Both must give the same bits: the same iterates,
the same matrices handed to the factorizations, in the same order, and the
same outputs.
"""

from functools import partial

import numpy as np
import pytest

import fracfold.operator as op_mod
from fracfold import ConvergenceError, ProblemSpec, assemble_operator, build_grid, no_nonlinearity, power_nonlinearity
from fracfold.continuation import (
    MAX_CORRECTOR,
    TracePolicy,
    _arclength_weight,
    _corrector,
    _fold_point,
    _tangent,
    trace_minimal,
)
from fracfold.operator import fold, is_even, lu_solver, principal_eigenpair, spd_solver, unfold
from fracfold.singular import (
    CHORD_RATIO,
    POSITIVITY_FLOOR,
    Equation,
    pure_singular_cached,
    scale_pure_singular,
    solve_min,
)

CASES = [(n, power, beta) for n in (8, 9, 64, 65, 255, 256) for power in (False, True) for beta in (0.0, 0.3)]


def _spec(power: bool, beta: float) -> ProblemSpec:
    nonlinearity = power_nonlinearity(2.0) if power else no_nonlinearity()
    return ProblemSpec(s=0.4, delta=0.5, beta=beta, nonlinearity=nonlinearity)


# --- the node-space reference -------------------------------------------------------------------


def _reference_newton(x, residual, merit, bound, factor, trial, maxit, halvings, store=None):
    """Damped Newton with the chord rule on separate residual and bound functions, as it ran on n-node vectors."""
    store = [] if store is None else store
    start, r0 = x, residual(x)
    for chord in (True, False):
        x, r, reused, prev, steps = start, r0, False, None, 0
        m = merit(r)
        try:
            while not np.all(np.abs(r) <= (b := bound(x))):
                if steps == maxit:
                    raise ConvergenceError("stalled")
                steps += 1
                if chord and store and (prev is None or m <= CHORD_RATIO * prev):
                    solve, reused = store[0], True
                else:
                    solve = None
                    store.clear()
                    if (solve := factor(x)) is None:
                        raise ConvergenceError("rejected factor")
                    if chord:
                        store.append(solve)
                prev = m
                dx = solve(-r)
                for j in range(halvings + 1):
                    xt = trial(x, 0.5 ** j, dx)
                    if xt is None:
                        continue
                    rt = residual(xt)
                    mt = merit(rt)
                    if mt < m:
                        x, r, m = xt, rt, mt
                        break
                else:
                    raise ConvergenceError("line search failed")
            return x, r, b
        except ConvergenceError:
            if not reused:
                raise
            store.clear()


def _source(eq, u):
    return eq.k * u ** (-eq.delta) + eq.nonlinearity.f(u)


def _residual(eq, u, lam):
    return eq.op.apply(u) - lam * _source(eq, u) - eq.rhs


def _bound(eq, u, lam, tol):
    return tol * (1.0 + np.abs(lam * _source(eq, u)) + np.abs(eq.rhs))


def _potential(eq, u, lam):
    return lam * eq.delta * eq.k * u ** (-eq.delta - 1.0) - lam * eq.nonlinearity.fprime(u)


def _d_potential(eq, u, lam):
    return -(lam * eq.delta * (eq.delta + 1.0) * eq.k * u ** (-eq.delta - 2.0)) - lam * eq.nonlinearity.fsecond(u)


def _precision(eq, u0):
    """float32 when the potential at the start is nonnegative at every node, else float64."""
    return np.float32 if np.all(_potential(eq, u0, eq.lam) >= 0.0) else np.float64


def _even(*data) -> bool:
    return all(is_even(x) for x in data)


def _jacobian(eq, u, lam, even, out=None, dtype=np.float64):
    """J_e = Q^T A Q + diag(p[:ceil(n/2)]) at an even u, else J, each entry rounded once into the target."""
    base = eq.op.even_block if even else eq.op.dense()
    out = np.empty(base.shape, dtype) if out is None else out
    out[...] = base
    out[np.diag_indices(len(out))] = np.diagonal(base) + _potential(eq, u, lam)[: len(out)]
    return out


def _folded(x, n):
    """Q^T of the first n entries of x, the rest carried through."""
    return np.concatenate((fold(x[:n]), x[n:]))


def _unfolded(y, n):
    k = (n + 1) // 2
    return np.concatenate((unfold(y[:k], n), y[k:]))


def _lifted(solve, even, n):
    if solve is None or not even:
        return solve
    return lambda x: _unfolded(solve(_folded(x, n)), n)


def _bordered(eq, u, lam, row, corner):
    n = len(u)
    even = _even(u, eq.k, eq.rhs, row)
    k = (n + 1) // 2 if even else n
    fold_n = partial(_folded, n=n) if even else (lambda x: x)
    mat = np.empty((k + 1, k + 1), order="F")
    _jacobian(eq, u, lam, even, out=mat[:k, :k].T)
    mat[:k, k] = fold_n(-_source(eq, u))
    mat[k, :k] = fold_n(row)
    mat[k, k] = corner
    return _lifted(lu_solver(mat, overwrite=True), even, n)


def _positive(n):
    def trial(z, t, dz):
        zt = z + t * dz
        return zt if zt[:n].min() > 0.0 and zt[-1] > 0.0 else None

    return trial


def _reference_solve(eq, u0, tol, factor, maxit):
    n = eq.op.n
    u0 = np.maximum(np.asarray(u0, dtype=float), POSITIVITY_FLOOR)

    def run(dtype):
        def factored(u):
            even = _even(u, eq.k, eq.rhs)
            return _lifted(factor(_jacobian(eq, u, eq.lam, even, dtype=dtype).T, overwrite=True), even, n)

        def floored(u, t, du):
            return np.maximum(u + t * du, POSITIVITY_FLOOR)

        def residual(u):
            return _residual(eq, u, eq.lam)

        def bound(u):
            return _bound(eq, u, eq.lam, tol)

        return _reference_newton(u0, residual, lambda r: np.abs(r).max(), bound, factored, floored, maxit, 40)

    dtype = _precision(eq, u0)
    try:
        u, r, b = run(dtype)
    except ConvergenceError:
        if dtype is np.float64:
            raise
        u, r, b = run(np.float64)
    return u, float(np.abs(r).max()), float(np.max(b))


def _reference_corrector(eq, anchor, tangent, ds, w, tol):
    u0, lam0 = anchor
    udot, lamdot = tangent
    n = len(u0)

    def residual(z):
        return np.append(_residual(eq, z[:n], z[n]), w ** 2 * (udot @ (z[:n] - u0)) + lamdot * (z[n] - lam0) - ds)

    def bound(z):
        return np.append(_bound(eq, z[:n], z[n], tol), tol * (1.0 + ds))

    def factor(z):
        return _bordered(eq, z[:n], z[n], w ** 2 * udot, lamdot)

    def merit(r):
        return np.abs(r[:n]).max() + abs(r[n])

    predictor = np.append(np.maximum(u0 + ds * udot, 1e-14), lam0 + ds * lamdot)
    z, r, b = _reference_newton(predictor, residual, merit, bound, factor, _positive(n), MAX_CORRECTOR, 30)
    return z[:n], z[n], float(np.abs(r[:n]).max()), float(b[:n].max())


def _reference_fold(eq, start):
    n, tol = eq.op.n, start.tol
    phi0 = start.eigenvector
    l = phi0 / (phi0 @ phi0)

    def residual(z):
        u, phi, lam = z[:n], z[n:-1], z[-1]
        return np.concatenate([_residual(eq, u, lam), eq.op.apply(phi) + _potential(eq, u, lam) * phi, [l @ phi - 1.0]])

    def bound(z):
        u, phi, lam = z[:n], z[n:-1], z[-1]
        phi_scale = 1.0 + np.abs(_potential(eq, u, lam) * phi).max()
        return np.concatenate([_bound(eq, u, lam, tol), np.full(n, tol * phi_scale), [tol]])

    def factor(z):
        u, phi, lam = z[:n], z[n:-1], z[-1]
        solve = _bordered(eq, u, lam, l, 0.0)
        if solve is None:
            return None
        b, c = _d_potential(eq, u, lam) * phi, _potential(eq, u, 1.0) * phi
        x1 = solve(np.append(np.zeros(n), 1.0))
        y1 = solve(np.append(-b * x1[:n] - c * x1[n], 0.0))

        def bordered(v):
            x = solve(np.append(v[:n], 0.0))
            y = solve(np.append(v[n:-1] - b * x[:n] - c * x[n], v[-1]))
            t = -y[n] / y1[n]
            dx, dy = x + t * x1, y + t * y1
            return np.concatenate([dx[:n], dy[:n], dx[n:]])

        return bordered

    z0 = np.concatenate([start.solution.values, phi0, [start.lam]])
    scale = bound(z0)
    z, r, b = _reference_newton(z0, residual, lambda r: np.abs(r / scale).max(), bound, factor, _positive(n), 20, 30)
    return z[:n], float(z[-1]), float(np.abs(r[:n]).max()), float(b[:n].max())


# --- the comparison -----------------------------------------------------------------------------


def _factor_calls(monkeypatch):
    """(kernel, the matrix as it was handed over) of every dense factorization, in call order."""
    calls = []
    for name in ("cho_factor", "lu_factor"):
        original = getattr(op_mod, name)

        def recorded(mat, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, mat.copy()))
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(op_mod, name, recorded)
    return calls


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _assert_same_run(monkeypatch, halved, reference):
    """Both runs give the same bits and hand the same matrices to the same kernels, in the same order."""
    calls = _factor_calls(monkeypatch)
    got = halved()
    got_calls, calls[:] = list(calls), []
    want = reference()
    assert len(got) == len(want) and all(_bits(a) == _bits(b) for a, b in zip(got, want))
    assert got_calls and len(got_calls) == len(calls)
    for (kernel, mat), (ref_kernel, ref_mat) in zip(got_calls, calls):
        assert kernel == ref_kernel and _bits(mat) == _bits(ref_mat)
    return got_calls


def _warm(op, spec):
    """The operator's cached blocks, phi_1 and pure singular solution, made before any factorization is recorded."""
    _ = op.even_block, op.lin.solve, principal_eigenpair(op)
    pure_singular_cached(spec, op)


@pytest.mark.parametrize("n,power,beta", CASES)
def test_newton_solve_on_the_half_grid_keeps_the_node_space_bits(monkeypatch, n, power, beta):
    # a pure singular solve (f = 0) from below its solution factors in
    # float32; a minimal solve (f a power) from the scaled pure singular
    # solution has a nonnegative potential there and factors in float32 too,
    # and from twice that field, where the potential has negative entries, in
    # float64.  Each is an even start, so each run is on the half grid
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = _spec(power, beta)
    _warm(op, spec)
    if power:
        eq = Equation.of(op, spec, 0.2)
        sub = scale_pure_singular(pure_singular_cached(spec, op), 0.2).values
        runs = [(sub, np.float32), (2.0 * sub, np.float64)]
    else:
        eq = Equation(op, spec.k_field(op.grid), spec.delta, no_nonlinearity(), 1.0)
        runs = [(0.5 * pure_singular_cached(spec, op).values, np.float32)]
    factor = partial(spd_solver, n=n)
    for start, dtype in runs:
        assert eq.precision(start) is _precision(eq, start) is dtype
        calls = _assert_same_run(
            monkeypatch,
            lambda: eq.solve(start, 1e-10, factor, 80),
            lambda: _reference_solve(eq, start, 1e-10, factor, 80),
        )
        assert {len(mat) for _, mat in calls} == {(n + 1) // 2}
        assert {mat.dtype for _, mat in calls} == {np.dtype(dtype)}


@pytest.mark.parametrize("n,power,beta", CASES)
def test_corrector_on_the_half_grid_keeps_the_node_space_bits(monkeypatch, n, power, beta):
    # one pseudo-arclength step along the secant of two solutions, from a fresh bordered LU
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = _spec(power, beta)
    _warm(op, spec)
    if power:
        fields = [solve_min(lam, spec, op) for lam in (0.18, 0.2)]
    else:
        fields = [scale_pure_singular(pure_singular_cached(spec, op), lam) for lam in (0.18, 0.2)]
    (a, b), lams = (f.values for f in fields), (0.18, 0.2)
    w = _arclength_weight(op, np.abs(b).max())
    tangent = _tangent(w, (a, lams[0]), (b, lams[1]))
    anchor, eq = (b, lams[1]), Equation.of(op, spec, 0.0)
    calls = _assert_same_run(
        monkeypatch,
        lambda: _corrector(eq.on(b, tangent[0]), anchor, tangent, 0.05, w, 1e-10, []),
        lambda: _reference_corrector(eq, anchor, tangent, 0.05, w, 1e-10),
    )
    assert {(kernel, len(mat)) for kernel, mat in calls} == {("lu_factor", (n + 1) // 2 + 1)}


@pytest.mark.parametrize("n,beta", [(n, beta) for n in (8, 9, 64, 65, 255, 256) for beta in (0.0, 0.3)])
def test_fold_solve_on_the_half_grid_keeps_the_node_space_bits(monkeypatch, n, beta):
    # the Moore-Spence solve from the last minimal point of the traced branch
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = _spec(True, beta)
    start = trace_minimal(spec, op, TracePolicy()).minimal_points()[-1]
    _ = start.eigenvector  # its linearization is made before any factorization is recorded

    def halved():
        fold = _fold_point(start)
        return fold.solution.values, fold.lam, fold.solution.residual, fold.solution.residual_bound

    calls = _assert_same_run(monkeypatch, halved, lambda: _reference_fold(Equation.of(op, spec, start.lam), start))
    assert {(kernel, len(mat)) for kernel, mat in calls} == {("lu_factor", (n + 1) // 2 + 1)}


@pytest.mark.parametrize("n", [64, 65])
def test_an_asymmetric_start_runs_on_the_nodes(monkeypatch, n):
    # a random start is not even: the run takes the node basis, factors J of
    # order n at every step, and keeps the node-space bits all the same
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = _spec(True, 0.0)
    _warm(op, spec)
    eq = Equation.of(op, spec, 0.2)
    start = 0.05 * np.random.default_rng(n).uniform(0.5, 1.0, size=n)
    assert not is_even(start) and not eq.on(start).basis.even
    for factor in (spd_solver, lu_solver):
        calls = _assert_same_run(
            monkeypatch,
            lambda: eq.solve(start, 1e-10, factor, 60),
            lambda: _reference_solve(eq, start, 1e-10, factor, 60),
        )
        assert {len(mat) for _, mat in calls} == {n}
