import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, svd

from fracfold import ProblemSpec, assemble_operator, build_grid, power_nonlinearity, solve_A, solve_min
from fracfold.continuation import BranchPoint
from fracfold.linearization import (
    LinearizedOperator,
    fredholm_monitor,
    lambda1,
    linearized_operator,
    sensitivity_bundle,
)
from fracfold.operator import principal_eigenpair, smallest_eigenpairs
from fracfold.singular import Equation, solve_pure_singular


@pytest.fixture(scope="module")
def op192():
    return assemble_operator(build_grid(1.0, 192), 0.4)


@pytest.fixture(scope="module")
def pure_field(op192):
    return solve_pure_singular(ProblemSpec(s=0.4, delta=0.5, beta=0.0, coeff=0.2), op192)


def _dense_jacobian(lam, u, op, spec):
    """J = A + diag(potential) on all n nodes, assembled here: the dense oracles' matrix at any field."""
    uv = getattr(u, "values", u)
    return op.matrix + np.diag(Equation.of(op, spec, lam).potential(uv))


def test_lambda1_nonnegative_potential_shifts_up(op192, pure_field):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    pair = lambda1(0.2, pure_field.values, op192, spec)
    assert pair.value >= principal_eigenpair(op192).value
    assert pair.vector.min() > 0.0


def test_lambda1_matches_dense_oracle(op192, pure_field):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    lin = linearized_operator(0.2, pure_field.values, op192, spec)
    jac = _dense_jacobian(0.2, pure_field.values, op192, spec)
    oracle = eigh(jac, eigvals_only=True)[0]
    principal = lambda1(0.2, pure_field.values, op192, spec, lin=lin)
    assert principal.value == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle)))
    for pair in (smallest_eigenpairs(jac), smallest_eigenpairs(lin.matrix, n=192)):
        assert pair.value == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle)))


def test_lambda1_decreasing_in_lambda(op192):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    values = []
    prev = None
    for lam in (0.1, 0.2, 0.3):
        field = solve_min(lam, spec, op192, sub_hint=prev)
        values.append(lambda1(lam, field.values, op192, spec).value)
        prev = field
    assert values[0] > values[1] > values[2] > 0.0


def test_linearized_operator_requires_positive_field(op192):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    with pytest.raises(ValueError):
        linearized_operator(0.1, np.zeros(192), op192, spec)


def _directional(lam, h, phi, op, spec, tol=1e-8, u=None):
    """The directional derivative v of the solution operator in its forcing slot, along phi."""
    return sensitivity_bundle(lam, h, op, spec, directions=(phi, None), tol=tol, u=u).v


def test_d2A_zero_direction_and_linearity(op192, rng):
    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.0)
    h = np.full(192, 0.4)
    base = solve_A(0.3, h, op192, spec)
    assert np.all(_directional(0.3, h, np.zeros(192), op192, spec, u=base) == 0.0)
    phi = rng.normal(size=192)
    psi = rng.normal(size=192)
    va = _directional(0.3, h, phi, op192, spec, u=base)
    vb = _directional(0.3, h, psi, op192, spec, u=base)
    vab = _directional(0.3, h, 2.0 * phi - 3.0 * psi, op192, spec, u=base)
    assert np.abs(vab - (2.0 * va - 3.0 * vb)).max() <= 1e-10 * max(1.0, np.abs(vab).max())


def test_d2A_finite_difference_orders(op192):
    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.0)
    h = np.full(192, 0.4)
    phi = np.cos(0.5 * np.pi * op192.grid.nodes)
    tol = 1e-11
    base = solve_A(0.3, h, op192, spec, tol=tol)
    v = _directional(0.3, h, phi, op192, spec, tol=tol, u=base)
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        approx = (solve_A(0.3, h + t * phi, op192, spec, tol=tol).values - base.values) / t
        errs.append(np.abs(approx - v).max())
    assert errs[0] > errs[1] > errs[2]
    assert np.log10(errs[0] / errs[1]) >= 0.8


def test_bundle_delta_zero_reductions(op192):
    spec = ProblemSpec(s=0.4, delta=0.0, beta=0.0)
    h = np.full(192, 0.3)
    bundle = sensitivity_bundle(0.5, h, op192, spec)
    k = spec.k_field(op192.grid)
    from fracfold import solve_dirichlet

    assert np.allclose(bundle.w1, solve_dirichlet(op192, k))
    assert np.all(bundle.w11 == 0.0)
    assert np.all(bundle.w12 == 0.0)
    assert np.all(bundle.w22 == 0.0)


def test_bundle_w1_positive(op192):
    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.2)
    bundle = sensitivity_bundle(0.3, np.full(192, 0.4), op192, spec)
    assert bundle.w1.min() > 0.0


def test_bundle_finite_difference_cross_checks(op192):
    # discriminates the lam-bearing right-hand sides: run at lam far from 1.
    # psi is not phi, and not even: w22 is the mixed derivative along both,
    # and v_psi solves through both blocks of P
    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.2)
    lam = 0.3
    h = 0.5 * (1.0 + np.cos(np.pi * op192.grid.nodes))
    phi = np.cos(0.5 * np.pi * op192.grid.nodes)
    psi = np.exp(op192.grid.nodes)
    tol = 1e-11
    base = solve_A(lam, h, op192, spec, tol=tol)
    bundle = sensitivity_bundle(lam, h, op192, spec, directions=(phi, psi), tol=tol, u=base)

    def tsolve(lam_, h_):
        return solve_A(lam_, h_, op192, spec, tol=tol).values

    t = 1e-3
    w1_fd = (tsolve(lam + t, h) - tsolve(lam - t, h)) / (2.0 * t)
    assert np.abs(w1_fd - bundle.w1).max() <= 1e-4 * (1.0 + np.abs(bundle.w1).max())
    t = 1e-2
    w11_fd = (tsolve(lam + t, h) - 2.0 * base.values + tsolve(lam - t, h)) / t ** 2
    assert np.abs(w11_fd - bundle.w11).max() <= 1e-2 * (1.0 + np.abs(bundle.w11).max())
    w22_fd = (
        tsolve(lam, h + t * phi + t * psi)
        - tsolve(lam, h + t * phi - t * psi)
        - tsolve(lam, h - t * phi + t * psi)
        + tsolve(lam, h - t * phi - t * psi)
    ) / (4.0 * t ** 2)
    assert np.abs(w22_fd - bundle.w22).max() <= 1e-2 * (1.0 + np.abs(bundle.w22).max())
    w12_fd = (
        tsolve(lam + t, h + t * phi)
        - tsolve(lam + t, h - t * phi)
        - tsolve(lam - t, h + t * phi)
        + tsolve(lam - t, h - t * phi)
    ) / (4.0 * t ** 2)
    assert np.abs(w12_fd - bundle.w12).max() <= 1e-2 * (1.0 + np.abs(bundle.w12).max())


def test_bundle_factors_P_once_through_the_operator(monkeypatch, op192):
    # one counted Cholesky of P's even block serves every derivative field:
    # u and the directions are even, so no right-hand side has an odd part
    # and P's odd block is never built
    import fracfold.operator as op_mod

    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.2)
    h = np.full(192, 0.4)
    phi = np.cos(0.5 * np.pi * op192.grid.nodes)
    base = solve_A(0.3, h, op192, spec)
    calls = []
    original = op_mod.cho_factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(op_mod, "cho_factor", counted)
    sensitivity_bundle(0.3, h, op192, spec, directions=(phi, phi), u=base)
    assert calls == [(96, 96)]


def test_gershgorin_factor_matches_the_shifted_matrix(folded_branch, op256_s04, canonical_spec, rng):
    # on an indefinite upper-branch J the shift comes off the diagonal of one
    # copy: the solve equals the trsv pair on the factor of J - mu I formed in
    # full, bit for bit, and J is untouched
    from scipy.linalg import cho_factor, get_blas_funcs

    from fracfold.operator import shifted_spd_solver, spd_solver

    point = folded_branch.upper_points()[-1]
    jac = linearized_operator(point.lam, point.solution, op256_s04, canonical_spec).matrix
    assert spd_solver(jac) is None
    before = jac.copy()
    d = np.diag(jac)
    shift = min(float(np.min(d - (np.abs(jac).sum(axis=1) - np.abs(d)))), 0.0) - 1.0  # below every disc
    factor = cho_factor(jac - shift * np.eye(len(jac)), lower=True)[0]
    trsv = get_blas_funcs("trsv", dtype=np.float64)
    solve = shifted_spd_solver(jac)
    for x in (rng.normal(size=len(jac)), np.ones(len(jac))):
        expected = trsv(factor, trsv(factor, x, lower=1), lower=1, trans=1)
        assert np.array_equal(solve(x).view(np.uint64), expected.view(np.uint64))  # bit for bit
    assert np.array_equal(jac, before)


def test_monitor_identity_without_nonlinearity(op192, pure_field):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    assert fredholm_monitor(0.2, pure_field.values, op192, spec) == 1.0


def test_monitor_bounded_away_at_small_lambda(op192):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    field = solve_min(0.01, spec, op192)
    assert fredholm_monitor(0.01, field.values, op192, spec) > 0.9


# --- dense oracles at every point of the rounded branch -----------------------------
# eigh and svdvals carry an absolute error of about eps*||J||, so the eigenvalue
# comparison is relative with a floor of 1 (the fold point has lambda1 near 0).


def _rounded(branch, segment=None):
    return [p for p in branch.points if segment in (None, p.segment)]


def _dense_monitor(lam, u, op, spec):
    """sigma_min of I - P^-1 F and its right singular vector."""
    k = spec.k_field(op.grid)
    p = op.matrix + np.diag(lam * spec.delta * k * u ** (-spec.delta - 1.0))
    f = np.diag(lam * spec.nonlinearity.fprime(u))
    _, sigma, vh = svd(np.eye(op.n) - np.linalg.solve(p, f))
    return float(sigma[-1]), vh[-1]


def test_branch_lambda1_matches_eigh(folded_branch, op256_s04, canonical_spec):
    points = _rounded(folded_branch)
    assert {p.segment for p in points} == {"minimal", "fold", "upper"}
    for p in points:
        jac = _dense_jacobian(p.lam, p.solution, op256_s04, canonical_spec)
        oracle = eigh(jac, eigvals_only=True, subset_by_index=[0, 0])[0]
        scale = 1e-9 * max(1.0, abs(oracle))
        assert p.lambda1 == pytest.approx(oracle, abs=scale), (p.segment, p.lam)
        direct = lambda1(p.lam, p.solution, op256_s04, canonical_spec)
        assert direct.value == pytest.approx(oracle, abs=scale)
        assert np.abs(direct.vector).max() == pytest.approx(1.0)


def test_branch_monitor_matches_svd(folded_branch, op256_s04, canonical_spec):
    monitors = []
    for p in _rounded(folded_branch):
        oracle, vec = _dense_monitor(p.lam, p.solution.values, op256_s04, canonical_spec)
        assert p.monitor == pytest.approx(oracle, abs=1e-9), (p.segment, p.lam)
        direct = fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec)
        assert direct == pytest.approx(oracle, abs=1e-9)
        monitors.append((p.segment, oracle, np.abs(vec + vec[::-1]).max() <= 1e-6))
    # the upper segment reaches points well away from the fold, not only its neighbourhood
    assert max(m for seg, m, _ in monitors if seg == "upper") >= 0.25
    # and points where sigma_min's singular vector is antisymmetric: J and F are
    # reflection-symmetric, so a Krylov run from a symmetric start misses that mode
    assert any(anti for seg, _, anti in monitors if seg == "upper")


def test_smallest_eigenpairs_indefinite_matches_eigh(folded_branch, op256_s04, canonical_spec):
    p = _rounded(folded_branch, "upper")[-1]
    jac = _dense_jacobian(p.lam, p.solution, op256_s04, canonical_spec)
    oracle = eigh(jac, eigvals_only=True, subset_by_index=[0, 2])
    assert oracle[0] < 0.0 < oracle[1]
    q, val = smallest_eigenpairs(jac, tol=1e-9), oracle[0]
    assert q.value == pytest.approx(val, abs=1e-9 * max(1.0, abs(val)))
    assert np.abs(q.vector).max() == pytest.approx(1.0)
    assert np.abs(jac @ q.vector - q.value * q.vector).max() <= 1e-9
    assert q.residual <= 1e-9


def _forbid_gershgorin_factor(monkeypatch):
    """Make lambda1's fallback, the Gershgorin-shifted Cholesky solve, fail the test if it is built."""
    import fracfold.linearization as lin_mod

    def no_fallback(mat):
        raise AssertionError("the Gershgorin-shifted solve was built")

    monkeypatch.setattr(lin_mod, "shifted_spd_solver", no_fallback)


def test_branch_point_shares_one_factor(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # lambda1 and the monitor of one linearization, at an even field where J =
    # J_e (+) J_o: a single factor of each block, of order n/2.  On the minimal
    # branch both are Cholesky; on the upper one the sine profile proves J_e
    # indefinite, and the LU of J_e serves lambda1 (by Lanczos on -J_e^-1) and
    # the monitor's solves with J_o's Cholesky
    import fracfold.operator as op_mod

    calls = []
    for mod, name in ((op_mod, "cho_factor"), (op_mod, "lu_factor")):
        original = getattr(mod, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, len(args[0])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    half = op256_s04.n // 2
    for p, expected in (
        (_rounded(folded_branch, "minimal")[-1], [("cho_factor", half), ("cho_factor", half)]),
        (_rounded(folded_branch, "upper")[-1], [("lu_factor", half), ("cho_factor", half)]),
    ):
        calls.clear()
        lin = linearized_operator(p.lam, p.solution, op256_s04, canonical_spec)
        lambda1(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        assert calls == expected
        # a branch point reads both from one linearization, once, and then keeps the values
        fresh = BranchPoint(p.lam, p.solution, op256_s04, p.tol, p.arclength, p.segment)
        calls.clear()
        values = (fresh.lambda1, fresh.monitor)
        assert calls == expected
        calls.clear()
        assert (fresh.lambda1, fresh.monitor) == values
        assert calls == []
        assert values == (p.lambda1, p.monitor)


def test_lambda1_alone_builds_no_odd_block(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # the principal pair is even, so lambda1 needs J_e only; J_o is built when
    # the monitor first solves, since its Lanczos start vector has an odd part
    calls = []
    original = Equation.jacobian

    def recording(self, u, out=None, odd=False):
        calls.append(odd)
        return original(self, u, out=out, odd=odd)

    monkeypatch.setattr(Equation, "jacobian", recording)
    for p in (_rounded(folded_branch, "minimal")[-1], _rounded(folded_branch, "upper")[-1]):
        calls.clear()
        lin = linearized_operator(p.lam, p.solution, op256_s04, canonical_spec)
        lambda1(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        assert calls == [False]
        fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        assert calls == [False, True]


def test_branch_points_read_stability_in_few_solves(monkeypatch, folded_branch, op256_s04):
    # each Lanczos run stops once its Ritz pair has converged; runs of a fixed
    # 21 applications take 65 solves per point (21 for lambda1, 2 * 21 + 2 for
    # the monitor and its residual check).  A solve here is one application
    # of J_e^-1, alone (lambda1) or inside a split solve of J (the monitor).
    # The factors stay one per block per point: an indefinite J_e's LU serves
    # lambda1 too, so no Gershgorin factor is built.
    import fracfold.linearization as lin_mod
    import fracfold.operator as op_mod

    calls = {"solve": 0, "factor": 0}

    def count(kind, result):
        calls[kind] += 1
        return result

    def counted_solver(original):
        def build(mat, *args):
            solve = original(mat, *args)
            return None if solve is None else (lambda x: count("solve", solve(x)))

        return build

    for name in ("spd_solver", "lu_solver"):
        monkeypatch.setattr(lin_mod, name, counted_solver(getattr(lin_mod, name)))
    for name in ("cho_factor", "lu_factor"):
        original = getattr(op_mod, name)

        def counted(*args, _original=original, **kwargs):
            assert len(args[0]) == op256_s04.n // 2
            return count("factor", _original(*args, **kwargs))

        monkeypatch.setattr(op_mod, name, counted)
    _forbid_gershgorin_factor(monkeypatch)
    points = _rounded(folded_branch)
    for p in points:
        fresh = BranchPoint(p.lam, p.solution, op256_s04, p.tol, p.arclength, p.segment)
        _ = (fresh.lambda1, fresh.monitor)
    # measured: 570 solves over the 26 points, one factor of each block
    assert calls["solve"] <= 24 * len(points)
    assert calls["factor"] == 2 * len(points)


def test_upper_lambda1_comes_from_the_lu_of_J(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # on every upper point Lanczos on -J^-1 through J's LU finds lambda1, with
    # a positive eigenvector (the Perron certificate) and no shifted factor
    _forbid_gershgorin_factor(monkeypatch)
    upper = folded_branch.upper_points()
    assert len(upper) >= 5
    for p in upper:
        lin = linearized_operator(p.lam, p.solution, op256_s04, canonical_spec)
        assert lin.cholesky is None
        pair = lambda1(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        oracle = np.linalg.eigvalsh(_dense_jacobian(p.lam, p.solution, op256_s04, canonical_spec))[0]
        assert pair.value == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle))), p.lam
        assert pair.value < 0.0
        assert pair.vector.min() > 0.0


def test_fold_lambda1_is_certified_without_cholesky(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # at the fold lambda1 is within rounding of 0, so J's Cholesky may fail
    # there and its LU may see lambda1 of either sign: with the Cholesky
    # forced to fail, the Perron test on J's LU still certifies lambda1, and
    # no Gershgorin factor is built
    _forbid_gershgorin_factor(monkeypatch)
    fold = folded_branch.fold_point()
    lin = linearized_operator(fold.lam, fold.solution, op256_s04, canonical_spec)
    lin.cholesky = None  # the cached Cholesky solve, as if its factorization had failed
    pair = lambda1(fold.lam, fold.solution, op256_s04, canonical_spec, tol=max(fold.tol, 1e-10), lin=lin)
    oracle = np.linalg.eigvalsh(_dense_jacobian(fold.lam, fold.solution, op256_s04, canonical_spec))[0]
    assert abs(oracle) <= 1e-6
    assert pair.value == pytest.approx(oracle, abs=1e-9)
    assert pair.vector.min() > 0.0


def test_lambda1_falls_back_past_morse_index_one(op192):
    # J = A - cI with c between mu_2 and mu_3 of A has two negative eigenvalues;
    # the top Ritz pair of -J^-1 belongs to mu_2 - c, whose eigenvector changes
    # sign, so lambda1 must come from the shifted Cholesky factor instead
    mu = np.linalg.eigvalsh(op192.matrix)[:3]
    c = 0.5 * (mu[1] + mu[2])
    jac = op192.matrix - c * np.eye(op192.n)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    pair = lambda1(0.1, np.ones(op192.n), op192, spec, lin=LinearizedOperator(jac, np.zeros(op192.n)))
    assert pair.value == pytest.approx(mu[0] - c, abs=1e-9 * abs(mu[0] - c))
    assert pair.vector.min() > 0.0


def test_cholesky_solver_matches_cho_solve(op192, pure_field, rng):
    # operator.spd_solver solves by the BLAS trsv pair, not LAPACK's potrs
    from scipy.linalg import cho_factor, cho_solve

    from fracfold.operator import spd_solver

    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    jac = _dense_jacobian(0.2, pure_field.values, op192, spec)
    assert np.linalg.eigvalsh(jac)[0] > 0.0
    for mat in (op192.matrix, jac):
        factor = cho_factor(mat, lower=True)
        solve = spd_solver(mat)
        for x in (rng.normal(size=op192.n), np.ones(op192.n)):
            expected = cho_solve(factor, x)
            kept = x.copy()
            assert np.abs(solve(x) - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.array_equal(x, kept)  # the right-hand side is not overwritten


def test_monitor_zero_when_linearization_is_singular(op192, pure_field):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    singular = np.diag(np.arange(192.0))
    lin = LinearizedOperator(matrix=singular, fprime=np.ones(192))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LU reports the zero pivot
        assert fredholm_monitor(0.2, pure_field.values, op192, spec, lin=lin) == 0.0
