import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, svd

from fracfold import ProblemSpec, assemble_operator, build_grid, power_nonlinearity, solve_A, solve_min
from fracfold.continuation import BranchPoint, FoldPolicy, TracePolicy, fold_round, trace_minimal
from fracfold.linearization import (
    LinearizedOperator,
    fredholm_monitor,
    lambda1,
    linearized_operator,
    sensitivity_bundle,
)
from fracfold.operator import odd_floor, principal_eigenpair, smallest_eigenpairs
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
    return op.dense() + np.diag(Equation.of(op, spec, lam).potential(uv))


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
    for matrix in (jac, lin.matrix):
        pair = smallest_eigenpairs(LinearizedOperator(matrix, 192))
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
    p = op.dense() + np.diag(lam * spec.delta * k * u ** (-spec.delta - 1.0))
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
    q, val = smallest_eigenpairs(LinearizedOperator(jac, len(jac)), tol=1e-9), oracle[0]
    assert q.value == pytest.approx(val, abs=1e-9 * max(1.0, abs(val)))
    assert np.abs(q.vector).max() == pytest.approx(1.0)
    assert np.abs(jac @ q.vector - q.value * q.vector).max() <= 1e-9
    assert q.residual <= 1e-9


def _forbid_gershgorin_factor(monkeypatch):
    """Make lambda1's fallback, the Gershgorin-shifted Cholesky solve, fail the test if it is built."""
    import fracfold.operator as op_mod

    def no_fallback(mat, n=None):
        raise AssertionError("the Gershgorin-shifted solve was built")

    monkeypatch.setattr(op_mod, "shifted_spd_solver", no_fallback)


def _warm_odd_floor(op):
    """Compute and cache the odd floor's Perron terms of op (one Cholesky of A_o), so later counts leave it out."""
    odd_floor(op, np.zeros(op.n))


def test_branch_point_shares_one_factor(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # lambda1 and the monitor of one linearization, at an even field where J =
    # J_e (+) J_o: one factor of order n/2 per block that is read.  At a
    # minimal point the odd floor rules sigma_o out, so J_e's Cholesky alone
    # serves lambda1 and the monitor; at the last upper point the sine profile
    # proves J_e indefinite, its LU serves lambda1 (by Lanczos on -J_e^-1) and
    # sigma_e, and the floor does not rule sigma_o out, so J_o is built and
    # its Cholesky read
    import fracfold.operator as op_mod

    _warm_odd_floor(op256_s04)
    calls = []
    for mod, name in ((op_mod, "cho_factor"), (op_mod, "lu_factor")):
        original = getattr(mod, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, len(args[0])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    half = op256_s04.n // 2
    for p, expected in (
        (_rounded(folded_branch, "minimal")[-1], [("cho_factor", half)]),
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


def test_odd_floor_factors_A_o_once_per_operator(monkeypatch, folded_branch, canonical_spec):
    # the floor's Perron vector of A_o comes from one Cholesky of order n/2 on
    # a fresh operator, cached on it: later points pay O(n) for the floor
    import fracfold.operator as op_mod

    op = assemble_operator(build_grid(1.0, 256), 0.4)  # the bits of the branch's operator
    calls = []
    original = op_mod.cho_factor

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(op_mod, "cho_factor", counted)
    p = _rounded(folded_branch, "minimal")[0]
    pot = Equation.of(op, canonical_spec, p.lam).potential(p.solution.values)
    first = odd_floor(op, pot)
    assert calls == [128]
    assert odd_floor(op, pot) == first and odd_floor(op, np.zeros(op.n)) < first
    assert calls == [128]


def test_lambda1_alone_builds_no_odd_block(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # the principal pair is even, so lambda1 needs J_e only.  The monitor
    # reads sigma_e on J_e too, and builds J_o only where the odd floor does
    # not rule sigma_o out: never at a minimal point, at the last upper point
    calls = []
    original = Equation.jacobian

    def recording(self, u, out=None, odd=False, **kwargs):
        calls.append(odd)
        return original(self, u, out=out, odd=odd, **kwargs)

    monkeypatch.setattr(Equation, "jacobian", recording)
    minimal, upper = _rounded(folded_branch, "minimal")[-1], _rounded(folded_branch, "upper")[-1]
    for p, monitor in ((minimal, [False]), (upper, [False, True])):
        calls.clear()
        lin = linearized_operator(p.lam, p.solution, op256_s04, canonical_spec)
        lambda1(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        assert calls == [False]
        fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec, lin=lin)
        assert calls == monitor


def test_branch_points_read_stability_in_few_solves(monkeypatch, folded_branch, op256_s04):
    # each Lanczos run stops once its Ritz pair has converged; runs of a fixed
    # 21 applications take 65 solves per point (21 for lambda1, 2 * 21 + 2 for
    # the monitor and its residual check).  A solve here is one application
    # of J_e^-1, for lambda1 or for sigma_e; the solves with J_o are not
    # counted.  The factors stay one per block that is read: an indefinite
    # J_e's LU serves lambda1 too, so no Gershgorin factor is built, and J_o
    # is built and factored only at the points the odd floor does not
    # certify, the last upper ones
    import fracfold.operator as op_mod

    _warm_odd_floor(op256_s04)
    calls = {"solve": 0, "factor": 0}
    odd_blocks, uncertified = [], []
    jacobian = Equation.jacobian

    def recording(self, u, out=None, odd=False, **kwargs):
        block = jacobian(self, u, out=out, odd=odd, **kwargs)
        if odd:
            odd_blocks.append(block)
            uncertified.append(self.lam)
        return block

    def count(kind, result):
        calls[kind] += 1
        return result

    def counted_solver(original):
        def build(mat, *args):
            solve = original(mat, *args)
            if solve is None or any(mat is block for block in odd_blocks):
                return solve
            return lambda x: count("solve", solve(x))

        return build

    monkeypatch.setattr(Equation, "jacobian", recording)
    for name in ("spd_solver", "lu_solver"):
        monkeypatch.setattr(op_mod, name, counted_solver(getattr(op_mod, name)))
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
    # measured: 539 solves over the 26 points, and 4 points not certified, the last four of the upper segment
    assert uncertified == [p.lam for p in folded_branch.upper_points()[-4:]]
    assert calls["solve"] <= 24 * len(points)
    assert calls["factor"] == len(points) + len(uncertified)


# --- the odd floor: a Collatz-Wielandt bound that rules sigma_o out -----------------------


@pytest.fixture(scope="module")
def small_branches():
    """(op, spec, folded branch) at an odd n, and with a weight that blows up at the wall (beta > 0)."""
    out = []
    for n, beta in ((63, 0.0), (64, 0.3)):
        spec = ProblemSpec(s=0.4, delta=0.5, beta=beta, coeff=1.0, nonlinearity=power_nonlinearity(2.0))
        op = assemble_operator(build_grid(1.0, n), spec.s)
        out.append((op, spec, fold_round(trace_minimal(spec, op, TracePolicy()), op, spec, FoldPolicy())))
    return out


def _odd_parts(lam, u, op, spec):
    """(l, 1 / (1 + max F_o / l), lambda_min(J_o), sigma_o): the code's floors and the dense oracles of the odd block.

    The oracles restrict the n x n matrices to the odd fields with Q_o, whose
    columns (e_j - e_{n-1-j}) / sqrt(2) are built here.
    """
    m = op.n // 2
    q = np.zeros((op.n, m))
    q[np.arange(m), np.arange(m)] = np.sqrt(0.5)
    q[op.n - 1 - np.arange(m), np.arange(m)] = -np.sqrt(0.5)
    jac = _dense_jacobian(lam, u, op, spec)
    f = lam * spec.nonlinearity.fprime(u)
    ell = odd_floor(op, Equation.of(op, spec, lam).potential(u))
    floor = 1.0 / (1.0 + np.abs(f[:m]).max() / ell) if ell > 0.0 else 0.0
    monitor = np.eye(op.n) - np.linalg.solve(jac + np.diag(f), np.diag(f))  # I - P^-1 F, P = J + F
    return ell, floor, eigh(q.T @ jac @ q, eigvals_only=True)[0], svd(q.T @ monitor @ q, compute_uv=False)[-1]


def test_odd_floor_is_below_the_dense_odd_block(folded_branch, op256_s04, canonical_spec, small_branches):
    # soundness at every point of three folded branches: l <= lambda_min(J_o)
    # and the floor on sigma_o is at most the SVD's; the floor rules sigma_o
    # out on the whole minimal segment and at the fold
    from fracfold.operator import FLOOR_MARGIN

    for op, spec, branch in [(op256_s04, canonical_spec, folded_branch), *small_branches]:
        assert {p.segment for p in branch.points} == {"minimal", "fold", "upper"}
        for p in branch.points:
            ell, floor, lowest, sigma_o = _odd_parts(p.lam, p.solution.values, op, spec)
            assert 0.0 < ell <= lowest, (op.n, p.segment, p.lam)
            assert floor <= sigma_o, (op.n, p.segment, p.lam)
            if p.segment != "upper":
                assert floor >= (1.0 + FLOOR_MARGIN) * p.monitor, (op.n, p.segment, p.lam)


def test_uncertified_points_read_sigma_o_to_the_dense_svd(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # where the floor does not rule sigma_o out, the monitor reads sigma_o on
    # J_o by Lanczos: it matches the SVD of the odd block, and the monitor is
    # the smaller of the two blocks' values
    import fracfold.operator as op_mod

    sigmas = []
    original = op_mod._sigma_min

    def recording(solve, f, rtol):
        sigmas.append(original(solve, f, rtol))
        return sigmas[-1]

    monkeypatch.setattr(op_mod, "_sigma_min", recording)
    read = 0
    for p in folded_branch.upper_points():
        sigmas.clear()
        monitor = fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec)
        if len(sigmas) == 1:  # ruled out: sigma_e alone
            assert monitor == sigmas[0]
            continue
        read += 1
        sigma_e, sigma_o = sigmas
        assert sigma_o == pytest.approx(_odd_parts(p.lam, p.solution.values, op256_s04, canonical_spec)[3], abs=1e-9)
        assert monitor == min(sigma_e, sigma_o)
    assert read == 4


@pytest.mark.parametrize("plant", ["psi", "column"])
def test_a_failed_premise_turns_the_skip_off(monkeypatch, folded_branch, canonical_spec, plant):
    # a Perron vector of A_o with a negative entry, or a kernel column that is not
    # monotone (A_o may then have a positive off-diagonal), voids the bound:
    # the floor is -inf, and the monitor builds J_o where it would skip it
    import fracfold.operator as op_mod
    from fracfold.operator import EigenPair

    op = assemble_operator(build_grid(1.0, 256), 0.4)  # the bits of the branch's operator, with no floor cached
    if plant == "psi":
        original = op_mod.smallest_eigenpairs

        def planted(lin, tol=1e-8):
            pair = original(lin, tol)
            vector = pair.vector.copy()
            vector[len(vector) // 2] *= -1.0  # its quotient would raise the floor, not void it
            return EigenPair(pair.value, vector, pair.residual)

        monkeypatch.setattr(op_mod, "smallest_eigenpairs", planted)
    else:
        _ = op.lin  # the blocks keep the assembled column: only the premise reads the planted one
        column = op.column.copy()
        column[[10, 11]] = column[[11, 10]]
        assert column[10] > column[11]
        op.column = column
    calls = []
    jacobian = Equation.jacobian

    def recording(self, u, out=None, odd=False, **kwargs):
        calls.append(odd)
        return jacobian(self, u, out=out, odd=odd, **kwargs)

    monkeypatch.setattr(Equation, "jacobian", recording)
    p = _rounded(folded_branch, "minimal")[-1]
    assert odd_floor(op, np.zeros(op.n)) == -np.inf
    assert fredholm_monitor(p.lam, p.solution, op, canonical_spec) == p.monitor  # sigma_e, and sigma_o is larger
    assert calls == [False, True]


def test_monitor_zero_when_the_odd_block_is_singular(folded_branch, op256_s04, canonical_spec):
    # an exactly singular J_o makes sigma_o = 0: the monitor is 0.0, as for a
    # singular J_e, and lambda1 of the same linearization is still read
    p = _rounded(folded_branch, "upper")[-1]  # a point whose floor does not rule sigma_o out
    lin = linearized_operator(p.lam, p.solution, op256_s04, canonical_spec)
    m = op256_s04.n // 2
    lin.odd = lambda: np.diag(np.arange(m, dtype=float))  # planted before J_o is first built
    assert lambda1(p.lam, p.solution, op256_s04, canonical_spec, tol=max(p.tol, 1e-10), lin=lin).value == p.lambda1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LU reports the zero pivot
        assert fredholm_monitor(p.lam, p.solution, op256_s04, canonical_spec, lin=lin) == 0.0


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
    mat = op192.dense()
    mu = np.linalg.eigvalsh(mat)[:3]
    c = 0.5 * (mu[1] + mu[2])
    jac = mat - c * np.eye(op192.n)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    pair = lambda1(0.1, np.ones(op192.n), op192, spec, lin=LinearizedOperator(jac, op192.n))
    assert pair.value == pytest.approx(mu[0] - c, abs=1e-9 * abs(mu[0] - c))
    assert pair.vector.min() > 0.0


def test_cholesky_solver_matches_cho_solve(op192, pure_field, rng):
    # operator.spd_solver solves by the BLAS trsv pair, not LAPACK's potrs
    from scipy.linalg import cho_factor, cho_solve

    from fracfold.operator import spd_solver

    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    jac = _dense_jacobian(0.2, pure_field.values, op192, spec)
    assert np.linalg.eigvalsh(jac)[0] > 0.0
    for mat in (op192.dense(), jac):
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
    lin = LinearizedOperator(matrix=singular, n=192)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LU reports the zero pivot
        assert fredholm_monitor(0.2, pure_field.values, op192, spec, lin=lin) == 0.0
