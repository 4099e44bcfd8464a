from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracfold.continuation
import fracfold.operator
import fracfold.singular
from fracfold import (
    ConvergenceError,
    Nonlinearity,
    ProblemSpec,
    assemble_operator,
    build_grid,
    no_nonlinearity,
    power_nonlinearity,
    solve_min,
)
from fracfold.continuation import (
    BranchPoint,
    FoldPolicy,
    TracePolicy,
    _arclength_points,
    _arclength_weight,
    _corrector,
    _fold_point,
    _tangent,
    asymptotic_bifurcation_probe,
    fold_round,
    multiplicity_scan,
    small_solution_cap,
    trace_minimal,
    uniqueness_probe,
)
from fracfold.operator import lu_solver, spd_solver
from fracfold.singular import Equation
from fracfold.verify import _Cache, _folded, _nonexistence_bound, _traced


def test_trace_orders_and_positivity(folded_branch):
    minimal = folded_branch.minimal_points()
    sups = [p.sup_norm for p in minimal]
    assert all(a < b for a, b in zip(sups, sups[1:]))
    assert all(p.lambda1 > 0.0 for p in minimal)
    fold = folded_branch.fold_point()
    assert max(p.lam for p in minimal) < fold.lam
    assert max(sups) < fold.sup_norm


def test_every_point_meets_its_stored_residual_bound(folded_branch):
    # arclength points store the bound their corrector enforced
    for p in folded_branch.points:
        assert p.solution.residual <= p.solution.residual_bound, (p.lam, p.segment)


def test_lambda1_changes_sign_exactly_once(folded_branch):
    pts = sorted(folded_branch.points, key=lambda p: p.arclength)
    signs = [p.lambda1 for p in pts]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0.0)
    assert changes == 1


def test_trace_stops_solving_at_the_first_failed_step(monkeypatch, op256_s04, canonical_spec):
    # one solve per geometric point plus the failing step; past it the fold is
    # solved for, not bracketed by more solves that may fail for any reason
    lams = []
    original = fracfold.continuation.solve_min

    def counted(lam, *args, **kwargs):
        lams.append(lam)
        return original(lam, *args, **kwargs)

    monkeypatch.setattr(fracfold.continuation, "solve_min", counted)
    branch = trace_minimal(canonical_spec, op256_s04)
    assert len(lams) == len(branch.minimal_points()) + 1
    assert lams[-1] > branch.fold_point().lam
    assert branch.points[-1] is branch.fold_point()


def test_trace_without_a_starting_point_is_a_convergence_error(monkeypatch, canonical_spec):
    # every minimal solve fails: lam is halved from LAMBDA_START * lambda_1
    # until it falls below LAMBDA_FLOOR * lambda_1, and no further
    op = assemble_operator(build_grid(1.0, 64), canonical_spec.s)
    lam1 = fracfold.operator.principal_eigenpair(op).value
    lams = []

    def failing(lam, *args, **kwargs):
        lams.append(lam)
        raise ConvergenceError("planted")

    monkeypatch.setattr(fracfold.continuation, "solve_min", failing)
    with pytest.raises(ConvergenceError, match="no starting point"):
        trace_minimal(canonical_spec, op)
    assert lams[0] == fracfold.continuation.LAMBDA_START * lam1
    assert all(b == 0.5 * a for a, b in zip(lams, lams[1:]))
    assert lams[-1] >= fracfold.continuation.LAMBDA_FLOOR * lam1 > 0.5 * lams[-1]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_trace_starts_where_the_first_minimal_solve_succeeds(monkeypatch, canonical_spec, k):
    # the first k minimal solves fail: the branch starts at 0.02 lambda_1 / 2^k
    op = assemble_operator(build_grid(1.0, 64), canonical_spec.s)
    lam1 = fracfold.operator.principal_eigenpair(op).value
    original, calls = fracfold.continuation.solve_min, []

    def failing_first(lam, *args, **kwargs):
        calls.append(lam)
        if len(calls) <= k:
            raise ConvergenceError("planted")
        return original(lam, *args, **kwargs)

    monkeypatch.setattr(fracfold.continuation, "solve_min", failing_first)
    branch = trace_minimal(canonical_spec, op)
    assert branch.points[0].lam == 0.02 * lam1 / 2 ** k
    assert branch.points[-1] is branch.fold_point()


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_fold_solve_converges_to_the_apex(monkeypatch, accept_cfg, accept_cache, canonical_spec, n):
    # the Moore-Spence solve from the last geometric point takes a few Newton
    # steps to a positive u and phi, and no arclength sample lies above it
    tol = accept_cfg.newton_tol
    traced = _traced(accept_cache, n, tol)
    sizes = []

    def counted(jac, **kwargs):
        sizes.append(len(jac))
        return lu_solver(jac, **kwargs)

    monkeypatch.setattr(fracfold.singular, "lu_solver", counted)  # the bordered LU is the equation's
    fold = _fold_point(traced.minimal_points()[-1])
    # at most one bordered LU per Newton step, of the even block: order n/2 + 1
    assert 1 <= len(sizes) <= 6 and set(sizes) == {n // 2 + 1}
    assert fold.lam == traced.fold_point().lam
    assert fold.solution.values.min() > 0.0
    assert fold.eigenvector.min() > 0.0
    monkeypatch.undo()
    apex = max(p.lam for p in _folded(accept_cache, n, tol).points)
    assert abs(apex - fold.lam) <= 1e-6 * fold.lam


def _assert_fold_bends(branch):
    fold = branch.fold
    assert fold is not None
    assert abs(fold.lambda_prime) <= 1e-2
    assert fold.quadratic_coeff < 0.0
    assert fold.fit_residual <= 1e-4
    apex, lam_fold = max(p.lam for p in branch.points), branch.fold_point().lam
    assert abs(apex - lam_fold) <= 1e-6 * lam_fold


def test_fold_bending(folded_branch):
    _assert_fold_bends(folded_branch)


def test_fold_bending_n512(accept_cfg, accept_cache):
    # the fit window is the FIT_HALFWIDTH arclength points on either side of
    # the solved fold, never the coarse geometric points before them
    _assert_fold_bends(_folded(accept_cache, 512, accept_cfg.newton_tol))


def test_upper_segment_unstable(folded_branch):
    uppers = folded_branch.upper_points()
    assert len(uppers) >= 3
    assert all(p.lambda1 < 0.0 for p in uppers)


def test_monitor_near_zero_at_fold(folded_branch):
    apex = max(folded_branch.points, key=lambda p: p.lam)
    assert apex.monitor is not None
    assert apex.monitor <= 5e-3  # grid-dependent; co-occurs with the eigenvalue crossing
    assert abs(apex.lambda1) <= 5e-3


def test_branch_curve_is_continuous(folded_branch, op256_s04):
    w = _arclength_weight(op256_s04, folded_branch.fold_point().sup_norm)
    pts = sorted(folded_branch.points, key=lambda p: p.arclength)
    for a, b in zip(pts, pts[1:]):
        dsup = abs(b.sup_norm - a.sup_norm)
        assert dsup <= (b.arclength - a.arclength) / w * (1.0 + 1e-9)


def test_nonexistence_above_fold(folded_branch, op256_s04, canonical_spec):
    # past the phi_1 bound no solution exists, so the solve must fail
    lam_est = folded_branch.fold_point().lam
    for factor in (1.05, 1.3):
        assert factor * lam_est > _nonexistence_bound(canonical_spec, op256_s04)
        with pytest.raises(ConvergenceError):
            solve_min(factor * lam_est, canonical_spec, op256_s04)


def test_multiplicity_gaps(folded_branch):
    lam_est = folded_branch.fold_point().lam
    rows = multiplicity_scan(folded_branch, [0.5 * lam_est, 0.7 * lam_est, 0.9 * lam_est])
    assert all(r["complete"] for r in rows)
    gaps = {round(r["lam"] / lam_est, 1): r["gap"] for r in rows}
    assert gaps[0.5] > gaps[0.7] > gaps[0.9] > 1e-7
    for r in rows:
        ressup = np.abs(r["second"].values).max()
        assert ressup > r["minimal"].sup_norm  # the second solution sits above


def _carrying(branch, spec):
    """The branch with every point's solution relabelled as a solution of `spec` at the point's lam."""
    points = [
        BranchPoint(replace(p.solution, spec=replace(spec, lam=p.lam)), p.op, p.tol, p.arclength, p.segment)
        for p in branch.points
    ]
    return replace(branch, points=points)


def test_multiplicity_requires_power_and_beta_zero(folded_branch, canonical_spec):
    # the checks read the problem the branch's points carry and fire before
    # the branch is extended: on a good branch they are the only ValueError
    with pytest.raises(ValueError, match="power nonlinearity"):
        multiplicity_scan(_carrying(folded_branch, replace(canonical_spec, nonlinearity=no_nonlinearity())), [0.1])
    with pytest.raises(ValueError, match="beta = 0"):
        multiplicity_scan(_carrying(folded_branch, replace(canonical_spec, beta=0.1)), [0.1])


def test_fold_round_rejects_an_operator_or_problem_not_the_branch_s(canonical_spec):
    # the rounding reads op and spec from the fold point; handed others, it
    # says so rather than round one problem's fold with another's data
    op = assemble_operator(build_grid(1.0, 64), canonical_spec.s)
    traced = trace_minimal(canonical_spec, op)
    with pytest.raises(ValueError, match="traced for"):
        fold_round(traced, assemble_operator(build_grid(1.0, 64), canonical_spec.s), canonical_spec)
    with pytest.raises(ValueError, match="traced for"):
        fold_round(traced, op, replace(canonical_spec, delta=0.6))
    # a spec's own lam is no part of the problem
    rounded = fold_round(traced, op, replace(canonical_spec, lam=0.3), FoldPolicy(steps=2))
    assert rounded.upper_points() and rounded.fold.quadratic_coeff < 0.0


def test_asymptotic_probe_growth_and_extension(folded_branch):
    fold_sup = folded_branch.fold_point().sup_norm
    apex_lam = max(p.lam for p in folded_branch.points)
    probe = asymptotic_bifurcation_probe(folded_branch, growth_cap=30.0, steps=400)
    sup_max = probe.table[:, 1].max()
    assert sup_max >= 10.0 * fold_sup
    assert probe.lambda_a <= apex_lam / 10.0
    probe2 = asymptotic_bifurcation_probe(probe.branch, growth_cap=120.0, steps=400)
    assert probe2.lambda_a < probe.lambda_a
    minimal_sups = [p.sup_norm for p in folded_branch.minimal_points()]
    assert max(minimal_sups) <= fold_sup * (1.0 + 1e-9)


def test_probe_to_the_default_cap_takes_few_points_and_factorizations(monkeypatch, folded_branch):
    # the probe steps in the amplitude's own scale, so it reaches the default
    # cap of 1e3 times the fold's sup in 21 points and 39 bordered LUs (351
    # and 80 with every step weighted by the fold's amplitude)
    calls = []
    original = fracfold.operator.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracfold.operator, "lu_factor", counted)
    probe = asymptotic_bifurcation_probe(folded_branch, steps=400)
    added = len(probe.branch.points) - len(folded_branch.points)
    assert probe.stopped == "cap"
    assert added <= 25 and len(calls) <= 45


def test_probe_steps_by_a_constant_factor_of_the_amplitude(folded_branch):
    # beyond 4x the fold's sup every step is of ds_max in the relative weight
    # 1/(sqrt(n) sup): consecutive sups differ by a factor of 1.3594-1.3601,
    # evenly spaced in log sup, and cap 300 is reached in 31 upper points
    # (123 with the fold's weight)
    fold_sup = folded_branch.fold_point().sup_norm
    probe = asymptotic_bifurcation_probe(folded_branch, growth_cap=300.0, steps=800)
    sups = [p.sup_norm for p in probe.branch.upper_points()]
    ratios = [b / a for a, b in zip(sups, sups[1:]) if a > 4.0 * fold_sup]
    assert len(ratios) >= 10 and all(1.35 <= r <= 1.37 for r in ratios)
    assert probe.stopped == "cap" and len(sups) <= 40


def test_probe_says_why_it_stopped(monkeypatch, folded_branch):
    assert asymptotic_bifurcation_probe(folded_branch, steps=2).stopped == "steps"
    monkeypatch.setattr(fracfold.continuation, "_corrector", lambda *args: None)
    probe = asymptotic_bifurcation_probe(folded_branch, steps=400)
    assert probe.stopped == "step_failure" and len(probe.branch.points) == len(folded_branch.points)


def test_an_exponential_probe_stops_at_the_lam_floor():
    # f = e^u at s = 0.4, delta = 0.5 has no amplitude cap within reach: its
    # upper segment runs down to lam <= 1e-8 at sup about 26
    expu = Nonlinearity(kind="custom", f_fn=np.exp, fp_fn=np.exp, fpp_fn=np.exp)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=expu)
    op = assemble_operator(build_grid(1.0, 256), spec.s)
    probe = asymptotic_bifurcation_probe(fold_round(trace_minimal(spec, op), op, spec), growth_cap=300.0, steps=800)
    assert probe.stopped == "lam_floor"
    assert probe.lambda_a <= 1e-8 and probe.table[-1, 1] < 300.0 * probe.branch.fold_point().sup_norm


def _upper_tangent(branch, w, i):
    a, b = branch.upper_points()[i - 1 : i + 1]
    return _tangent(w, (a.solution.values, a.lam), (b.solution.values, b.lam))


def test_corrector_recovers_from_a_stale_factor(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # a stored factor from the far end of the upper segment still gives a
    # point that meets its residual bound and the arclength equation; the
    # corrector has to factor afresh on the way
    op, spec, tol, ds = op256_s04, canonical_spec, 1e-8, 0.02
    w = _arclength_weight(op, folded_branch.fold_point().sup_norm)
    upper = folded_branch.upper_points()
    far = upper[-1]
    far_udot, far_lamdot = _upper_tangent(folded_branch, w, len(upper) - 1)
    stale = Equation.of(op, spec, far.lam).bordered_solver(far.solution.values, w ** 2 * far_udot, far_lamdot)
    fresh = []
    original = Equation.bordered_solver

    def counted(self, *args):
        fresh.append(1)
        return original(self, *args)

    monkeypatch.setattr(Equation, "bordered_solver", counted)
    udot, lamdot = _upper_tangent(folded_branch, w, 1)
    u0, lam0 = upper[1].solution.values, upper[1].lam
    store = [stale]
    u, lam, res, bound = _corrector(Equation.of(op, spec, 0.0), (u0, lam0), (udot, lamdot), ds, w, tol, store)
    assert res <= bound
    assert np.abs(Equation.of(op, spec, lam).residual(u)).max() == res
    assert abs(w ** 2 * (udot @ (u - u0)) + lamdot * (lam - lam0) - ds) <= tol * (1.0 + ds)
    assert len(fresh) >= 1
    assert len(store) <= 1 and (not store or store[0] is not stale)


def test_arclength_run_falls_back_to_fresh_newton(monkeypatch, folded_branch, op256_s04):
    # every reuse of a stored factor returns a zero step, so each corrector
    # that reuses one fails its line search and runs again with a fresh
    # factor at every step, at the same ds: the run yields the points of a
    # run that never reuses
    w = _arclength_weight(op256_s04, folded_branch.fold_point().sup_norm)
    upper = folded_branch.upper_points()
    start, tangent = upper[-1], _upper_tangent(folded_branch, w, len(upper) - 1)
    policy = FoldPolicy(steps=12)

    def run():
        return [(p.lam, p.arclength) for p in _arclength_points(policy, lambda u: w, start, tangent, "upper")]

    real = fracfold.continuation._corrector
    monkeypatch.setattr(fracfold.continuation, "_corrector", lambda *args: real(*args[:6]))
    monkeypatch.setattr(fracfold.singular, "CHORD_RATIO", 0.0)
    never_reused = run()
    monkeypatch.undo()

    useless = []
    original = Equation.bordered_solver

    def planted(self, *args):
        solve = original(self, *args)
        if solve is None:
            return None
        uses = []

        def stored(x):
            uses.append(1)
            if len(uses) == 1:  # the step that made the factor
                return solve(x)
            useless.append(1)
            return np.zeros_like(x)

        return stored

    monkeypatch.setattr(Equation, "bordered_solver", planted)
    fallen_back = run()
    assert len(useless) >= policy.steps - 1
    assert len(fallen_back) == len(never_reused) == policy.steps
    for (lam_a, sig_a), (lam_b, sig_b) in zip(fallen_back, never_reused):
        assert abs(lam_a - lam_b) <= 1e-8
        assert abs(sig_a - sig_b) <= 1e-8


def test_upper_extension_leaves_the_input_branch_alone(folded_branch):
    before = list(folded_branch.points)
    lam_est = folded_branch.fold_point().lam
    multiplicity_scan(folded_branch, [0.9 * lam_est])
    probe = asymptotic_bifurcation_probe(folded_branch, growth_cap=3.0, steps=40)
    assert len(probe.branch.points) > len(before)
    assert len(folded_branch.points) == len(before)
    assert all(a is b for a, b in zip(folded_branch.points, before))


def test_upper_extension_computes_no_stability(monkeypatch, folded_branch):
    # the probe and the multiplicity extension read lam and sup_norm only, so no
    # point they add computes its lambda1 or monitor
    calls = []
    for name in ("lambda1", "fredholm_monitor"):
        original = getattr(fracfold.continuation, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fracfold.continuation, name, counted)
    lam_est = folded_branch.fold_point().lam
    multiplicity_scan(folded_branch, [0.5 * lam_est])
    asymptotic_bifurcation_probe(folded_branch, growth_cap=30.0, steps=400)
    assert calls == []


def test_asymptotic_tail_power_law(folded_branch):
    # natural scaling of the superlinear term: sup ~ lam^(-1/(p-1)) on the tail
    probe = asymptotic_bifurcation_probe(folded_branch, growth_cap=60.0, steps=400)
    table = probe.table
    tail = table[table[:, 1] >= 8.0 * folded_branch.fold_point().sup_norm]
    slope = np.polyfit(np.log(tail[:, 0]), np.log(tail[:, 1]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_no_step_of_the_default_branch_is_rejected(monkeypatch, op256_s04, canonical_spec):
    # every corrected step of the default rounding and probe meets the angle
    # bound: with no bound at all, each point keeps its bits
    def points():
        branch = fold_round(trace_minimal(canonical_spec, op256_s04), op256_s04, canonical_spec)
        probe = asymptotic_bifurcation_probe(branch, growth_cap=30.0, steps=400)
        return [(p.lam, p.arclength, p.solution.values) for p in probe.branch.points]

    bounded = points()
    monkeypatch.setattr(fracfold.continuation, "MIN_COSINE", -np.inf)
    unbounded = points()
    assert len(bounded) == len(unbounded)
    for (lam_a, sig_a, u_a), (lam_b, sig_b, u_b) in zip(bounded, unbounded):
        assert lam_a == lam_b and sig_a == sig_b and np.array_equal(u_a, u_b)


def test_a_step_that_jumps_off_its_branch_is_rejected():
    # f = e^u at s = 0.4, delta = 0.5: without a bound on the angle between a
    # step's secant and its predictor tangent, the probe jumps from the upper
    # segment at sup 8.06, lam 0.0395 onto the minimal solution at lam 0.2909
    # (cosine 0.33) and follows the minimal branch down, labelled "upper"
    expu = Nonlinearity(kind="custom", f_fn=np.exp, fp_fn=np.exp, fpp_fn=np.exp)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=expu)
    op = assemble_operator(build_grid(1.0, 256), spec.s)
    branch = fold_round(trace_minimal(spec, op), op, spec)
    upper = asymptotic_bifurcation_probe(branch, growth_cap=300.0, steps=800).branch.upper_points()
    compared = 0
    for p in upper:
        with suppress(ConvergenceError):  # no minimal solve there, so no minimal solution to land on
            minimal = solve_min(p.lam, spec, op)
            compared += 1
            assert np.abs(minimal.values - p.solution.values).max() > 1e-6, p.lam
        assert p.lambda1 < 0.0, p.lam
    assert compared >= len(upper) // 2


def test_uniqueness_probe_small_lambda(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.fold_point().lam
    report = uniqueness_probe(lam, canonical_spec, op256_s04, trials=10, seed=3)
    assert report.verdict == "unique"
    assert all(t["outcome"] in ("minimal", "diverged", "left_admissible_set") for t in report.trials)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_uniqueness_probe_outcomes_do_not_depend_on_the_factor_precision(
    monkeypatch, folded_branch, op256_s04, canonical_spec, seed
):
    # the multistarts lie below the cap, so their Jacobians are factored in
    # float32; with every Newton run held to float64 the probe gives the same
    # outcome at every start, and each converged start lands on the minimal
    # solution within the probe's bound on either side
    lam = 1e-3 * folded_branch.fold_point().lam
    factored = set()
    original = fracfold.continuation.spd_solver

    def recorded(jac, **kwargs):
        factored.add((len(jac), jac.dtype.type))
        return original(jac, **kwargs)

    monkeypatch.setattr(fracfold.continuation, "spd_solver", recorded)
    single = uniqueness_probe(lam, canonical_spec, op256_s04, trials=10, seed=seed)
    assert factored == {(op256_s04.n, np.float32)}
    factored.clear()
    monkeypatch.setattr(Equation, "precision", lambda self, u0: np.float64)
    double = uniqueness_probe(lam, canonical_spec, op256_s04, trials=10, seed=seed)
    assert factored == {(op256_s04.n, np.float64)}
    assert single.verdict == double.verdict == "unique"
    assert [t["outcome"] for t in single.trials] == [t["outcome"] for t in double.trials]
    bound = 10.0 * 1e-8 * max(1.0, solve_min(lam, canonical_spec, op256_s04).sup_norm)
    assert all(t["distance"] <= bound for t in single.trials + double.trials if t["outcome"] == "minimal")


def test_uniqueness_probe_start_at_minimal(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.fold_point().lam
    minimal = solve_min(lam, canonical_spec, op256_s04)
    vals, res, _ = Equation.of(op256_s04, canonical_spec, lam).solve(minimal.values, 1e-10, lu_solver, 60)
    assert np.abs(vals - minimal.values).max() <= 1e-8


def test_uniqueness_probe_scaled_starts(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.fold_point().lam
    cap = small_solution_cap(canonical_spec, op256_s04)
    minimal = solve_min(lam, canonical_spec, op256_s04)
    limits = []
    for factor in (0.5, 2.0):
        start = np.minimum(factor * minimal.values, cap)
        vals, _, _ = Equation.of(op256_s04, canonical_spec, lam).solve(start, 1e-10, lu_solver, 60)
        limits.append(vals)
    assert np.abs(limits[0] - limits[1]).max() <= 1e-8
    assert np.abs(limits[0] - minimal.values).max() <= 1e-7


def test_uniqueness_probe_records_diverged_and_escaped_starts(monkeypatch, folded_branch, op256_s04, canonical_spec):
    # the first multistart raises, the second lands above the amplitude cap
    # and the third runs: neither planted outcome falsifies uniqueness
    lam = 1e-3 * folded_branch.fold_point().lam
    cap = small_solution_cap(canonical_spec, op256_s04)
    solve, starts = Equation.solve, []

    def planted(self, u0, tol, factor, maxit):
        if factor is not spd_solver:  # solve_min's own solve, by partial(spd_solver, n=n)
            return solve(self, u0, tol, factor, maxit)
        starts.append(u0)
        if len(starts) == 1:
            raise ConvergenceError("planted")
        if len(starts) == 2:
            return np.full(op256_s04.n, 2.0 * cap), 0.0, 1.0
        return solve(self, u0, tol, factor, maxit)

    monkeypatch.setattr(Equation, "solve", planted)
    report = uniqueness_probe(lam, canonical_spec, op256_s04, trials=3, seed=3)
    assert [t["outcome"] for t in report.trials] == ["diverged", "left_admissible_set", "minimal"]
    assert report.trials[1]["sup"] == 2.0 * cap and report.verdict == "unique"


def test_uniqueness_probe_caps_a_zero_nonlinearity_at_one(monkeypatch, op256_s04):
    # with f = 0 every amplitude is in the decreasing window: the cap is inf
    # and the probe draws its starts below 1.0
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=no_nonlinearity())
    assert small_solution_cap(spec, op256_s04) == np.inf
    solve, starts = Equation.solve, []

    def recording(self, u0, tol, factor, maxit):
        if factor is spd_solver:
            starts.append(u0)
        return solve(self, u0, tol, factor, maxit)

    monkeypatch.setattr(Equation, "solve", recording)
    report = uniqueness_probe(1e-3, spec, op256_s04, trials=2, seed=5)
    assert report.verdict == "unique" and len(starts) == 2
    rng = np.random.default_rng(5)
    for start in starts:
        assert np.array_equal(start, 1.0 * rng.uniform(0.02, 1.0, size=op256_s04.n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.05, 0.95),
    delta=st.floats(0.05, 4.0),
    beta_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    p_frac=st.floats(0.01, 1.0),
    c=st.floats(0.1, 10.0),
    lam=st.floats(1e-4, 10.0),
    n=st.integers(8, 96),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_multistart_jacobians_below_the_cap_are_positive_definite(s, delta, beta_frac, p_frac, c, lam, n, seed):
    # uniqueness_probe factors its multistarts by Cholesky alone: at a start
    # drawn as it draws them, cap * U(0.02, 1), every potential entry
    # lam (delta K_i u_i^(-delta-1) - f'(u_i)) is >= 0 since K_i >= min K,
    # so J = A + diag(potential) dominates A and its Cholesky succeeds, in
    # float64 and in the float32 that Newton factors such a start's J in
    p = 1.0 + 0.99 * p_frac * (min(ProblemSpec(s=s, delta=delta).subcritical_limit, 8.0) - 1.0)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, nonlinearity=power_nonlinearity(p, c))
    spec.require_subcritical()
    op = assemble_operator(build_grid(1.0, n), s)
    u = small_solution_cap(spec, op) * np.random.default_rng(seed).uniform(0.02, 1.0, size=n)
    eq = Equation.of(op, spec, lam)
    assert (eq.potential(u) >= 0.0).all() and eq.precision(u) is np.float32
    assert spd_solver(eq.jacobian(u)) is not None
    assert spd_solver(eq.jacobian(u, out=np.empty((n, n), np.float32))) is not None


@pytest.mark.parametrize("c,p", [(1.0, 2.0), (0.3, 3.5)])
def test_small_solution_cap_scan_lands_within_one_grid_ratio(op256_s04, canonical_spec, c, p):
    # a custom f = c t^p takes the scan, whose grid steps by 10^(16/2048):
    # it gives the last grid point at or below the power law's closed form
    power = replace(canonical_spec, nonlinearity=power_nonlinearity(p, c))
    custom = replace(
        canonical_spec,
        nonlinearity=Nonlinearity(
            kind="custom",
            f_fn=lambda t: c * t ** p,
            fp_fn=lambda t: c * p * t ** (p - 1.0),
            fpp_fn=lambda t: c * p * (p - 1.0) * t ** (p - 2.0),
        ),
    )
    closed = small_solution_cap(power, op256_s04)
    scanned = small_solution_cap(custom, op256_s04)
    assert closed / 10.0 ** (16.0 / 2048.0) < scanned <= closed


def test_verify_caches_each_branch_at_its_tolerance():
    # a second call at another tolerance traces its own branch instead of
    # handing back the first call's
    cache = _Cache()
    loose, tight = _traced(cache, 64, 1e-6), _traced(cache, 64, 1e-10)
    assert (loose.fold_point().tol, tight.fold_point().tol) == (1e-6, 1e-10)
    assert _traced(cache, 64, 1e-6) is loose
    for tol, traced in ((1e-6, loose), (1e-10, tight)):
        assert _folded(cache, 64, tol).fold_point() is traced.fold_point()


def test_uniqueness_probe_requires_window(folded_branch, op256_s04, canonical_spec):
    with pytest.raises(ValueError):
        uniqueness_probe(0.9 * folded_branch.fold_point().lam, canonical_spec, op256_s04)


def test_lambda1_extrapolation_predicts_fold(folded_branch):
    # linear extrapolation of the last two stability eigenvalues to zero lands
    # at the solved fold (square-root vanishing makes it land just beyond)
    minimal = folded_branch.minimal_points()
    (l1a, la), (l1b, lb) = [(p.lambda1, p.lam) for p in minimal[-2:]]
    slope = (l1b - l1a) / (lb - la)
    crossing = lb - l1b / slope
    assert abs(crossing - folded_branch.fold_point().lam) <= 2e-3 * folded_branch.fold_point().lam


def test_multiplicity_scan_on_a_coarse_branch(canonical_spec):
    op = assemble_operator(build_grid(1.0, 96), canonical_spec.s)
    branch = fold_round(trace_minimal(canonical_spec, op), op, canonical_spec, FoldPolicy(steps=400))
    rows = multiplicity_scan(branch, [0.2])
    assert rows[0]["complete"]
    assert rows[0]["gap"] > 1e-3


def test_fold_curvature_matches_spectral_projection(folded_branch, op256_s04, canonical_spec):
    # independent oracle: projecting the second-order branch expansion onto
    # the (near-)null eigenvector at the apex gives the bending coefficient
    # -phi.(G_uu[udot,udot]) / phi.G_lam in the arclength parametrization
    from fracfold.linearization import lambda1

    apex = max(folded_branch.points, key=lambda p: p.lam)
    u, lam = apex.solution.values, apex.lam
    w = _arclength_weight(op256_s04, folded_branch.fold_point().sup_norm)
    op, spec = op256_s04, canonical_spec
    phi = lambda1(lam, u, op, spec).vector
    k = spec.k_field(op.grid)
    guu = -lam * (spec.delta * (spec.delta + 1.0) * k * u ** (-spec.delta - 2.0)
                  + spec.nonlinearity.fsecond(u))
    glam = -(k * u ** (-spec.delta) + spec.nonlinearity.f(u))
    udot = phi / (w * np.linalg.norm(phi))
    analytic = -(phi @ (guu * udot * udot)) / (phi @ glam)
    assert analytic < 0.0
    assert folded_branch.fold.quadratic_coeff == pytest.approx(analytic, rel=0.1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.1, 0.9),
    delta=st.floats(0.1, 4.0),
    beta_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    p=st.floats(1.5, 3.0),
)
@example(s=0.1, delta=1.109375, beta_frac=0.0, p=2.671875)  # the first fold solve diverges
def test_branch_pipeline_across_parameters(s, delta, beta_frac, p):
    # trace, fold solve and rounding succeed, lambda1 changes sign at the fold
    # and matches the dense oracle at every point, and the branch bends back.
    # Among the drawn sets, one fold solve starts again from a closer point and
    # the shifted-Cholesky fallback of lambda1 runs on some points.
    op = assemble_operator(build_grid(1.0, 128), s)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, nonlinearity=power_nonlinearity(p))
    branch = fold_round(trace_minimal(spec, op, TracePolicy()), op, spec, FoldPolicy())
    assert branch.fold.quadratic_coeff < 0.0
    fold = branch.fold_point()
    if spec.beta == 0.0:
        assert fold.lam <= _nonexistence_bound(spec, op)
    assert branch.upper_points()
    for point in branch.points:
        potential = Equation.of(op, spec, point.lam).potential(point.solution.values)
        oracle = np.linalg.eigvalsh(op.dense() + np.diag(potential))[0]
        assert point.lambda1 == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle))), (point.segment, point.lam)
        if point.segment == "minimal":
            assert point.lambda1 > 0.0, point.lam
        elif point.segment == "upper":
            assert point.lambda1 < 0.0, point.lam
