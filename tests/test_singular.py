import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfold import (
    BracketViolation,
    ConvergenceError,
    ProblemSpec,
    assemble_operator,
    build_grid,
    no_nonlinearity,
    power_nonlinearity,
    scale_pure_singular,
    solve_A,
    solve_dirichlet,
    solve_min,
    solve_pure_singular,
)
from fracfold import singular
from fracfold.continuation import TracePolicy, _corrector, trace_minimal
from fracfold.linearization import lambda1
from fracfold.operator import lu_solver, principal_eigenpair
from fracfold.problem import Nonlinearity
from fracfold.singular import (
    Equation,
    monotone_iterate,
    pure_singular_cached,
    subsolution_constant,
    torsion_field,
)
from fracfold.verify import _BRANCH_SPEC, _nonexistence_bound
from fracfold.weights import build_weight_profile, cone_norms


@pytest.fixture(scope="module")
def op256():
    return assemble_operator(build_grid(1.0, 256), 0.4)


@pytest.fixture(scope="module")
def op16():
    return assemble_operator(build_grid(1.0, 16), 0.4)


@pytest.fixture(scope="module")
def op192_s05():
    return assemble_operator(build_grid(1.0, 192), 0.5)


def _residual(op, spec, lam, u):
    k = spec.k_field(op.grid)
    return np.abs(op.matrix @ u - lam * (k * u ** (-spec.delta) + spec.nonlinearity.f(u))).max()


def _regularized(spec, op, eps, tol=1e-8):
    """Solution u of A u = K_eps (u + eps)^(-delta), K_eps = min(1/eps, K), the theory's regularization.

    In v = u + eps it is the Equation A v = K_eps v^(-delta) + eps A 1.  Newton
    starts from v = max((K_eps / diag A)^(1/(1+delta)), eps), a subsolution
    since (A v)_i <= A_ii v_i for an A with nonpositive off-diagonals, and
    the iterates rise onto the unique solution.
    """
    k_eps = np.minimum(1.0 / eps, spec.k_field(op.grid))
    eq = singular.Equation(op, k_eps, spec.delta, no_nonlinearity(), 1.0, rhs=eps * op.matrix.sum(axis=1))
    start = np.maximum((k_eps / np.diag(op.matrix)) ** (1.0 / (1.0 + spec.delta)), eps)
    v, _, _ = eq.solve(start, tol, singular.spd_solver, 80)
    return v - eps


def test_regularized_monotone_in_eps(op256):
    spec = ProblemSpec(s=0.4, delta=1.0, beta=0.0)
    fields = [_regularized(spec, op256, eps) for eps in (0.5, 0.25, 0.125)]
    slack = 1e-12
    assert np.all(fields[1] >= fields[0] - slack)
    assert np.all(fields[2] >= fields[1] - slack)


def test_regularized_eps_refinement(op192_s05):
    # away from the wall the regularized solutions converge to the eps = 0
    # solve, at first order in eps
    spec = ProblemSpec(s=0.5, delta=1.0, beta=0.0)
    u = solve_pure_singular(spec, op192_s05).values
    away = op192_s05.grid.distance() >= 0.1
    errs = [np.abs(_regularized(spec, op192_s05, eps) - u)[away].max() for eps in (1e-3, 1e-4)]
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.2 * errs[0]


def test_pure_singular_delta_zero(op256):
    spec = ProblemSpec(s=0.4, delta=0.0, beta=0.0)
    field = solve_pure_singular(spec, op256)
    assert np.array_equal(field.values, solve_dirichlet(op256, np.ones(256)))


def test_pure_singular_residual_and_subsolution(op256):
    spec = ProblemSpec(s=0.4, delta=1.5, beta=0.2)
    field = solve_pure_singular(spec, op256)
    assert _residual(op256, spec, 1.0, field.values) <= field.residual_bound
    cstar = subsolution_constant(spec, op256)
    phi = principal_eigenpair(op256).vector
    assert np.all(field.values >= cstar * phi * (1.0 - 1e-6))


@pytest.mark.parametrize(
    "delta,target",
    [(3.0, 0.2), (0.5, 0.4)],
)
def test_pure_singular_boundary_exponent(delta, target):
    op = assemble_operator(build_grid(1.0, 1024), 0.4)
    spec = ProblemSpec(s=0.4, delta=delta, beta=0.0)
    field = solve_pure_singular(spec, op)
    from fracfold import fit_boundary_exponent

    alpha, _ = fit_boundary_exponent(field.values, op.grid)
    assert alpha == pytest.approx(target, abs=0.05)


def test_scale_identity_and_exactness(op256):
    spec = ProblemSpec(s=0.4, delta=1.0, beta=0.0)
    u1 = solve_pure_singular(spec, op256)
    assert np.array_equal(scale_pure_singular(u1, 1.0).values, u1.values)
    u4 = scale_pure_singular(u1, 4.0)
    assert np.allclose(u4.values, 2.0 * u1.values, rtol=0, atol=0)
    # residual against the lam-weighted equation, recomputed independently
    res = _residual(op256, ProblemSpec(s=0.4, delta=1.0, beta=0.0, coeff=4.0), 1.0, u4.values)
    assert res <= 2.0 * u1.residual_bound
    with pytest.raises(ValueError):
        scale_pure_singular(u1, -1.0)


def test_scale_delta_zero(op256):
    spec = ProblemSpec(s=0.4, delta=0.0, beta=0.0)
    u1 = solve_pure_singular(spec, op256)
    u3 = scale_pure_singular(u1, 3.0)
    assert np.allclose(u3.values, 3.0 * u1.values)


def test_scaling_law_matches_direct_solve(op256):
    for delta in (0.5, 3.0):
        base = ProblemSpec(s=0.4, delta=delta, beta=0.1)
        u1 = solve_pure_singular(base, op256)
        direct = solve_pure_singular(ProblemSpec(s=0.4, delta=delta, beta=0.1, coeff=0.25), op256)
        scaled = scale_pure_singular(u1, 0.25)
        assert np.abs(direct.values - scaled.values).max() <= 2e-8


def test_solve_A_trivial_cases(op256):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    pure = solve_pure_singular(ProblemSpec(s=0.4, delta=0.5, beta=0.0, coeff=0.3), op256)
    via_A = solve_A(0.3, np.zeros(256), op256, spec)
    assert np.abs(via_A.values - pure.values).max() <= 1e-7
    h = np.abs(op256.grid.nodes)
    lin = solve_A(0.0, h, op256, spec)
    assert np.array_equal(lin.values, solve_dirichlet(op256, h))


def test_solve_A_monotone_in_forcing(op256, rng):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    h1 = rng.uniform(0.0, 1.0, size=256)
    h2 = h1 + rng.uniform(0.0, 1.0, size=256)
    u1 = solve_A(0.2, h1, op256, spec).values
    u2 = solve_A(0.2, h2, op256, spec).values
    assert np.all(u2 >= u1 - 1e-10)


def test_solve_A_bracket(op256):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    h = np.full(256, 0.7)
    out = solve_A(0.2, h, op256, spec).values
    usub = scale_pure_singular(pure_singular_cached(spec, op256), 0.2).values
    upper = usub + 0.7 * torsion_field(op256)
    assert np.all(out >= usub - 1e-10)
    assert np.all(out <= upper + 1e-10)


def test_monotone_iterate_none_nonlinearity(op256):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    lam = 0.1
    # half the solution is a subsolution that leaves Newton work to do
    usub = 0.5 * scale_pure_singular(pure_singular_cached(spec, op256), lam).values
    out = monotone_iterate(lam, usub, op256, spec)
    pure = scale_pure_singular(pure_singular_cached(spec, op256), lam)
    assert np.abs(out.values - pure.values).max() <= 1e-7


def test_monotone_iterate_two_brackets_agree(op256, canonical_spec):
    # from the singular subsolution and from a higher one, the solution at 0.9 lam joined in
    lam = 0.4
    usub = scale_pure_singular(pure_singular_cached(canonical_spec, op256), lam).values
    below = solve_min(0.9 * lam, canonical_spec, op256).values
    r1 = monotone_iterate(lam, usub, op256, canonical_spec)
    r2 = monotone_iterate(lam, np.maximum(usub, below), op256, canonical_spec)
    assert np.any(below > usub)
    assert np.abs(r1.values - r2.values).max() <= 1e-7


def test_monotone_iterate_rejects_crossed_bracket(op256, canonical_spec):
    # a supersolution passed as the subsolution: Newton descends below it
    u_min = solve_min(0.05, canonical_spec, op256).values
    with pytest.raises(BracketViolation):
        monotone_iterate(0.05, 2.0 * u_min, op256, canonical_spec)


def test_monotone_iterate_requires_convexity(op256):
    # f(t) = t - t^2 / 10 has f'' < 0, and with delta = 0 nothing offsets it
    concave = Nonlinearity(
        kind="custom",
        f_fn=lambda t: t - 0.1 * t ** 2,
        fp_fn=lambda t: 1.0 - 0.2 * t,
        fpp_fn=lambda t: np.full_like(t, -0.2),
    )
    spec = ProblemSpec(s=0.4, delta=0.0, beta=0.0, nonlinearity=concave)
    with pytest.raises(ValueError, match="not convex"):
        solve_min(0.1, spec, op256)


def test_solve_min_small_lambda_limit(op256, canonical_spec):
    lam = 1e-3
    field = solve_min(lam, canonical_spec, op256)
    usub = scale_pure_singular(pure_singular_cached(canonical_spec, op256), lam).values
    assert field.sup_norm <= 0.02
    assert np.abs(field.values / usub - 1.0).max() <= 1e-3


def test_solve_min_monotone_in_lambda(op256, canonical_spec):
    u_half = solve_min(0.05, canonical_spec, op256).values
    u_full = solve_min(0.1, canonical_spec, op256).values
    assert np.all(u_half <= u_full + 1e-10)


def test_solve_min_delta_zero_against_picard_oracle(op256):
    # independent fixed-point oracle with no singular machinery
    spec = ProblemSpec(s=0.4, delta=0.0, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    lam = 0.2
    mine = solve_min(lam, spec, op256)
    u = np.zeros(256)
    for _ in range(5000):
        unew = solve_dirichlet(op256, lam * (1.0 + u ** 2))
        if np.abs(unew - u).max() < 1e-12:
            u = unew
            break
        u = unew
    assert np.abs(u - mine.values).max() <= 1e-6


def test_solve_min_residual_contract(op256, canonical_spec):
    field = solve_min(0.2, canonical_spec, op256)
    assert _residual(op256, canonical_spec, 0.2, field.values) <= field.residual_bound
    profile = build_weight_profile(principal_eigenpair(op256).vector, canonical_spec.s, canonical_spec.delta, 0.0)
    assert cone_norms(field.values, profile).cone_lower > 0.0


def test_solve_min_rejects_nonpositive_lambda(op256, canonical_spec):
    with pytest.raises(ValueError):
        solve_min(0.0, canonical_spec, op256)


def test_end_to_end_comparison_principle(op256):
    # ordered data (lam, K) force ordered solutions across solver entry points
    spec_lo = ProblemSpec(s=0.4, delta=1.0, beta=0.0, coeff=0.5)
    spec_hi = ProblemSpec(s=0.4, delta=1.0, beta=0.0, coeff=1.0)
    u_lo = solve_pure_singular(spec_lo, op256).values
    u_hi = solve_pure_singular(spec_hi, op256).values
    assert np.all(u_lo <= u_hi + 1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.1, 0.9),
    delta=st.floats(0.1, 12.0),
    beta_frac=st.floats(0.0, 0.95),
    coeff=st.floats(0.01, 50.0),
)
@example(s=0.9, delta=12.0, beta_frac=0.0, coeff=1.0)
@example(s=0.12846782773568963, delta=10.75, beta_frac=0.75, coeff=13.0)
def test_pure_singular_properties(s, delta, beta_frac, coeff):
    op = assemble_operator(build_grid(1.0, 256), s)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, coeff=coeff)
    field = solve_pure_singular(spec, op)
    u = field.values
    assert _residual(op, spec, 1.0, u) <= field.residual_bound
    slack = 1e-10 * (1.0 + u.max())
    # Newton rises from the eigenfunction subsolution it starts at
    lower = subsolution_constant(spec, op) * principal_eigenpair(op).vector
    assert np.all(u >= lower - slack)
    # the regularized solution is a subsolution of the eps = 0 problem
    assert np.all(u >= _regularized(spec, op, 1e-2) - slack)
    # larger weight, larger solution
    heavier = solve_pure_singular(ProblemSpec(s=s, delta=delta, beta=spec.beta, coeff=2.0 * coeff), op).values
    assert np.all(heavier >= u - slack)


# the three specs of the `rates` suite
RATES_SPECS = [
    ProblemSpec(s=0.4, delta=0.5, beta=0.0),
    ProblemSpec(s=0.4, delta=3.0, beta=0.0),
    ProblemSpec(s=0.5, delta=1.0, beta=0.0),
]


def _counting(factor, steps, factors=None):
    """`factor`, with each Newton step (a call of a solve it returns) appended to `steps`
    and each factorization to `factors`."""

    def counted(jac, **kwargs):
        if factors is not None:
            factors.append(1)
        solve = factor(jac, **kwargs)
        if solve is None:
            return None

        def step(v):
            steps.append(1)
            return solve(v)

        return step

    return counted


def test_pure_singular_newton_count_is_mesh_independent(monkeypatch):
    # Newton steps of the pure singular solves, then of minimal solves that
    # rise from the cached pure solution
    calls = []
    monkeypatch.setattr(singular, "spd_solver", _counting(singular.spd_solver, calls))
    for spec in RATES_SPECS:
        counts = []
        for n in (256, 1024):
            op = assemble_operator(build_grid(1.0, n), spec.s)
            calls.clear()
            solve_pure_singular(spec, op)
            counts.append(len(calls))
        assert min(counts) >= 2 and max(counts) <= 12, (spec, counts)
        assert abs(counts[0] - counts[1]) <= 2, (spec, counts)
    ops = {n: assemble_operator(build_grid(1.0, n), _BRANCH_SPEC.s) for n in (256, 1024)}
    for lam in (0.26, 0.50):
        counts = []
        for n, op in ops.items():
            pure_singular_cached(_BRANCH_SPEC, op)
            calls.clear()
            solve_min(lam, _BRANCH_SPEC, op)
            counts.append(len(calls))
        assert min(counts) >= 2 and max(counts) <= 12, (lam, counts)
        assert abs(counts[0] - counts[1]) <= 2, (lam, counts)


def test_pure_singular_solves_reuse_factors():
    # the chord rule: on each rates spec at n=1024 the pure singular solve
    # takes more Newton steps than it makes factorizations
    for spec in RATES_SPECS:
        steps, factors = [], []
        op = assemble_operator(build_grid(1.0, 1024), spec.s)
        eq = singular.Equation(op, spec.k_field(op.grid), spec.delta, spec.nonlinearity, 1.0)
        start = subsolution_constant(spec, op) * principal_eigenpair(op).vector
        eq.solve(start, 1e-8, _counting(singular.spd_solver, steps, factors), 80)
        assert len(factors) < len(steps), (spec, len(factors), len(steps))


def test_newton_tests_convergence_after_its_last_step(monkeypatch, op256):
    # the iterate made by the last allowed step is tested too: a budget of
    # exactly the steps the solve needs converges, one fewer fails.  This is
    # asked of Newton with a fresh factor at every step (no chord step), since
    # a chord run that runs out of steps is run again that way
    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    eq = singular.Equation(op256, spec.k_field(op256.grid), spec.delta, spec.nonlinearity, 1.0)
    start = subsolution_constant(spec, op256) * principal_eigenpair(op256).vector
    steps, chord_steps = [], []
    chord, _, _ = eq.solve(start, 1e-8, _counting(singular.spd_solver, chord_steps), 80)
    with monkeypatch.context() as m:
        m.setattr(singular, "CHORD_RATIO", 0.0)
        u, res, bound = eq.solve(start, 1e-8, _counting(singular.spd_solver, steps), 80)
        needed = len(steps)
        assert needed >= 2 and res <= bound
        again, _, _ = eq.solve(start, 1e-8, singular.spd_solver, needed)
        assert np.array_equal(again, u)
        with pytest.raises(ConvergenceError, match="stalled"):
            eq.solve(start, 1e-8, singular.spd_solver, needed - 1)
    # with chord steps: the run's own step count converges to its iterate, and
    # one fewer falls back to the fresh-factor run, which converges to Newton's
    again, _, _ = eq.solve(start, 1e-8, singular.spd_solver, len(chord_steps))
    assert np.array_equal(again, chord)
    fallback, _, _ = eq.solve(start, 1e-8, singular.spd_solver, len(chord_steps) - 1)
    assert len(chord_steps) > needed and np.array_equal(fallback, u)


def test_stale_factor_falls_back_to_fresh_newton(monkeypatch, op256):
    # every reuse of a factor returns a zero step, so the chord run fails its
    # line search and runs again with a fresh factor at every step: it returns
    # exactly the iterate of Newton without reuse
    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    eq = singular.Equation(op256, spec.k_field(op256.grid), spec.delta, spec.nonlinearity, 1.0)
    start = subsolution_constant(spec, op256) * principal_eigenpair(op256).vector
    useless = []

    def planted(jac):
        solve, uses = singular.spd_solver(jac), []

        def stored(v):
            uses.append(1)
            if len(uses) == 1:  # the step that made the factor
                return solve(v)
            useless.append(1)
            return np.zeros_like(v)

        return stored

    u, res, bound = eq.solve(start, 1e-8, planted, 80)
    assert len(useless) == 1 and res <= bound
    monkeypatch.setattr(singular, "CHORD_RATIO", 0.0)
    reference, _, _ = eq.solve(start, 1e-8, singular.spd_solver, 80)
    assert np.array_equal(u, reference)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.1, 0.9),
    delta=st.floats(0.0, 12.0),
    beta_frac=st.floats(0.0, 0.95),
    lam=st.floats(0.01, 2.0),
    power=st.sampled_from([None, 1.5, 2.0, 3.0]),
)
@example(s=0.4, delta=0.5, beta_frac=0.0, lam=0.5, power=2.0)
@example(s=0.9, delta=12.0, beta_frac=0.95, lam=2.0, power=3.0)
def test_equation_derivatives_match_finite_differences(s, delta, beta_frac, lam, power):
    n = 64
    op = assemble_operator(build_grid(1.0, n), s)
    nl = power_nonlinearity(power) if power is not None else no_nonlinearity()
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, nonlinearity=nl)
    x = op.grid.nodes
    eq = singular.Equation(op, spec.k_field(op.grid), delta, nl, lam, rhs=np.cos(x))
    u = 0.05 + (1.0 - x ** 2) * (1.0 + 0.3 * np.sin(5.0 * x))
    # size of the terms of G, which bounds the rounding error of a difference of residuals
    size = np.abs(op.matrix) @ u + lam * (eq.k * u ** (-delta) + nl.f(u)) + 1.0

    # potential: the Jacobian is A + diag(potential); relative steps of 1e-6 in u
    v = u * np.sin(3.0 * x + 0.5)
    h = 1e-6
    fd = (eq.residual(u + h * v) - eq.residual(u - h * v)) / (2.0 * h)
    jv = op.matrix @ v + eq.potential(u) * v
    assert np.all(np.abs(fd - jv) <= 1e-7 * np.abs(eq.potential(u) * v) + 1e-8 * size)
    assert np.allclose(eq.jacobian(u) @ v, jv, rtol=1e-12, atol=1e-12 * size.max())
    # assembled in place, into a new array or the leading block of a larger
    # one, it has the bits of A + diag(potential) and leaves the border alone
    block = np.zeros((n + 1, n + 1))
    eq.jacobian(u, out=block[:n, :n])
    assert np.array_equal(block[:n, :n], op.matrix + np.diag(eq.potential(u)))
    assert np.array_equal(eq.jacobian(u), block[:n, :n])
    assert not block[n].any() and not block[:, n].any()

    # d_dlam: G is affine in lam
    dl = 1e-3 * lam
    fd_lam = (replace(eq, lam=lam + dl).residual(u) - replace(eq, lam=lam - dl).residual(u)) / (2.0 * dl)
    assert np.all(np.abs(fd_lam - eq.d_dlam(u)) <= 1e-14 * size / dl)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.1, 0.9),
    delta=st.floats(0.0, 4.0),
    beta_frac=st.floats(0.0, 0.9),
    power=st.sampled_from([1.5, 2.0, 3.0]),
    coeff=st.floats(0.1, 10.0),
    fracs=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).filter(lambda f: f[0] != f[1]),
)
@example(s=0.4, delta=0.5, beta_frac=0.0, power=2.0, coeff=1.0, fracs=(0.5, 1.0))
def test_minimal_solve_properties(s, delta, beta_frac, power, coeff, fracs):
    op = assemble_operator(build_grid(1.0, 128), s)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, coeff=coeff,
                       nonlinearity=power_nonlinearity(power))
    top = 0.5 * _nonexistence_bound(spec, op)
    lam1, lam2 = (top * f for f in sorted(fracs))
    lower, upper = solve_min(lam1, spec, op), solve_min(lam2, spec, op)
    for lam, field in ((lam1, lower), (lam2, upper)):
        u = field.values
        assert _residual(op, spec, lam, u) <= field.residual_bound
        # Newton rises from the scaled pure singular solution
        usub = scale_pure_singular(pure_singular_cached(spec, op), lam).values
        assert np.all(u >= usub - 1e-10 * (1.0 + u.max()))
        # a minimal solution is stable
        assert lambda1(lam, u, op, spec).value > 0.0
    # ordered parameters, ordered minimal solutions
    assert np.all(lower.values <= upper.values + 1e-10 * (1.0 + upper.values.max()))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.1, 0.9),
    delta=st.floats(0.1, 4.0),
    beta_frac=st.floats(0.0, 0.5),
    frac=st.floats(0.1, 0.99),
)
@example(s=0.4, delta=0.5, beta_frac=0.0, frac=0.99)
def test_chord_run_rises_below_the_minimal_solution(s, delta, beta_frac, frac):
    # the monotone iteration of the theory on the discrete problem: from a
    # subsolution, every iterate Newton accepts, chord steps included, lies
    # above the one before and below the minimal solution it converges to
    op = assemble_operator(build_grid(1.0, 128), s)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, nonlinearity=power_nonlinearity(2.0))
    lam = frac * trace_minimal(spec, op, TracePolicy()).fold_point().lam
    sub = scale_pure_singular(pure_singular_cached(spec, op), lam).values
    iterates, steps, factors = [], [], []
    scale = singular.Equation.scale

    def recording(eq, u):  # damped_newton reads the bound at each accepted iterate
        iterates.append(u)
        return scale(eq, u)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(singular.Equation, "scale", recording)
        m.setattr(singular, "spd_solver", _counting(singular.spd_solver, steps, factors))
        u = monotone_iterate(lam, sub, op, spec).values
    slack = singular.ORDER_SLACK * (1.0 + u.max())
    assert len(factors) < len(steps) == len(iterates) - 1
    for before, after in zip(iterates, iterates[1:]):
        assert np.all(after >= before - slack)
    assert np.all(np.array(iterates) <= u + slack)


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
