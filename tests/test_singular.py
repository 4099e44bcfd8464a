import warnings
from contextlib import suppress
from dataclasses import replace
from functools import partial

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
from fracfold import operator as operator_module
from fracfold import singular
from fracfold.continuation import TracePolicy, _corrector, trace_minimal
from fracfold.linearization import lambda1
from fracfold.operator import lu_solver, matvec, principal_eigenpair, spd_solver, unfold
from fracfold.problem import Nonlinearity
from fracfold.singular import (
    Equation,
    monotone_iterate,
    pure_singular_cached,
    pure_singular_start,
    subsolution_constant,
    torsion_field,
)
from fracfold.verify import _BRANCH_SPEC, _nonexistence_bound
from fracfold.weights import Regime, classify_regime


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
    return np.abs(op.dense() @ u - lam * (k * u ** (-spec.delta) + spec.nonlinearity.f(u))).max()


def _regularized(spec, op, eps, tol=1e-8):
    """Solution u of A u = K_eps (u + eps)^(-delta), K_eps = min(1/eps, K), the theory's regularization.

    In v = u + eps it is the Equation A v = K_eps v^(-delta) + eps A 1.  Newton
    starts from v = max((K_eps / diag A)^(1/(1+delta)), eps), a subsolution
    since (A v)_i <= A_ii v_i for an A with nonpositive off-diagonals, and
    the iterates rise onto the unique solution.
    """
    k_eps = np.minimum(1.0 / eps, spec.k_field(op.grid))
    eq = singular.Equation(op, k_eps, spec.delta, no_nonlinearity(), 1.0, rhs=eps * op.dense().sum(axis=1))
    start = np.maximum((k_eps / op.diagonal) ** (1.0 / (1.0 + spec.delta)), eps)
    v, _, _ = eq.solve(start, tol, singular.spd_solver, 80)
    return v - eps


def _phi_start(spec, op):
    """c* phi_1: the largest discrete subsolution along the principal eigenfunction."""
    phi = principal_eigenpair(op).vector
    return subsolution_constant(spec, op, phi) * phi


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
    assert np.all(field.values >= _phi_start(spec, op256) * (1.0 - 1e-6))


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
    assert field.values.min() > 0.0


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
    # the solution lies above every subsolution: the eigenfunction's and the wall's
    assert np.all(u >= _phi_start(spec, op) - slack)
    wall = (spec.k_field(op.grid) / np.diagonal(op.dense())) ** (1.0 / (1.0 + spec.delta))
    assert np.all(u >= wall - slack)
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
# beta / 2s = 0.95: a boundary layer like d^(2s/(1+delta)), far steeper than phi_1's d^s
STEEP_SPEC = ProblemSpec(s=0.9, delta=12.0, beta=1.71)


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
    # rise from the cached pure solution, then factorizations of the steep
    # wall layer's pure singular solve
    calls, factors = [], []
    monkeypatch.setattr(singular, "spd_solver", _counting(singular.spd_solver, calls, factors))
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
    # the start's profile and wall term sit on the layer, so the solve makes
    # 4 factorizations at every n = 128-1024; from c* phi_1 and the wall term
    # it made 9-12, from c* phi_1 alone 45-68
    counts = []
    for n in (128, 256, 512, 1024):
        op = assemble_operator(build_grid(1.0, n), STEEP_SPEC.s)
        factors.clear()
        solve_pure_singular(STEEP_SPEC, op)
        counts.append(len(factors))
    assert max(counts) <= 6 and all(b - a <= 2 for a, b in zip(counts, counts[1:])), counts


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.05, 0.95),
    delta=st.floats(0.01, 20.0),
    beta_frac=st.floats(0.0, 0.95),
    coeff=st.floats(1e-3, 1e3),
    n=st.integers(8, 400),
    half_width=st.floats(0.1, 10.0),
)
@example(s=0.9, delta=12.0, beta_frac=0.95, coeff=1.0, n=255, half_width=1.0)
@example(s=0.05, delta=20.0, beta_frac=0.0, coeff=1e-3, n=8, half_width=10.0)
def test_pure_singular_start_is_an_even_subsolution(s, delta, beta_frac, coeff, n, half_width):
    # the start v = max(c b, (K / diag A)^(1/(1+delta))) is even bit for bit
    # and meets A v <= K v^(-delta) at every node up to rounding: the
    # computed product is within n eps (|A| v)_i of the exact one (Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 3), and c, b and the
    # wall term each carry a few roundings of K v^(-delta).  Newton rises
    # from it, so the solution is nowhere below it
    op = assemble_operator(build_grid(half_width, n), s)
    spec = ProblemSpec(s=s, delta=delta, beta=beta_frac * 2.0 * s, coeff=coeff)
    v = pure_singular_start(spec, op)
    assert np.array_equal(v, v[::-1]) and v.min() > 0.0
    mat = op.dense()
    source = spec.k_field(op.grid) * v ** (-delta)
    assert np.all(mat @ v <= source + n * np.finfo(float).eps * (np.abs(mat) @ v + source))
    assert np.all(solve_pure_singular(spec, op).values >= v)


def test_subsolution_constant_is_the_largest_for_any_positive_profile(op256):
    # a spike at the centre pushes (A b)_i below 0 beside it, where c b is a
    # subsolution for every c; elsewhere the largest c makes A (c b) = K (c
    # b)^(-delta) at one node, up to rounding
    spec = ProblemSpec(s=0.4, delta=1.5, beta=0.2)
    profile = np.ones(op256.n)
    profile[127:129] = 50.0
    assert op256.apply(profile).min() < 0.0
    v = subsolution_constant(spec, op256, profile) * profile
    mat = op256.dense()
    source = spec.k_field(op256.grid) * v ** (-spec.delta)
    assert np.all(mat @ v <= source + op256.n * np.finfo(float).eps * (np.abs(mat) @ v + source))
    assert np.max(mat @ v / source) == pytest.approx(1.0, rel=1e-12)


# a spec of each regime of beta/s + delta against 1 (`weights.classify_regime`)
REGIME_SPECS = {
    Regime.SUB: ProblemSpec(s=0.4, delta=0.5, beta=0.0),
    Regime.CRITICAL: ProblemSpec(s=0.4, delta=0.5, beta=0.2),
    Regime.SUPER: ProblemSpec(s=0.75, delta=3.0, beta=0.6),
}


def test_pure_singular_factorizations_do_not_grow_with_n(monkeypatch):
    # the start vanishes at the wall at the solution's own rate in every
    # regime, so the factorization count stays within one over n = 256-2048
    # (1, 2 and 2-3 here; from c* phi_1 and the wall term the super spec
    # made 6-8)
    factors = []
    monkeypatch.setattr(singular, "spd_solver", _counting(singular.spd_solver, [], factors))
    for regime, spec in REGIME_SPECS.items():
        assert classify_regime(spec.s, spec.delta, spec.beta) is regime
        counts = []
        for n in (256, 512, 1024, 2048):
            op = assemble_operator(build_grid(1.0, n), spec.s)
            factors.clear()
            solve_pure_singular(spec, op)
            counts.append(len(factors))
        assert max(counts) - min(counts) <= 1, (regime, counts)


def test_pure_singular_solve_needs_no_eigenpair(monkeypatch):
    # the start's constant comes from one product A b: no phi_1 is computed or cached
    eigen, original = [], operator_module.smallest_eigenpairs

    def counted(*args, **kwargs):
        eigen.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operator_module, "smallest_eigenpairs", counted)
    for spec in (*RATES_SPECS, *REGIME_SPECS.values(), STEEP_SPEC):
        op = assemble_operator(build_grid(1.0, 256), spec.s)
        solve_pure_singular(spec, op)
        assert "phi1" not in op._cache
    assert eigen == []


@pytest.mark.parametrize("n", [256, 1024])
def test_pure_singular_answer_does_not_depend_on_the_start(n):
    # the stopping test is per node, so the wall node no longer sets the
    # interior's bound: Newton from c* phi_1 alone and from the solver's start
    # land within 1e-8 of each other, relative to the sup (2.4e-6 and 4.3e-6
    # apart under one scale for all nodes)
    op = assemble_operator(build_grid(1.0, n), STEEP_SPEC.s)
    field = solve_pure_singular(STEEP_SPEC, op)
    eq = Equation(op, STEEP_SPEC.k_field(op.grid), STEEP_SPEC.delta, no_nonlinearity(), 1.0)
    start = _phi_start(STEEP_SPEC, op)
    u, res, bound = eq.solve(start, singular.DEFAULT_TOL, partial(spd_solver, n=n), 200)
    assert res <= bound
    assert np.abs(u - field.values).max() <= 1e-8 * field.sup_norm


def test_pure_singular_and_forced_newton_build_their_jacobians_in_float32(monkeypatch):
    # each Jacobian of these runs is written in float32 and factored in place
    # in float32, with no float64 J beside it; a Newton run on the problem's
    # equation from a start whose potential has a negative entry stays in
    # float64
    op = assemble_operator(build_grid(1.0, 256), 0.4)
    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    jacobians, factored = [], []
    original = Equation.jacobian

    def recording(self, u, *args, **kwargs):
        jacobians.append(original(self, u, *args, **kwargs))
        return jacobians[-1]

    def factor(jac, **kwargs):
        factored.append(jac)
        return spd_solver(jac, **kwargs)

    monkeypatch.setattr(Equation, "jacobian", recording)
    monkeypatch.setattr(singular, "spd_solver", factor)
    solve_pure_singular(spec, op)
    pure = len(jacobians)
    solve_A(0.3, np.ones(op.n), op, spec)
    assert pure >= 2 and len(jacobians) > pure
    assert all(j.dtype == np.float32 for j in jacobians)
    assert len(factored) == len(jacobians) and all(np.shares_memory(f, j) for f, j in zip(factored, jacobians))
    eq = Equation.of(op, _BRANCH_SPEC, 0.3)
    start = 2.0 * solve_min(0.3, _BRANCH_SPEC, op).values
    assert eq.potential(start).min() < 0.0
    jacobians.clear()
    eq.solve(start, 1e-8, partial(spd_solver, n=op.n), 60)
    assert jacobians and all(j.dtype == np.float64 for j in jacobians)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    power=st.booleans(),
    lam=st.floats(0.01, 0.1),
    delta=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
    beta_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    scale=st.floats(0.25, 4.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(power=False, lam=0.05, delta=1.0, beta_frac=0.0, scale=0.5, sign=1.0)  # f = 0: float32 at every start
@example(power=True, lam=0.05, delta=0.5, beta_frac=0.0, scale=1.0, sign=1.0)  # f a power: float32 below the cap
@example(power=True, lam=0.05, delta=0.5, beta_frac=0.0, scale=4.0, sign=1.0)  # and float64 far above it
def test_newton_factors_in_float32_exactly_when_the_start_potential_is_nonnegative(
    power, lam, delta, beta_frac, scale, sign
):
    # J(u0) = A + diag(p(u0)) dominates A when every entry of the potential p
    # at the start u0 is >= 0; a Newton run then builds and factors its
    # Jacobians in float32 (and is run again in float64 only if that run
    # fails), and in float64 throughout otherwise.  The pure singular and
    # forced solves (f = 0, lam delta K >= 0) have p >= 0 at every u, so they
    # factor in float32 whatever the spec.  The problem's equation, at lam or
    # -lam, from the scaled pure singular solution times `scale`, follows the
    # sign of its start's potential; and one node raised until its entry of
    # the potential is the one negative entry sends the run to float64
    op = assemble_operator(build_grid(1.0, 64), 0.4)
    nonlinearity = power_nonlinearity(2.0) if power else no_nonlinearity()
    spec = ProblemSpec(s=0.4, delta=delta, beta=beta_frac * 0.8, nonlinearity=nonlinearity)
    dtypes = []

    def factor(jac, **kwargs):
        dtypes.append(jac.dtype.type)
        return spd_solver(jac, **kwargs)

    def factored(run):
        dtypes.clear()
        with suppress(ConvergenceError), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run()
        assert dtypes
        return dtypes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(singular, "spd_solver", factor)
        if delta > 0.0:  # at delta = 0 both are linear solves from their exact start
            assert set(factored(lambda: solve_pure_singular(spec, op))) == {np.float32}
            assert set(factored(lambda: solve_A(lam, np.ones(op.n), op, spec))) == {np.float32}
    eq = replace(Equation.of(op, spec, lam), lam=sign * lam)
    start = scale * scale_pure_singular(pure_singular_cached(spec, op), lam).values
    if np.all(eq.potential(start) >= 0.0):
        assert eq.precision(start) is np.float32
        assert factored(lambda: eq.solve(start, 1e-8, partial(factor, n=op.n), 10))[0] == np.float32
    else:
        assert eq.precision(start) is np.float64
        assert set(factored(lambda: eq.solve(start, 1e-8, partial(factor, n=op.n), 10))) == {np.float64}
    if power and sign > 0.0 and np.all(eq.potential(start) >= 0.0):
        bumped = start.copy()
        bumped[op.n // 3] = 10.0  # lam (delta K u^(-delta-1) - 2 u) < 0 there for every spec drawn
        assert np.count_nonzero(eq.potential(bumped) < 0.0) == 1
        assert eq.precision(bumped) is np.float64
        assert set(factored(lambda: eq.solve(bumped, 1e-8, partial(factor, n=op.n), 10))) == {np.float64}


def _float64_only(n):
    """A factor function that refuses every float32 matrix: its Newton solve is the run-level float64 fallback alone."""
    return lambda jac, **kwargs: spd_solver(jac, n, **kwargs) if jac.dtype == np.float64 else None


def test_a_float32_factor_that_fails_is_made_again_in_float64(op256):
    # A and K times 2^130 (exact in binary) leave the equation's solution as
    # it was, but A's diagonal overflows float32 (max 3.4e38): every float32
    # Jacobian has an infinite entry, its Cholesky is rejected, the float32
    # run fails and is run again in float64, so it ends on the bits of the
    # run whose factor refuses every float32 matrix
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    big = 2.0 ** 130
    op = replace(op256, column=big * op256.column, wall=big * op256.wall, _cache={})
    eq = Equation(op, big * spec.k_field(op.grid), spec.delta, no_nonlinearity(), 1.0)
    reference = pure_singular_cached(spec, op256)
    start = 0.5 * reference.values
    assert eq.precision(start) is np.float32
    made = []

    def factor(jac, **kwargs):
        solve = spd_solver(jac, op.n, **kwargs)
        made.append((jac.dtype.name, solve is not None))
        return solve

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u, res, bound = eq.solve(start, 1e-8, factor, 80)
        assert made[0] == ("float32", False) and set(made[1:]) == {("float64", True)}
        assert res <= bound
        assert np.array_equal(u, eq.solve(start, 1e-8, _float64_only(op.n), 80)[0])
    assert np.abs(u - reference.values).max() <= 1e-8 * reference.sup_norm


def test_a_failed_float32_run_is_run_again_in_float64(op256):
    # a float32 solve that points uphill stalls every float32 run; the run is
    # then made again from the start with float64 factors, to the bits of the
    # run whose factor refuses every float32 matrix, so a ConvergenceError is
    # the float64 Newton's
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    eq = Equation(op256, spec.k_field(op256.grid), spec.delta, no_nonlinearity(), 1.0)
    start = 0.5 * pure_singular_cached(spec, op256).values

    def uphill(jac, **kwargs):
        solve = spd_solver(jac, op256.n, **kwargs)
        return (lambda x: -solve(x)) if jac.dtype == np.float32 else solve

    u, res, bound = eq.solve(start, 1e-8, uphill, 80)
    assert res <= bound
    assert np.array_equal(u, eq.solve(start, 1e-8, _float64_only(op256.n), 80)[0])
    with pytest.raises(ConvergenceError):
        eq.solve(start, 1e-8, lambda jac, **kwargs: None, 80)


def test_pure_singular_solves_reuse_factors():
    # the chord rule: on each rates spec at n=1024 the pure singular solve
    # takes more Newton steps than it makes factorizations
    for spec in RATES_SPECS:
        steps, factors = [], []
        op = assemble_operator(build_grid(1.0, 1024), spec.s)
        eq = singular.Equation(op, spec.k_field(op.grid), spec.delta, spec.nonlinearity, 1.0)
        eq.solve(_phi_start(spec, op), 1e-8, _counting(singular.spd_solver, steps, factors), 80)
        assert len(factors) < len(steps), (spec, len(factors), len(steps))


def test_a_newton_run_builds_every_jacobian_in_one_buffer(monkeypatch, op256, canonical_spec):
    # with a fresh factor at every step, every factorization of one run gets
    # the same memory (the matrices handed over are held, so none is freed
    # for the next to reuse): a random start runs on the nodes (Cholesky of
    # J), an even one on the half grid (J_e), and a run of float32
    # Jacobians that fails is run again into a float64 buffer
    monkeypatch.setattr(singular, "CHORD_RATIO", 0.0)
    lam = 1e-3 * 0.52  # uniqueness_probe's: 1e-3 of the fold's lam
    eq = Equation.of(op256, canonical_spec, lam)
    starts = [np.random.default_rng(0).uniform(0.01, 0.5, op256.n), solve_min(lam, canonical_spec, op256).values * 2.0]
    for start, order in zip(starts, (op256.n, (op256.n + 1) // 2)):
        jacs = []

        def factor(jac, **kwargs):
            jacs.append(jac)
            return spd_solver(jac, **kwargs)

        eq.solve(start, 1e-8, factor, 60)
        assert len(jacs) >= 3 and jacs[0].shape == (order, order)
        assert all(np.shares_memory(jac, jacs[0]) for jac in jacs)

    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    pure = Equation(op256, spec.k_field(op256.grid), spec.delta, spec.nonlinearity, 1.0)
    jacs = []

    def float64_only(jac, **kwargs):
        jacs.append(jac)
        return spd_solver(jac, op256.n, **kwargs) if jac.dtype == np.float64 else None

    pure.solve(_phi_start(spec, op256), 1e-8, float64_only, 80)
    assert [jac.dtype for jac in jacs[:2]] == [np.float32, np.float64] and len(jacs) >= 3
    assert all(np.shares_memory(jac, jacs[1]) for jac in jacs[1:])


def test_newton_tests_convergence_after_its_last_step(monkeypatch, op256):
    # the iterate made by the last allowed step is tested too: a budget of
    # exactly the steps the solve needs converges, one fewer fails.  This is
    # asked of Newton with a fresh factor at every step (no chord step), since
    # a chord run that runs out of steps is run again that way
    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    eq = singular.Equation(op256, spec.k_field(op256.grid), spec.delta, spec.nonlinearity, 1.0)
    start = _phi_start(spec, op256)
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
    start = _phi_start(spec, op256)
    useless = []

    def planted(jac, **kwargs):
        solve, uses = singular.spd_solver(jac, **kwargs), []

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
    mat = op.dense()
    size = np.abs(mat) @ u + lam * (eq.k * u ** (-delta) + nl.f(u)) + 1.0

    # potential: the Jacobian is A + diag(potential); relative steps of 1e-6 in u
    v = u * np.sin(3.0 * x + 0.5)
    h = 1e-6
    fd = (eq.residual(u + h * v) - eq.residual(u - h * v)) / (2.0 * h)
    jv = mat @ v + eq.potential(u) * v
    assert np.all(np.abs(fd - jv) <= 1e-7 * np.abs(eq.potential(u) * v) + 1e-8 * size)
    assert np.allclose(eq.jacobian(u) @ v, jv, rtol=1e-12, atol=1e-12 * size.max())
    # assembled in place, into a new array or the leading block of a larger
    # one, it has the bits of A + diag(potential) and leaves the border alone
    block = np.zeros((n + 1, n + 1))
    eq.jacobian(u, out=block[:n, :n])
    assert np.array_equal(block[:n, :n], mat + np.diag(eq.potential(u)))
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
    trials, steps, factors = [], [], []
    evaluate = singular.Equation.evaluate

    def recording(eq, u, *args, **kwargs):  # damped_newton evaluates the start and each trial once
        r, b = evaluate(eq, u, *args, **kwargs)
        trials.append((u, np.abs(r).max()))
        return r, b

    with pytest.MonkeyPatch.context() as m:
        m.setattr(singular.Equation, "evaluate", recording)
        m.setattr(singular, "spd_solver", _counting(singular.spd_solver, steps, factors))
        u = monotone_iterate(lam, sub, op, spec).values
    # the accepted iterates: the start, then each trial whose merit (the sup residual) fell below the last one's
    iterates, merit = [trials[0][0]], trials[0][1]
    for x, m in trials[1:]:
        if m < merit:
            iterates.append(x)
            merit = m
    slack = singular.ORDER_SLACK * (1.0 + u.max())
    assert len(factors) < len(steps) == len(iterates) - 1
    for before, after in zip(iterates, iterates[1:]):
        assert np.all(after >= before - slack)
    assert np.all(np.array(iterates) <= u[: len(iterates[0])] + slack)  # the run is on the half grid, u's first values


def _zero_operator(n=8):
    return replace(assemble_operator(build_grid(1.0, n), 0.4), column=np.zeros(n), wall=np.zeros(n), _cache={})


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_jacobian_fails_newton_and_corrector():
    op = _zero_operator()
    spec = ProblemSpec(s=0.4, delta=0.0, nonlinearity=no_nonlinearity())
    assert lu_solver(op.dense()) is None and not op.dense().any()
    with pytest.raises(ConvergenceError, match="singular Jacobian"):
        Equation.of(op, spec, 1.0).solve(np.ones(op.n), 1e-8, lu_solver, 60)
    u = np.ones(op.n)
    tangent = (np.ones(op.n) / np.sqrt(op.n), 0.5)
    assert _corrector(Equation.of(op, spec, 1.0), (u, 1.0), tangent, 0.1, 1.0, 1e-8) is None


def test_non_finite_jacobian_is_a_convergence_failure(op16, canonical_spec):
    wall = op16.wall.copy()
    wall[3] = np.nan
    op = replace(op16, wall=wall, _cache={})
    assert lu_solver(op.dense()) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConvergenceError):
            Equation.of(op, canonical_spec, 0.1).solve(np.ones(op.n), 1e-8, lu_solver, 60)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_jacobian_fails_the_cholesky_newton(op16, canonical_spec, bad):
    # the probe's quotient is not finite for a matrix with a non-finite
    # entry, so spd_solver rejects it (it raised ValueError from LAPACK's
    # input check before) and Newton ends in ConvergenceError
    wall = op16.wall.copy()
    wall[3] = bad
    op = replace(op16, wall=wall, _cache={})
    jac = op.dense()
    assert spd_solver(jac) is None
    assert spd_solver(np.asfortranarray(jac), overwrite=True) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConvergenceError):
            Equation.of(op, canonical_spec, 0.1).solve(np.ones(op.n), 1e-8, partial(spd_solver, n=op.n), 60)


@pytest.mark.parametrize("n", [255, 256])
def test_even_residual_comes_from_the_even_block(n, canonical_spec):
    # at an even u A u is Q A_e Q^T u: within 1e-13 of the n x n product
    # and even bit for bit; at an asymmetric u the odd block's half is added,
    # and the sum meets the n x n product to the same bound
    op = assemble_operator(build_grid(1.0, n), canonical_spec.s)
    mat = op.dense()
    x = op.grid.nodes
    u = unfold((1.0 - x[: (n + 1) // 2] ** 2) ** 0.4, n)
    eq = Equation.of(op, canonical_spec, 0.3)
    product = matvec(mat, u)
    r = eq.residual(u)
    assert np.abs(r - (product + eq.lam * eq.d_dlam(u))).max() <= 1e-13 * np.abs(product).max()
    assert np.abs(op.apply(u) - product).max() <= 1e-13 * np.abs(product).max()
    assert np.array_equal(r, r[::-1])
    tilted = u * (1.0 + 0.01 * x)
    product = matvec(mat, tilted)
    assert np.abs(eq.residual(tilted) - (product + eq.lam * eq.d_dlam(tilted))).max() <= 1e-13 * np.abs(product).max()


@pytest.mark.parametrize("even", [True, False])
def test_newton_evaluates_each_trial_once(monkeypatch, op256, even):
    # damped_newton gets the residual and its bound from one evaluate call,
    # made for the start and once for every trial of the line search, and
    # each evaluation computes the source term, and so f, once; an even start
    # runs on the half grid, a tilted one on the nodes
    spec = _BRANCH_SPEC
    op = op256
    lam = 0.3
    start = 0.5 * scale_pure_singular(pure_singular_cached(spec, op), lam).values
    if not even:
        start = start * (1.0 + 0.01 * op.grid.nodes)
    counts = {"evaluate": 0, "trial": 0, "f": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(singular.Equation, "evaluate", counted("evaluate", singular.Equation.evaluate))
    monkeypatch.setattr(singular, "_floored", counted("trial", singular._floored))
    monkeypatch.setattr(Nonlinearity, "f", counted("f", Nonlinearity.f))
    eq = Equation.of(op, spec, lam)
    u, res, bound = eq.solve(start, 1e-8, partial(spd_solver, n=op.n), 60)
    assert res <= bound and len(u) == op.n
    assert counts["trial"] >= 2 and counts["evaluate"] == 1 + counts["trial"] == counts["f"]
