import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfold import (
    ProblemSpec,
    Regime,
    build_grid,
    build_weight_profile,
    classify_regime,
    cone_norms,
    distance_field,
    fit_boundary_exponent,
    holder_seminorm,
    hs_membership_indicator,
    weight_k,
)
from fracfold import assemble_operator
from fracfold.operator import is_even, principal_eigenpair
from fracfold.weights import boundary_exponent, boundary_profile


@pytest.fixture(scope="module")
def grid1023():
    return build_grid(1.0, 1023)


def test_distance_field_basics():
    g = build_grid(1.0, 255)
    d = distance_field(g)
    center = np.argmin(np.abs(g.nodes))
    assert d[center] == pytest.approx(1.0)
    assert np.allclose(d, d[::-1])
    half = np.argmin(np.abs(g.nodes - 0.5))
    assert d[half] == pytest.approx(0.5, abs=g.h)


def test_weight_k_values(grid1023):
    g = grid1023
    const = weight_k(g, 0.0, 2.5, s=0.4)
    assert np.all(const == 2.5)
    k = weight_k(g, 0.3, 1.0, s=0.4)
    d = distance_field(g)
    assert np.allclose(k * d ** 0.3, 1.0, rtol=1e-13)
    i = np.argmin(np.abs(d - 0.5))
    assert k[i] == pytest.approx(0.5 ** -0.3, rel=1e-6)
    with pytest.raises(ValueError):
        weight_k(g, 0.8, 1.0, s=0.4)
    with pytest.raises(ValueError):
        weight_k(g, 0.0, -1.0, s=0.4)


def test_regime_classification_matches_sign():
    assert classify_regime(0.4, 0.5, 0.0) is Regime.SUB
    assert classify_regime(0.5, 1.0, 0.0) is Regime.CRITICAL
    assert classify_regime(0.4, 3.0, 0.0) is Regime.SUPER
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.0, 4.0)
        beta = rng.uniform(0.0, 2.0 * s * 0.999)
        indicator = beta / s + delta - 1.0
        regime = classify_regime(s, delta, beta)
        if indicator < -1e-12:
            assert regime is Regime.SUB
        elif indicator > 1e-12:
            assert regime is Regime.SUPER
        else:
            assert regime is Regime.CRITICAL


def test_weight_profile_formulas(grid1023):
    x = grid1023.nodes
    sub = build_weight_profile(grid1023, s=0.4, delta=0.5, beta=0.0)
    assert np.allclose(sub, (1.0 - x ** 2) ** 0.4, rtol=1e-14)
    crit = build_weight_profile(grid1023, s=0.5, delta=1.0, beta=0.0)
    b = np.sqrt(1.0 - x ** 2)
    assert np.allclose(crit, b * np.log(2.0 / b) ** 0.5, rtol=1e-13)
    sup = build_weight_profile(grid1023, s=0.4, delta=3.0, beta=0.0)
    assert np.allclose(sup, (1.0 - x ** 2) ** 0.2, rtol=1e-14)
    # the profile is the boundary profile over its value at the centre, on any L
    wide = build_grid(2.5, 255)
    prof = build_weight_profile(wide, s=0.3, delta=0.5, beta=0.1)
    assert np.allclose(prof, boundary_profile(wide, 0.3) / 2.5 ** 0.6, rtol=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.05, 0.95),
    delta=st.floats(0.0, 4.0),
    beta_frac=st.floats(0.0, 0.99),
    critical=st.booleans(),
    n=st.sampled_from((255, 256, 1023, 1024)),
)
@example(s=0.5, delta=1.0, beta_frac=0.0, critical=False, n=1023)
@example(s=0.4, delta=2.0, beta_frac=0.0, critical=True, n=1024)
def test_weight_profile_is_even_bounded_and_has_the_boundary_rate(s, delta, beta_frac, critical, n):
    # on the critical line beta/s + delta = 1 (delta scaled into [0, 1]) when
    # asked, else any beta in [0, 2s)
    if critical:
        delta /= 4.0
    beta = s * (1.0 - delta) if critical else beta_frac * 2.0 * s
    g = build_grid(1.0, n)
    b = build_weight_profile(g, s, delta, beta)
    assert is_even(b)
    assert b.min() > 0.0 and b.max() <= 1.0
    gamma = boundary_exponent(s, delta, beta)
    fitted, _ = fit_boundary_exponent(b, g)
    if classify_regime(s, delta, beta) is Regime.CRITICAL:
        # the log factor makes the profile flatter at the wall than d^gamma
        assert fitted < gamma
    else:
        assert abs(fitted - gamma) < 1e-3


def test_cone_norms_identity_homogeneity(grid1023):
    profile = build_weight_profile(grid1023, 0.4, 0.5, 0.0)
    assert cone_norms(profile, profile).cone_norm == pytest.approx(1.0)
    assert cone_norms(2.0 * profile, profile).cone_norm == pytest.approx(2.0)
    assert cone_norms(np.zeros(grid1023.n), profile).cone_norm == 0.0
    assert cone_norms(-profile, profile).cone_norm == pytest.approx(1.0)


def test_fit_exact_on_power_laws(grid1023):
    d = distance_field(grid1023)
    for alpha in (0.1, 0.35, 0.4, 0.6, 0.9):
        fitted, r2 = fit_boundary_exponent(d ** alpha, grid1023)
        assert abs(fitted - alpha) < 1e-3
        assert r2 > 0.999


def test_fit_on_corrected_power(grid1023):
    # oracle: the regression evaluated on closed-form samples of d^0.2 (1+d)
    d = distance_field(grid1023)
    fitted, r2 = fit_boundary_exponent(d ** 0.2 * (1.0 + d), grid1023)
    assert 0.2 <= fitted <= 0.25
    assert r2 > 0.999


def test_fit_on_principal_eigenfunction():
    g = build_grid(1.0, 1024)
    op = assemble_operator(g, 0.5)
    phi = principal_eigenpair(op).vector
    fitted, _ = fit_boundary_exponent(phi, g)
    assert fitted == pytest.approx(0.5, abs=0.05)


def test_fit_refuses_thin_window():
    # at n = 32 only one node has d in [2h, 0.15 L]
    g = build_grid(1.0, 32)
    with pytest.raises(ValueError, match="refine grid"):
        fit_boundary_exponent(distance_field(g) ** 0.5, g)


def test_holder_trivial_fields(grid1023):
    c = np.full(grid1023.n, 2.4)
    assert holder_seminorm(np.zeros(grid1023.n), grid1023, 0.5) == 0.0
    # a field that does not vanish at the wall is dominated by its wall pairs
    assert holder_seminorm(c, grid1023, 0.5) == pytest.approx(2.4 / grid1023.h ** 0.5)


def test_holder_power_law_growth(grid1023):
    # closed-form sampling oracle: at the true exponent the seminorm is
    # refinement-stable; 0.1 above it grows like 2^0.1 per grid doubling
    at_gamma, above = [], []
    for n in (256, 512, 1024):
        g = build_grid(1.0, n)
        d = distance_field(g)
        at_gamma.append(holder_seminorm(d ** 0.3, g, 0.3))
        above.append(holder_seminorm(d ** 0.3, g, 0.4))
    assert max(at_gamma) / min(at_gamma) <= 1.5
    for a, b in zip(above, above[1:]):
        assert 1.05 <= b / a <= 1.09


def test_holder_rejects_bad_gamma(grid1023):
    with pytest.raises(ValueError):
        holder_seminorm(np.ones(grid1023.n), grid1023, 0.0)


def test_hs_indicator_bounded_small_delta(grid1023):
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    u = np.full(grid1023.n, 0.7)
    mass, verdict = hs_membership_indicator(u, grid1023, spec)
    assert verdict == "finite"
    assert mass == pytest.approx(2.0 * 0.7 ** 0.5, rel=1e-2)


def test_hs_indicator_threshold_cases(grid1023):
    d = distance_field(grid1023)
    mass, verdict = hs_membership_indicator(d ** 0.2, grid1023, ProblemSpec(s=0.4, delta=3.0, beta=0.0))
    assert verdict == "finite"
    mass, verdict = hs_membership_indicator(d ** 0.25, grid1023, ProblemSpec(s=0.75, delta=5.0, beta=0.5))
    assert verdict == "diverging"
    with pytest.raises(ValueError):
        hs_membership_indicator(np.zeros(grid1023.n), grid1023, ProblemSpec(s=0.4, delta=0.5))
