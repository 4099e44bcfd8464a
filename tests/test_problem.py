import numpy as np
import pytest

from fracfold import ProblemSpec, Regime, build_grid, classify_regime, no_nonlinearity, power_nonlinearity


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(s=1.2, delta=0.5)
    with pytest.raises(ValueError):
        ProblemSpec(s=0.4, delta=-0.1)
    with pytest.raises(ValueError):
        ProblemSpec(s=0.4, delta=0.5, beta=0.8)  # beta >= 2s
    with pytest.raises(ValueError):
        ProblemSpec(s=0.4, delta=0.5, coeff=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(s=0.4, delta=0.5, lam=-1.0)


def test_nonlinearity_validation_and_values():
    with pytest.raises(ValueError):
        power_nonlinearity(1.0)
    with pytest.raises(ValueError):
        power_nonlinearity(2.0, c=0.0)
    nl = power_nonlinearity(2.0, c=3.0)
    t = np.array([0.5, 2.0])
    assert np.allclose(nl.f(t), 3.0 * t ** 2)
    assert np.allclose(nl.fprime(t), 6.0 * t)
    assert np.allclose(nl.fsecond(t), 6.0)
    none = no_nonlinearity()
    assert none.is_none and np.all(none.f(t) == 0.0)


def test_custom_nonlinearity_requires_callables():
    from fracfold.problem import Nonlinearity

    with pytest.raises(ValueError):
        Nonlinearity(kind="custom")
    nl = Nonlinearity(kind="custom", f_fn=np.sinh, fp_fn=np.cosh, fpp_fn=np.sinh)
    assert nl.f(1.0) == pytest.approx(np.sinh(1.0))


def test_hs_flag_and_regime_indicator():
    spec = ProblemSpec(s=0.4, delta=3.0, beta=0.0)
    assert spec.hs_flag  # -0.6 < 1.8
    spec = ProblemSpec(s=0.75, delta=5.0, beta=1.4)
    assert not spec.hs_flag  # 5.3 > 2.5
    assert classify_regime(0.5, 1.0, 0.0) is Regime.CRITICAL  # beta/s + delta - 1 = 0


def test_subcritical_gate():
    spec = ProblemSpec(s=0.4, delta=0.5, nonlinearity=power_nonlinearity(2.0))
    spec.require_subcritical()  # p = 2 < 9
    bad = ProblemSpec(s=0.4, delta=0.5, nonlinearity=power_nonlinearity(9.5))
    with pytest.raises(ValueError):
        bad.require_subcritical()
    high = ProblemSpec(s=0.6, delta=0.5, nonlinearity=power_nonlinearity(50.0))
    high.require_subcritical()  # no constraint for s >= 1/2


def test_k_field():
    g = build_grid(1.0, 64)
    spec = ProblemSpec(s=0.4, delta=1.0, beta=0.3, coeff=2.0)
    k = spec.k_field(g)
    assert np.allclose(k * g.distance() ** 0.3, 2.0)
    assert np.all(ProblemSpec(s=0.4, delta=1.0, coeff=2.0).k_field(g) == 2.0)
