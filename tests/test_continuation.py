import numpy as np
import pytest

from fracfold import SupersolutionNotFound, solve_min
from fracfold.continuation import (
    asymptotic_bifurcation_probe,
    multiplicity_scan,
    small_solution_cap,
    uniqueness_probe,
)
from fracfold.singular import _newton_full


def test_trace_orders_and_positivity(folded_branch):
    minimal = folded_branch.minimal_points()
    sups = [p.sup_norm for p in minimal]
    assert all(a < b for a, b in zip(sups, sups[1:]))
    assert all(p.lambda1 > 0.0 for p in minimal)
    lo, hi = folded_branch.bracket
    assert lo < folded_branch.lambda_estimate <= hi
    assert (hi - lo) <= 1.1e-3 * hi


def test_lambda1_changes_sign_exactly_once(folded_branch):
    pts = sorted(folded_branch.points, key=lambda p: p.arclength)
    signs = [p.lambda1 for p in pts]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0.0)
    assert changes == 1


def test_fold_bending(folded_branch):
    fold = folded_branch.fold
    assert fold is not None
    assert abs(fold.lambda_prime) <= 1e-2
    assert fold.quadratic_coeff < 0.0
    assert fold.fit_residual <= 1e-4
    apex = max(p.lam for p in folded_branch.points)
    lo, hi = fold.bracket
    assert abs(apex - folded_branch.lambda_estimate) <= max(hi - lo, 1e-3 * hi)


def test_upper_segment_unstable(folded_branch):
    uppers = folded_branch.upper_points()
    assert len(uppers) >= 3
    assert all(p.lambda1 < 0.0 for p in uppers)


def test_monitor_near_zero_at_fold(folded_branch):
    apex = max(folded_branch.points, key=lambda p: p.lam)
    assert apex.monitor is not None
    assert apex.monitor <= 5e-3  # grid-dependent; co-occurs with the eigenvalue crossing
    assert abs(apex.lambda1) <= 5e-3


def test_branch_curve_is_continuous(folded_branch):
    w = folded_branch.metric_weight
    pts = sorted(folded_branch.points, key=lambda p: p.arclength)
    for a, b in zip(pts, pts[1:]):
        dsup = abs(b.sup_norm - a.sup_norm)
        assert dsup <= (b.arclength - a.arclength) / w * (1.0 + 1e-9)


def test_nonexistence_above_fold(folded_branch, op256_s04, canonical_spec):
    lam_est = folded_branch.lambda_estimate
    for factor in (1.05, 1.3):
        with pytest.raises(SupersolutionNotFound):
            solve_min(factor * lam_est, canonical_spec, op256_s04)


def test_multiplicity_gaps(folded_branch, op256_s04, canonical_spec):
    lam_est = folded_branch.lambda_estimate
    rows = multiplicity_scan(
        canonical_spec, op256_s04, [0.5 * lam_est, 0.7 * lam_est, 0.9 * lam_est], branch=folded_branch
    )
    assert all(r["complete"] for r in rows)
    gaps = {round(r["lam"] / lam_est, 1): r["gap"] for r in rows}
    assert gaps[0.5] > gaps[0.7] > gaps[0.9] > 1e-7
    for r in rows:
        ressup = np.abs(r["second"].values).max()
        assert ressup > r["minimal"].sup_norm  # the second solution sits above


def test_multiplicity_requires_power_and_beta_zero(op256_s04, canonical_spec):
    from dataclasses import replace

    from fracfold import no_nonlinearity

    with pytest.raises(ValueError):
        multiplicity_scan(replace(canonical_spec, nonlinearity=no_nonlinearity()), op256_s04, [0.1])
    with pytest.raises(ValueError):
        multiplicity_scan(replace(canonical_spec, beta=0.1), op256_s04, [0.1])


def test_asymptotic_probe_growth_and_extension(folded_branch, op256_s04, canonical_spec):
    fold_sup = folded_branch.fold.u_at_fold.sup_norm
    apex_lam = max(p.lam for p in folded_branch.points)
    probe = asymptotic_bifurcation_probe(folded_branch, op256_s04, canonical_spec, growth_cap=30.0, steps=400)
    sup_max = probe.table[:, 1].max()
    assert sup_max >= 10.0 * fold_sup
    assert probe.lambda_a <= apex_lam / 10.0
    probe2 = asymptotic_bifurcation_probe(probe.branch, op256_s04, canonical_spec, growth_cap=120.0, steps=400)
    assert probe2.lambda_a < probe.lambda_a
    minimal_sups = [p.sup_norm for p in folded_branch.minimal_points()]
    assert max(minimal_sups) <= fold_sup * (1.0 + 1e-9)



def test_upper_extension_leaves_the_input_branch_alone(folded_branch, op256_s04, canonical_spec):
    before = list(folded_branch.points)
    lam_est = folded_branch.lambda_estimate
    multiplicity_scan(canonical_spec, op256_s04, [0.9 * lam_est], branch=folded_branch)
    probe = asymptotic_bifurcation_probe(folded_branch, op256_s04, canonical_spec, growth_cap=3.0, steps=40)
    assert len(probe.branch.points) > len(before)
    assert len(folded_branch.points) == len(before)
    assert all(a is b for a, b in zip(folded_branch.points, before))

def test_asymptotic_tail_power_law(folded_branch, op256_s04, canonical_spec):
    # natural scaling of the superlinear term: sup ~ lam^(-1/(p-1)) on the tail
    probe = asymptotic_bifurcation_probe(folded_branch, op256_s04, canonical_spec, growth_cap=60.0, steps=400)
    table = probe.table
    tail = table[table[:, 1] >= 8.0 * folded_branch.fold.u_at_fold.sup_norm]
    slope = np.polyfit(np.log(tail[:, 0]), np.log(tail[:, 1]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_uniqueness_probe_small_lambda(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.lambda_estimate
    report = uniqueness_probe(lam, canonical_spec, op256_s04, trials=10, seed=3)
    assert report.verdict == "unique"
    assert all(t["outcome"] in ("minimal", "diverged", "left_admissible_set") for t in report.trials)


def test_uniqueness_probe_start_at_minimal(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.lambda_estimate
    minimal = solve_min(lam, canonical_spec, op256_s04)
    vals, res, _ = _newton_full(op256_s04, canonical_spec, lam, minimal.values, 1e-10)
    assert np.abs(vals - minimal.values).max() <= 1e-8


def test_uniqueness_probe_scaled_starts(folded_branch, op256_s04, canonical_spec):
    lam = 1e-3 * folded_branch.lambda_estimate
    cap = small_solution_cap(canonical_spec, op256_s04)
    minimal = solve_min(lam, canonical_spec, op256_s04)
    limits = []
    for factor in (0.5, 2.0):
        start = np.minimum(factor * minimal.values, cap)
        vals, _, _ = _newton_full(op256_s04, canonical_spec, lam, start, 1e-10)
        limits.append(vals)
    assert np.abs(limits[0] - limits[1]).max() <= 1e-8
    assert np.abs(limits[0] - minimal.values).max() <= 1e-7


def test_uniqueness_probe_requires_window(folded_branch, op256_s04, canonical_spec):
    with pytest.raises(ValueError):
        uniqueness_probe(0.9 * folded_branch.lambda_estimate, canonical_spec, op256_s04)


def test_lambda1_extrapolation_predicts_fold(folded_branch):
    # linear extrapolation of the last two stability eigenvalues to zero lands
    # at the fold estimate (square-root vanishing makes it land just beyond,
    # within a couple of bracket widths)
    minimal = folded_branch.minimal_points()
    (l1a, la), (l1b, lb) = [(p.lambda1, p.lam) for p in minimal[-2:]]
    slope = (l1b - l1a) / (lb - la)
    crossing = lb - l1b / slope
    assert abs(crossing - folded_branch.lambda_estimate) <= 2e-3 * folded_branch.lambda_estimate


def test_multiplicity_scan_builds_its_own_branch(canonical_spec):
    from fracfold import assemble_operator, build_grid

    op = assemble_operator(build_grid(1.0, 96), canonical_spec.s)
    rows = multiplicity_scan(canonical_spec, op, [0.2])
    assert rows[0]["complete"]
    assert rows[0]["gap"] > 1e-3


def test_fold_curvature_matches_spectral_projection(folded_branch, op256_s04, canonical_spec):
    # independent oracle: projecting the second-order branch expansion onto
    # the (near-)null eigenvector at the apex gives the bending coefficient
    # -phi.(G_uu[udot,udot]) / phi.G_lam in the arclength parametrization
    from fracfold.linearization import lambda1_pairs

    apex = max(folded_branch.points, key=lambda p: p.lam)
    u, lam = apex.solution.values, apex.lam
    w = folded_branch.metric_weight
    op, spec = op256_s04, canonical_spec
    phi = lambda1_pairs(lam, u, op, spec, k=1)[0].vector
    k = spec.k_field(op.grid)
    guu = -lam * (spec.delta * (spec.delta + 1.0) * k * u ** (-spec.delta - 2.0)
                  + spec.nonlinearity.fsecond(u))
    glam = -(k * u ** (-spec.delta) + spec.nonlinearity.f(u))
    udot = phi / (w * np.linalg.norm(phi))
    analytic = -(phi @ (guu * udot * udot)) / (phi @ glam)
    assert analytic < 0.0
    assert folded_branch.fold.quadratic_coeff == pytest.approx(analytic, rel=0.1)
