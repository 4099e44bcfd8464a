"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one pass/fail line per record (run pytest with -s to see
them) and asserts the criterion.  The checks live in fracfold.verify and are
shared with the CLI's `verify` subcommand.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fracfold import continuation, singular, verify
from fracfold.continuation import ProbeResult
from fracfold.operator import NonlocalOperator
from fracfold.verify import (
    check_asymptotic,
    check_branch,
    check_comparison,
    check_discretization,
    check_fold,
    check_holder,
    check_hs_threshold,
    check_multiplicity,
    check_rates,
    check_scaling,
    check_sensitivity,
    check_uniqueness,
    format_report,
    VerificationRecord,
    VerificationReport,
    _Cache,
)


def _run(check, cfg, cache):
    records = check(cfg, cache)
    assert records, "check produced no records"
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: expected {r.expected}, measured {r.measured} (tol {r.tolerance})")
    failed = [r.name for r in records if not r.passed]
    assert not failed, f"failed records: {failed}"


def test_criterion_01_discretization_oracle(accept_cfg, accept_cache):
    _run(check_discretization, accept_cfg, accept_cache)


def test_criterion_02_mmatrix_comparison(accept_cfg, accept_cache):
    _run(check_comparison, accept_cfg, accept_cache)


def test_criterion_02_mmatrix_rejects_a_planted_positive_pair(accept_cfg, accept_cache):
    # the dense record is the independent check of the sign pattern that
    # assembly derives from its column: an operator whose column has one
    # positive offset (A stays symmetric with A = RAR, and its blocks exact)
    # must fail its record, and only that one
    real = accept_cache.operator(128, 0.4)
    column = real.column.copy()
    column[30] = -column[30]
    cache = _Cache(accept_cache)
    cache[("op", 128, 0.4)] = NonlocalOperator(real.grid, real.s, column, real.wall)
    records = {r.name: r for r in check_comparison(accept_cfg, cache)}
    assert len(records) == 8
    for name, record in records.items():
        assert record.passed is (name != "mmatrix-s0.4-n128"), record


def test_criterion_03_scaling_identity(accept_cfg, accept_cache):
    _run(check_scaling, accept_cfg, accept_cache)


def test_criterion_04_boundary_rates(accept_cfg, accept_cache):
    _run(check_rates, accept_cfg, accept_cache)


@pytest.mark.parametrize("offset", [0.0, 0.1, -0.1])
def test_criterion_04_rates_reject_a_planted_exponent(monkeypatch, accept_cfg, offset):
    # exact power laws d^(alpha + offset) stand in for the pure singular
    # solves, alpha the exponent each record expects (the middle of (0.4,
    # 0.5) for rate-critical).  An exponent 0.1 off, twice each record's
    # tolerance, must fail all three records.  A fresh cache, because the
    # shared one already holds the real solves.
    expected = {(0.4, 0.5): 0.4, (0.4, 3.0): 0.2, (0.5, 1.0): 0.45}

    def power_law(spec, op, tol):
        return SimpleNamespace(values=op.grid.distance() ** (expected[spec.s, spec.delta] + offset))

    monkeypatch.setattr(singular, "solve_pure_singular", power_law)
    records = check_rates(accept_cfg, _Cache())
    assert [r.name for r in records] == ["rate-sub", "rate-super", "rate-critical"]
    for r in records:
        assert r.passed is (offset == 0.0), r


def test_criterion_05_hs_threshold(accept_cfg, accept_cache):
    _run(check_hs_threshold, accept_cfg, accept_cache)


def test_criterion_06_holder_regimes(accept_cfg, accept_cache):
    # the seminorm at the predicted exponent gamma is refinement-stable, and
    # the one at gamma + 0.1 blows up like h^-0.1: its fitted exponent per
    # refinement is 0.1 +- 0.05 (see the README on why a fixed growth factor
    # cannot be asked for alongside the stable clause)
    _run(check_holder, accept_cfg, accept_cache)


@pytest.mark.parametrize("offset, growth_passes", [(0.0, True), (0.2, False), (-0.2, False)])
def test_criterion_06_growth_rejects_wrong_exponent(monkeypatch, accept_cfg, offset, growth_passes):
    # exact power laws d^(gamma + offset) stand in for the solves; a field
    # smoother (e = -0.1) or rougher (e = 0.3) than predicted must fail.  A
    # fresh cache, because the shared one already holds the real solves.
    predicted = {0.5: 0.4, 3.0: 0.2}

    def power_law(spec, op, tol):
        return SimpleNamespace(values=op.grid.distance() ** (predicted[spec.delta] + offset))

    monkeypatch.setattr(singular, "solve_pure_singular", power_law)
    records = {r.name: r for r in check_holder(accept_cfg, _Cache())}
    for name in ("holder-sub", "holder-super"):
        assert records[f"{name}-growth"].passed is growth_passes, records[f"{name}-growth"]
    if growth_passes:
        assert all(r.passed for r in records.values())


def test_criterion_07_minimal_branch(accept_cfg, accept_cache):
    _run(check_branch, accept_cfg, accept_cache)


def _with_fold_lam(branch, lam):
    """A copy of branch whose fold point is replaced by a copy whose solution claims `lam`."""
    fold = branch.fold_point()
    planted = replace(fold, solution=replace(fold.solution, spec=replace(fold.solution.spec, lam=lam)))
    return replace(branch, points=[planted if p is fold else p for p in branch.points])


@pytest.mark.parametrize("factor, passes", [(0.9, False), (1.0, True), (1.1, False)])
def test_criterion_07_existence_pair_rejects_high_lambda(accept_cfg, accept_cache, factor, passes):
    # the folded branches with the lam of their fold point planted 10 % off.
    # Too high, it exceeds the phi_1 bound and no solution exists at 0.95 of
    # it; too low, only the fold point catches it, as it no longer solves there
    cache = _Cache()
    for n in (512, 1024):
        branch = verify._folded(accept_cache, n, accept_cfg.newton_tol)
        cache[("folded", n, accept_cfg.newton_tol)] = _with_fold_lam(branch, factor * branch.fold_point().lam)
    records = {r.name: r for r in check_branch(accept_cfg, cache)}
    assert records["branch-fold-point"].passed is passes, records["branch-fold-point"]
    for name in ("branch-nonexistence", "branch-existence"):
        assert records[name].passed is (passes or factor < 1.0), records[name]


def _with_lambda1(point, value):
    """A copy of point whose cached stability reads lambda1 = value (eigenvector and monitor kept)."""
    pair, monitor = point._stability
    copy = replace(point)
    copy.__dict__["_stability"] = (replace(pair, value=value), monitor)
    return copy


@pytest.mark.parametrize("planted", [False, True])
def test_criterion_07_lambda1_rejects_a_planted_rising_tail(accept_cfg, accept_cache, planted):
    # the folded n=512 branch with the lambda1 of its last four minimal
    # points reversed, so they rise toward the fold: branch-lambda1-n512 must
    # fail, and only it; unplanted, every record passes
    branch = verify._folded(accept_cache, 512, accept_cfg.newton_tol)
    tail = branch.minimal_points()[-4:]
    rising = sorted(p.lambda1 for p in tail)
    assert [p.lambda1 for p in tail] == rising[::-1]
    if planted:
        swap = {id(p): _with_lambda1(p, value) for p, value in zip(tail, rising)}
        branch = replace(branch, points=[swap.get(id(p), p) for p in branch.points])
    cache = _Cache(accept_cache)
    cache[("folded", 512, accept_cfg.newton_tol)] = branch
    records = {r.name: r for r in check_branch(accept_cfg, cache)}
    assert len(records) == 6
    for name, record in records.items():
        assert record.passed is (not planted or name != "branch-lambda1-n512"), record


def test_criterion_08_fold_bending(accept_cfg, accept_cache):
    _run(check_fold, accept_cfg, accept_cache)


@pytest.mark.parametrize("planted", [None, "curvature", "slope"])
def test_criterion_08_fold_rejects_a_planted_fit(monkeypatch, accept_cfg, accept_cache, planted):
    # the real fold fits with lam'' of the wrong sign, or with |lam'| = 2e-2:
    # both fold-* records must fail; unplanted, both pass
    def plant(branch):
        if planted == "curvature":
            return replace(branch, fold=replace(branch.fold, quadratic_coeff=-branch.fold.quadratic_coeff))
        if planted == "slope":
            return replace(branch, fold=replace(branch.fold, lambda_prime=2e-2))
        return branch

    cache = _Cache(accept_cache)
    cache[("folded", 256, accept_cfg.newton_tol)] = plant(verify._folded(accept_cache, 256, accept_cfg.newton_tol))
    real = verify.fold_round
    monkeypatch.setattr(verify, "fold_round", lambda *args, **kwargs: plant(real(*args, **kwargs)))
    records = check_fold(accept_cfg, cache)
    assert [r.name for r in records] == ["fold-a", "fold-b"]
    for r in records:
        assert r.passed is (planted is None), r


def test_criterion_09_multiplicity(accept_cfg, accept_cache):
    _run(check_multiplicity, accept_cfg, accept_cache)


@pytest.mark.parametrize("planted", [False, True])
def test_criterion_09_multiplicity_rejects_a_planted_second_solution(monkeypatch, accept_cfg, accept_cache, planted):
    # the scan's rows with each second solution planted equal to the minimal
    # one (so gap 0): both multiplicity-* records must fail; unplanted, both pass
    real = verify.multiplicity_scan

    def scan(*args, **kwargs):
        rows = real(*args, **kwargs)
        if not planted:
            return rows
        return [{**r, "second": r["minimal"], "gap": 0.0} for r in rows]

    monkeypatch.setattr(verify, "multiplicity_scan", scan)
    records = check_multiplicity(accept_cfg, accept_cache)
    assert [r.name for r in records] == ["multiplicity-distinct", "multiplicity-gap-shrinks"]
    for r in records:
        assert r.passed is not planted, r


def test_criterion_09_multiplicity_records_a_missing_second_solution(monkeypatch, accept_cfg, accept_cache):
    # the last row of the scan without a second solution, as the scan writes
    # it: both records are still made, and the gap order reads "missing"
    real = verify.multiplicity_scan

    def scan(*args, **kwargs):
        rows = real(*args, **kwargs)
        return [*rows[:-1], {**rows[-1], "second": None, "gap": None, "complete": False}]

    monkeypatch.setattr(verify, "multiplicity_scan", scan)
    records = check_multiplicity(accept_cfg, accept_cache)
    assert [r.name for r in records] == ["multiplicity-distinct", "multiplicity-gap-shrinks"]
    assert not any(r.passed for r in records)
    assert records[1].measured == "missing"


def test_criterion_10_asymptotic_bifurcation(accept_cfg, accept_cache):
    _run(check_asymptotic, accept_cfg, accept_cache)


@pytest.mark.parametrize("planted", [False, True])
def test_criterion_10_asymptotic_rejects_a_bounded_upper_segment(monkeypatch, accept_cfg, accept_cache, planted):
    # the probe returns the upper segment it is given, unextended: bounded in
    # sup norm and in lam at whatever budget, so neither the growth nor the
    # decreasing lam infimum holds and both asymptotic-* records must fail;
    # unplanted, both pass
    def bounded(branch, *args, **kwargs):
        upper = branch.upper_points()
        table = np.array([[p.lam, p.sup_norm] for p in upper])
        return ProbeResult(lambda_a=float(table[:, 0].min()), table=table, branch=branch, stopped="steps")

    if planted:
        monkeypatch.setattr(verify, "asymptotic_bifurcation_probe", bounded)
    records = check_asymptotic(accept_cfg, accept_cache)
    assert [r.name for r in records] == ["asymptotic-growth", "asymptotic-extends"]
    for r in records:
        assert r.passed is not planted, r


def test_criterion_11_sensitivity_derivatives(accept_cfg, accept_cache):
    _run(check_sensitivity, accept_cfg, accept_cache)


@pytest.mark.parametrize("planted", ["w1", "v", "w11", "w12", "w22"])
def test_criterion_11_sensitivity_rejects_a_wrong_field(monkeypatch, accept_cfg, accept_cache, planted):
    # the real bundle with one derivative field 0.1 % off: its record must
    # fail, and the four others must still pass
    real = verify.sensitivity_bundle

    def planted_bundle(*args, **kwargs):
        bundle = real(*args, **kwargs)
        return replace(bundle, **{planted: (1.0 + 1e-3) * getattr(bundle, planted)})

    monkeypatch.setattr(verify, "sensitivity_bundle", planted_bundle)
    records = {r.name: r for r in check_sensitivity(accept_cfg, accept_cache)}
    for name in ("w1", "v", "w11", "w12", "w22"):
        assert records[f"sensitivity-{name}"].passed is (name != planted), records[f"sensitivity-{name}"]


def test_criterion_12_small_lambda_uniqueness(accept_cfg, accept_cache):
    _run(check_uniqueness, accept_cfg, accept_cache)


@pytest.mark.parametrize("planted", [False, True])
def test_criterion_12_uniqueness_rejects_a_planted_distinct_solution(monkeypatch, accept_cfg, accept_cache, planted):
    # every multistart solve that converges returns half its field: a positive
    # field below the cap and far from the minimal solution, so the verdict
    # must be falsified; unplanted, the record passes
    class Planted(continuation.Equation):
        def solve(self, *args):
            u, res, bound = super().solve(*args)
            return 0.5 * u, res, bound

    if planted:
        monkeypatch.setattr(continuation, "Equation", Planted)
    (record,) = check_uniqueness(accept_cfg, accept_cache)
    assert record.passed is not planted, record
    assert record.measured.startswith("falsified" if planted else "unique"), record



def test_asymptotic_records_do_not_depend_on_suite_order(accept_cfg):
    # multiplicity extends the same cached upper segment that asymptotic starts from
    def asymptotic(suites):
        records = verify.verify_suite(accept_cfg, suites).records
        return [(r.name, r.measured, r.passed) for r in records if r.name.startswith("asymptotic")]

    alone_first = asymptotic(["asymptotic", "multiplicity"])
    assert [name for name, _, _ in alone_first] == ["asymptotic-growth", "asymptotic-extends"]
    assert asymptotic(["multiplicity", "asymptotic"]) == alone_first

def test_holder_reuses_the_rates_solves(monkeypatch, accept_cfg):
    # the n=1024 solves of rate-sub and rate-super are the holder suite's finest grid
    solved = []

    def power_law(spec, op, tol):
        solved.append((op.n, spec.s, spec.delta))
        return SimpleNamespace(values=op.grid.distance() ** 0.3)

    monkeypatch.setattr(singular, "solve_pure_singular", power_law)
    cache = _Cache()
    check_rates(accept_cfg, cache)
    holder = check_holder(accept_cfg, cache)
    assert len(solved) == len(set(solved)) == 7
    assert (1024, 0.4, 0.5) in solved and (1024, 0.4, 3.0) in solved
    gammas = [r.params["gamma"] for r in holder]
    assert gammas == [0.4, 0.5, 0.2, 0.3]


def test_format_report_columns_line_up():
    report = VerificationReport(
        records=[
            VerificationRecord("a", "", {}, "0.1 +- 0.05 per step", "exponents ['0.111', '0.109']", "+-0.05", True),
            VerificationRecord("longer-name", "", {}, "0", "1.2e-09", "2e-8", False),
        ]
    )
    lines = format_report(report).splitlines()
    header = lines[0]
    starts = [header.index(col) for col in ("status", "expected", "measured", "tolerance")]
    for line, r in zip(lines[1:], report.records):
        cells = ("PASS" if r.passed else "FAIL", r.expected, r.measured, r.tolerance)
        assert line.startswith(r.name + " ")
        for start, cell in zip(starts, cells):
            assert line[start:].startswith(cell + " ") or line[start:] == cell
            assert line[start - 2:start] == "  "
    assert lines[-1] == "1/2 records passed"
