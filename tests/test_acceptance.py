"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one pass/fail line per record (run pytest with -s to see
them) and asserts the criterion.  The checks live in fracfold.verify and are
shared with the CLI's `verify` subcommand.
"""

from types import SimpleNamespace

import pytest

from fracfold import verify
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


def test_criterion_03_scaling_identity(accept_cfg, accept_cache):
    _run(check_scaling, accept_cfg, accept_cache)


def test_criterion_04_boundary_rates(accept_cfg, accept_cache):
    _run(check_rates, accept_cfg, accept_cache)


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

    monkeypatch.setattr(verify, "solve_pure_singular", power_law)
    records = {r.name: r for r in check_holder(accept_cfg, _Cache())}
    for name in ("holder-sub", "holder-super"):
        assert records[f"{name}-growth"].passed is growth_passes, records[f"{name}-growth"]
    if growth_passes:
        assert all(r.passed for r in records.values())


def test_criterion_07_minimal_branch(accept_cfg, accept_cache):
    _run(check_branch, accept_cfg, accept_cache)


def test_criterion_08_fold_bending(accept_cfg, accept_cache):
    _run(check_fold, accept_cfg, accept_cache)


def test_criterion_09_multiplicity(accept_cfg, accept_cache):
    _run(check_multiplicity, accept_cfg, accept_cache)


def test_criterion_10_asymptotic_bifurcation(accept_cfg, accept_cache):
    _run(check_asymptotic, accept_cfg, accept_cache)


def test_criterion_11_sensitivity_derivatives(accept_cfg, accept_cache):
    _run(check_sensitivity, accept_cfg, accept_cache)


def test_criterion_12_small_lambda_uniqueness(accept_cfg, accept_cache):
    _run(check_uniqueness, accept_cfg, accept_cache)



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

    monkeypatch.setattr(verify, "solve_pure_singular", power_law)
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
