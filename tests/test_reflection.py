"""The even/odd split of the reflection symmetry.

A = RAR bit for bit (see tests/test_operator.py), so every solve whose data
are even runs on the even block of its matrix, of order about n/2.  These
tests check that the reduced solves give the answers of the n x n path,
that the even path factors no matrix of order n, that a solve with A splits
whatever its right-hand side, and that asymmetric Jacobians still take the
n x n path.
"""

from dataclasses import replace

import numpy as np
import pytest

import fracfold.operator as op_mod
from fracfold import (
    ProblemSpec,
    assemble_operator,
    build_grid,
    no_nonlinearity,
    power_nonlinearity,
    solve_A,
    solve_dirichlet,
    solve_min,
    solve_pure_singular,
)
from fracfold.config import RunConfig
from fracfold.continuation import FoldPolicy, TracePolicy, fold_round, trace_minimal, uniqueness_probe
from fracfold.operator import is_even, spd_solver
from fracfold.verify import verify_suite


def _factor_orders(monkeypatch):
    """Record (kernel, order) of every dense factorization the operator module makes."""
    orders = []
    for name in ("cho_factor", "lu_factor"):
        original = getattr(op_mod, name)

        def counted(mat, *args, _original=original, _name=name, **kwargs):
            orders.append((_name, len(mat)))
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(op_mod, name, counted)
    return orders


def _branch_run(spec, op):
    """The pure singular solve, a minimal solve, and the traced and rounded branch with its lambda1 and monitor."""
    pure = solve_pure_singular(replace(spec, nonlinearity=no_nonlinearity()), op)
    minimal = solve_min(0.2, spec, op)
    branch = fold_round(trace_minimal(spec, op, TracePolicy()), op, spec, FoldPolicy(steps=2))
    stability = np.array([(p.lambda1, p.monitor) for p in branch.points])
    fields = [p.solution.values for p in branch.points]
    return pure.values, minimal.values, fields, stability, branch.fold_point().lam


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("n", [15, 255, 511, 1023, 1024])
def test_reduced_solves_match_the_full_path(monkeypatch, n, beta):
    # the same solves with the even test switched off run on the n x n matrices.
    # The pure singular field and the fold's lam agree to 1.1e-13 or better.
    # The minimal solves of the traced branch start where the potential is
    # nonnegative, so they factor J_e and J in float32, whose rounding differs
    # between the two orders; each run stops within the Newton tolerance, not
    # at the same bits, and the minimal field, the branch fields, lambda1 and
    # the monitor agree to 7.6e-12 or better (1.1e-14 with float64 factors)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=beta, nonlinearity=power_nonlinearity(2.0))
    reduced_op, full_op = (assemble_operator(build_grid(1.0, n), spec.s) for _ in range(2))
    orders = _factor_orders(monkeypatch)
    reduced = _branch_run(spec, reduced_op)
    assert max(order for _, order in orders) <= (n + 1) // 2 + 1
    monkeypatch.setattr(op_mod, "is_even", lambda x: False)
    orders.clear()
    full = _branch_run(spec, full_op)
    assert max(order for _, order in orders) >= n

    def close(a, b, rtol=1e-12):
        return np.abs(a - b).max() <= rtol * max(1.0, np.abs(b).max())

    float32_rtol = 1e-10
    pure, minimal, fields, stability, lam = reduced
    assert close(pure, full[0]) and close(minimal, full[1], float32_rtol)
    assert len(fields) == len(full[2]) and all(close(a, b, float32_rtol) for a, b in zip(fields, full[2]))
    assert close(stability, full[3], float32_rtol)
    assert lam == pytest.approx(full[4], rel=1e-12)
    assert all(is_even(u) for u in (pure, minimal, *fields))


def test_even_path_factors_no_matrix_of_order_n(monkeypatch):
    # the rates suite (three pure singular solves at n = 1024) and the CLI
    # fold pipeline at n = 512 (trace, fold solve, rounding, lambda1 and the
    # monitor on every point) factor blocks of order about n/2 only
    orders = _factor_orders(monkeypatch)
    report = verify_suite(RunConfig(), ["rates"])
    assert all(r.passed for r in report.records)
    assert orders and max(order for _, order in orders) <= 1024 // 2
    orders.clear()
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    op = assemble_operator(build_grid(1.0, 512), spec.s)
    branch = fold_round(trace_minimal(spec, op, TracePolicy()), op, spec, FoldPolicy())
    _ = [(p.lambda1, p.monitor) for p in branch.points]
    assert {kernel for kernel, _ in orders} == {"cho_factor", "lu_factor"}
    assert max(order for _, order in orders) <= 512 // 2 + 1  # the bordered LUs carry one more row


@pytest.mark.parametrize("n", [255, 256])
def test_dirichlet_solve_splits_any_right_hand_side(monkeypatch, n, rng):
    # an even right-hand side factors the even block of A only; the first one
    # with an odd part factors the odd block too, and never A itself
    op = assemble_operator(build_grid(1.0, n), 0.4)
    x = rng.normal(size=n)
    expected = spd_solver(op.dense())(x)
    orders = _factor_orders(monkeypatch)
    solve_dirichlet(op, np.ones(n))
    assert orders == [("cho_factor", (n + 1) // 2)]
    w = solve_dirichlet(op, x)
    assert orders == [("cho_factor", (n + 1) // 2), ("cho_factor", n // 2)]
    assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()
    solve_dirichlet(op, x[::-1])
    assert len(orders) == 2  # both factors are kept


@pytest.mark.parametrize("n", [256, 512])
def test_newton_meets_no_failed_cholesky_on_the_default_branch(monkeypatch, n):
    # every Newton Cholesky of an even block is first probed by the n-node sine
    # profile, which rejects an indefinite block before it is factored
    failed = []
    original = op_mod.cho_factor

    def checked(mat, *args, **kwargs):
        try:
            return original(mat, *args, **kwargs)
        except np.linalg.LinAlgError:
            failed.append(len(mat))
            raise

    monkeypatch.setattr(op_mod, "cho_factor", checked)
    spec = RunConfig().problem_spec()
    trace_minimal(spec, assemble_operator(build_grid(1.0, n), spec.s), TracePolicy())
    assert failed == []


def test_asymmetric_forcing_takes_the_full_path(monkeypatch):
    n = 128
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0)
    orders = _factor_orders(monkeypatch)
    even = solve_A(0.2, np.full(n, 0.7), op, spec)
    assert is_even(even.values) and max(order for _, order in orders) == n // 2
    orders.clear()
    h = 0.7 + 0.3 * op.grid.nodes  # rises from left to right
    field = solve_A(0.2, h, op, spec)
    assert orders and all(order == n for _, order in orders)
    residual = op.dense() @ field.values - 0.2 * spec.k_field(op.grid) * field.values ** -spec.delta - h
    assert np.abs(residual).max() <= field.residual_bound
    assert field.values[-1] > field.values[0]  # larger forcing on the right, larger solution there


def test_uniqueness_random_starts_take_the_full_path(monkeypatch):
    n = 128
    op = assemble_operator(build_grid(1.0, n), 0.4)
    spec = ProblemSpec(s=0.4, delta=0.5, beta=0.0, nonlinearity=power_nonlinearity(2.0))
    orders = _factor_orders(monkeypatch)
    report = uniqueness_probe(1e-3, spec, op, trials=4)
    assert report.verdict == "unique"
    # the random starts are not even, and below the cap their Jacobians are
    # positive definite: Cholesky of order n; the minimal solve is even
    assert ("cho_factor", n) in orders and ("cho_factor", n // 2) in orders
    assert {order for _, order in orders} == {n // 2, n}
