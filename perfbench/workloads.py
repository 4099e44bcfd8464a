"""The benchmark's workloads: one closed-loop iteration each, and its output check.

Every iteration calls into fracfold from scratch: the CLI and `verify_suite`
build a fresh NonlocalOperator (and verify a fresh `_Cache`) on every call, so
no factorization, eigenpair or pure singular solution memoized on an operator
carries over between iterations.  The seed feeds `RunConfig.seed`, which moves
only the uniqueness multistarts; parameter sets are those the verify battery
validates.  Calls go through the module attributes (`fracfold.cli.main`, ...)
so that tracing sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import re
from dataclasses import dataclass
from typing import Callable

import fracfold.cli
import fracfold.verify
from fracfold.config import RunConfig

# Extremal parameter of the default config (s=0.4, delta=0.5, beta=0, p=2) at n=512.
FOLD_LAMBDA = 0.520712
FOLD_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, str], object]
    check: Callable[[object], str | None]  # None when the output is correct, else the reason


def _run_fold(seed: int, out_dir: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fracfold.cli.main(["fold", "--n", "512", "--seed", str(seed), "--out", out_dir])
    return code, buf.getvalue(), out_dir


def _check_fold(result) -> str | None:
    code, stdout, out_dir = result
    if code != 0:
        return f"exit code {code}"
    with open(os.path.join(out_dir, "branch.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    folds = sum(1 for r in rows if r["segment"] == "fold")
    if folds != 1:
        return f"{folds} fold rows in branch.csv"
    minimal = [float(r["lambda1"]) for r in rows if r["segment"] == "minimal"]
    if not minimal or min(minimal) <= 0.0:
        return "lambda1 not positive on the minimal rows"
    match = re.search(r"Lambda=(\S+)", stdout)
    if match is None:
        return "no Lambda in the CLI output"
    lam = float(match.group(1))
    if abs(lam - FOLD_LAMBDA) > FOLD_RTOL * FOLD_LAMBDA:
        return f"Lambda {lam} differs from {FOLD_LAMBDA} by more than {FOLD_RTOL:g} relative"
    return None


def _suites(names: tuple[str, ...], records: int):
    def run(seed: int, out_dir: str):
        return fracfold.verify.verify_suite(RunConfig(seed=seed), list(names))

    def check(report) -> str | None:
        if len(report.records) != records:
            return f"{len(report.records)} records, expected {records}"
        failed = [r.name for r in report.records if not r.passed]
        return f"failed records: {', '.join(failed)}" if failed else None

    return run, check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fold-n512",
            "CLI fold at n=512: the named end-to-end run, the only one where the Fredholm monitor, config and io work",
            _run_fold,
            _check_fold,
        ),
        Workload(
            "rates-n1024",
            "three pure singular solves at n=1024: the eps schedule's Cholesky loop, no continuation or linearization",
            *_suites(("rates",), 3),
        ),
        Workload(
            "upper-branch-n256",
            "fold, ~200 arclength steps with lambda1 and 10 multistarts at n=256: per-call overhead over many small solves",
            *_suites(("multiplicity", "asymptotic", "uniqueness"), 5),
        ),
    )
}
