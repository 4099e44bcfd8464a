"""Deterministic artifact writers: JSON solutions, branch CSV, plot data.

All writes are atomic (temp file in the target directory, then rename) and
all floats are rendered with repr, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .continuation import Branch
from .singular import SolutionField
from .weights import NormReport

__all__ = ["atomic_write_text", "solution_payload", "write_solution_json", "write_branch_csv", "export_plot_data"]


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float(x):
    return None if x is None else float(x)


def solution_payload(field: SolutionField, report: NormReport) -> dict:
    spec = field.spec
    return {
        "grid": {"L": field.grid.half_width, "n": field.grid.n},
        "params": {
            "s": spec.s,
            "delta": spec.delta,
            "beta": spec.beta,
            "lambda": spec.lam,
            "p": spec.nonlinearity.p if spec.nonlinearity.kind == "power" else None,
        },
        "values": [float(v) for v in field.values],
        "residual": float(field.residual),
        "cone_norm": float(report.cone_norm),
        "fitted_exponent": _float(report.fitted_exponent),
    }


def write_solution_json(field: SolutionField, report: NormReport, path) -> None:
    atomic_write_text(path, json.dumps(solution_payload(field, report), indent=1) + "\n")


def write_branch_csv(branch: Branch, path) -> None:
    lines = ["lambda,sup_norm,lambda1,monitor,arclength,residual,segment"]
    for p in branch.points:
        lines.append(
            f"{float(p.lam)!r},{float(p.sup_norm)!r},{float(p.lambda1)!r},{float(p.monitor)!r},"
            f"{float(p.arclength)!r},{float(p.solution.residual)!r},{p.segment}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_plot_data(artifact, out_dir, prefix: str = "plot") -> list[str]:
    """Two-column whitespace-separated plot files for an artifact.

    A Branch gives the bifurcation diagram (lambda, sup_norm); a SolutionField
    gives the boundary profile (d, u) suitable for log-log axes.
    """
    paths = []
    if isinstance(artifact, Branch):
        if not artifact.points:
            raise ValueError("refusing to export an empty branch")
        path = os.path.join(out_dir, f"{prefix}-bifurcation.dat")
        lines = [f"{float(p.lam)!r} {float(p.sup_norm)!r}" for p in artifact.points]
        atomic_write_text(path, "\n".join(lines) + "\n")
        paths.append(path)
    elif isinstance(artifact, SolutionField):
        d = artifact.grid.distance()
        order = np.argsort(d)
        path = os.path.join(out_dir, f"{prefix}-boundary-profile.dat")
        lines = [f"{float(d[i])!r} {float(artifact.values[i])!r}" for i in order]
        atomic_write_text(path, "\n".join(lines) + "\n")
        paths.append(path)
    else:
        raise TypeError(f"cannot export plot data for {type(artifact).__name__}")
    return paths
