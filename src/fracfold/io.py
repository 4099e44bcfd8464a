"""Deterministic artifact writers: JSON solutions, branch CSV, plot data, the operator's triplets.

All writes are atomic (temp file in the target directory, then rename) and
all floats are rendered with repr, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .continuation import Branch
from .operator import NonlocalOperator
from .singular import SolutionField
from .weights import NormReport

__all__ = [
    "atomic_write_text",
    "solution_payload",
    "write_solution_json",
    "write_branch_csv",
    "export_plot_data",
    "dump_triplets",
]


@contextmanager
def _atomic_file(path):
    """A text file handle whose contents appear at `path` whole or not at all: a temp file there, then os.replace."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 0666 less the umask, as open() makes it
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


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


def dump_triplets(op: NonlocalOperator, path) -> None:
    """Write A in plain-text triplet form, one `i j value` per line, streamed row by row into one atomic write."""
    with _atomic_file(path) as fh:
        for i, row in enumerate(op.dense()):
            fh.writelines(f"{i} {j} {float(v)!r}\n" for j, v in enumerate(row))
