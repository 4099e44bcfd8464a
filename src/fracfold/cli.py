"""Command-line interface.

Exit status: 0 on success, 1 on usage errors and failed solves, 2 when a
verification suite reports a failed record.  The output directory comes from --out, else the
FRACFOLD_OUT environment variable, else the config default.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np

from .config import RunConfig, load_config
from .continuation import FoldPolicy, TracePolicy, fold_round, multiplicity_scan, trace_minimal
from .errors import ConvergenceError
from .io import atomic_write_text, dump_triplets, export_plot_data, write_branch_csv, write_solution_json
from .operator import assemble_operator, build_grid
from .problem import ProblemSpec, no_nonlinearity
from .singular import solve_min, solve_pure_singular
from .verify import format_report, verify_suite
from .weights import build_weight_profile, cone_norms, fit_boundary_exponent

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="config file (INI sections of key=value)")
    p.add_argument("--s", type=float, help="fractional order in (0,1)")
    p.add_argument("--delta", type=float, help="singular exponent")
    p.add_argument("--beta", type=float, help="weight blow-up exponent in [0, 2s)")
    p.add_argument("--coeff", type=float, help="weight coefficient")
    p.add_argument("--p", type=float, dest="p", help="superlinear power exponent")
    p.add_argument("--lambda", type=float, dest="lam", help="bifurcation parameter")
    p.add_argument("--n", type=int, help="interior node count")
    p.add_argument("--half-width", type=float, dest="half_width", help="domain half width L")
    p.add_argument("--out", help="output directory (overrides FRACFOLD_OUT)")
    p.add_argument("--seed", type=int, help="random seed for multistart probes")


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    if getattr(args, "suite", None):
        overrides["suites"] = args.suite
    cfg = replace(cfg, **overrides)
    out = args.out or os.environ.get("FRACFOLD_OUT")
    if out:
        cfg = replace(cfg, out_dir=out)
    return cfg


def _cmd_assemble_check(args) -> int:
    cfg = _build_config(args)
    op = assemble_operator(build_grid(cfg.half_width, cfg.n), cfg.s)
    mat = op.dense()
    scale = np.abs(mat).max()
    summary = (
        f"assemble-check: n={cfg.n} s={cfg.s} sym={np.abs(mat - mat.T).max() / scale:.1e} "
        f"offdiag_max={(mat - np.diag(np.diag(mat))).max():.1e} rowsum_min={mat.sum(axis=1).min():.3e}"
    )
    print(summary)
    if args.dump_matrix:
        path = os.path.join(cfg.out_dir, "operator-triplets.txt")
        dump_triplets(op, path)
        print(f"wrote {path}")
    return 0


def _solve_common(cfg: RunConfig, pure: bool):
    """The solve-ps or solve-plambda solution and its cone-norm report."""
    op = assemble_operator(build_grid(cfg.half_width, cfg.n), cfg.s)
    if pure:
        if not 0.0 < cfg.lam < np.inf:
            raise ValueError(f"lambda must be positive and finite, got {cfg.lam}")
        spec = ProblemSpec(
            s=cfg.s, delta=cfg.delta, beta=cfg.beta, coeff=cfg.coeff * cfg.lam, nonlinearity=no_nonlinearity()
        )
        field = solve_pure_singular(spec, op, tol=cfg.newton_tol)
        field.spec = replace(field.spec, coeff=cfg.coeff, lam=cfg.lam)
    else:
        field = solve_min(cfg.lam, cfg.problem_spec(), op, tol=cfg.newton_tol)
    profile = build_weight_profile(op.grid, cfg.s, cfg.delta, cfg.beta)
    try:
        alpha = fit_boundary_exponent(field.values, op.grid)[0]
    except ValueError:
        alpha = None
    return field, replace(cone_norms(field.values, profile), fitted_exponent=alpha)


def _cmd_solve(args, pure: bool) -> int:
    cfg = _build_config(args)
    field, report = _solve_common(cfg, pure)
    name = "solution-ps.json" if pure else "solution-plambda.json"
    path = os.path.join(cfg.out_dir, name)
    write_solution_json(field, report, path)
    alpha = report.fitted_exponent
    print(
        f"{'solve-ps' if pure else 'solve-plambda'}: n={cfg.n} sup={field.sup_norm:.6f} "
        f"residual={field.residual:.2e} fitted_exponent={alpha if alpha is None else f'{alpha:.4f}'} -> {path}"
    )
    if args.export_plots:
        for p in export_plot_data(field, cfg.out_dir, prefix=name.rsplit(".", 1)[0]):
            print(f"wrote {p}")
    return 0


def _cmd_branch(args, with_fold: bool) -> int:
    cfg = _build_config(args)
    spec = cfg.problem_spec()
    op = assemble_operator(build_grid(cfg.half_width, cfg.n), cfg.s)
    branch = trace_minimal(spec, op, TracePolicy(tol=cfg.newton_tol))
    if with_fold:
        branch = fold_round(branch, op, spec, FoldPolicy())
    path = os.path.join(cfg.out_dir, "branch.csv")
    write_branch_csv(branch, path)
    line = f"branch: n={cfg.n} points={len(branch.points)} Lambda={branch.fold_point().lam:.6f}"
    if with_fold and branch.fold:
        line += f" lam'={branch.fold.lambda_prime:.2e} lam''={branch.fold.quadratic_coeff:.4f}"
    print(line + f" -> {path}")
    if args.export_plots:
        for p in export_plot_data(branch, cfg.out_dir, prefix="branch"):
            print(f"wrote {p}")
    return 0


def _cmd_multiplicity(args) -> int:
    cfg = _build_config(args)
    spec = cfg.problem_spec()
    op = assemble_operator(build_grid(cfg.half_width, cfg.n), cfg.s)
    branch = fold_round(trace_minimal(spec, op, TracePolicy(tol=cfg.newton_tol)), op, spec, FoldPolicy())
    lam_est = branch.fold_point().lam
    rows = multiplicity_scan(branch, [0.5 * lam_est, 0.7 * lam_est, 0.9 * lam_est])
    path = os.path.join(cfg.out_dir, "multiplicity.csv")
    lines = ["lambda,minimal_sup,second_sup,gap,complete"]
    for r in rows:
        second = r["second"]
        lines.append(
            f"{r['lam']!r},{r['minimal'].sup_norm!r},"
            f"{'' if second is None else repr(second.sup_norm)},"
            f"{'' if r['gap'] is None else repr(r['gap'])},{r['complete']}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"multiplicity: Lambda={lam_est:.6f} rows={len(rows)} -> {path}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _build_config(args)
    report = verify_suite(cfg)
    json_path = os.path.join(cfg.out_dir, "verification.json")
    atomic_write_text(json_path, report.to_json())
    table = format_report(report)
    table_path = os.path.join(cfg.out_dir, "verification.txt")
    atomic_write_text(table_path, table + "\n")
    print(table)
    print(f"verify: wrote {json_path} and {table_path}")
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = _Parser(prog="fracfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble-check", help="assemble the operator and verify its structure")
    _add_common(p)
    p.add_argument("--dump-matrix", action="store_true", help="write the matrix in triplet form")
    p.set_defaults(run=_cmd_assemble_check)

    for name, pure in (("solve-ps", True), ("solve-plambda", False)):
        p = sub.add_parser(name, help="solve the pure singular problem" if pure
                           else "solve the full problem at one lambda")
        _add_common(p)
        p.add_argument("--export-plots", action="store_true")
        p.set_defaults(run=partial(_cmd_solve, pure=pure))

    for name, with_fold in (("branch", False), ("fold", True)):
        p = sub.add_parser(name, help="trace the branch and round the fold" if with_fold
                           else "trace the minimal branch")
        _add_common(p)
        p.add_argument("--export-plots", action="store_true")
        p.set_defaults(run=partial(_cmd_branch, with_fold=with_fold))

    p = sub.add_parser("multiplicity", help="minimal and second solutions below the fold")
    _add_common(p)
    p.set_defaults(run=_cmd_multiplicity)

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", help="comma-separated suite names (default from config: all)")
    p.set_defaults(run=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
