"""Per-layer metrics of a traced run, the layer sweep over n, and the ledger cross-check."""

from __future__ import annotations

import numpy as np

import fracfold.continuation
import fracfold.linearization
import fracfold.operator
import fracfold.singular
from fracfold.config import RunConfig

from spans import FLOPS, KERNEL_NAMES, Recorder, ancestor_names, kernel_totals, self_times, tracing
from workloads import FOLD_LAMBDA

# Layers whose time is reported inclusive of everything they call.
INCLUSIVE = ("operator.assemble", "operator.eigen", "singular.pure", "singular.min", "singular.monotone",
             "linearization.lambda1", "linearization.monitor")
# Layers whose time is reported as self time: children, kernels included, subtracted.
SELF = ("continuation.trace", "continuation.fold", "continuation.multiplicity", "continuation.asymptotic",
        "continuation.uniqueness", "verify", "cli", "io", "weights")
SWEEP_SIZES = (256, 512, 1024, 2048)
SWEEP_LAYERS = ("assemble", "dirichlet", "principal", "pure", "min", "lambda1", "monitor")
# ROADMAP baseline: trace_minimal at n=256 with the monitor on, fresh operator.
LEDGER_BASELINE = {"linalg.cholesky": 82, "linalg.lu": 18, "linalg.dense_solve": 93, "linalg.svd": 8}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer metrics of one traced iteration whose root span lasted `wall` seconds."""
    selfs = self_times(spans)
    ancestors = [ancestor_names(spans, i) for i in range(len(spans))]
    out = {}
    for name in INCLUSIVE:
        # outermost spans only, so a layer re-entered below itself is not counted twice
        top = [i for i, sp in enumerate(spans) if sp.name == name and name not in ancestors[i]]
        calls = [i for i, sp in enumerate(spans) if sp.name == name]
        out[f"{name}.s"] = metric(sum(spans[i].seconds for i in top), "s")
        out[f"{name}.calls"] = metric(len(calls), "count")
    kernels = [i for i, sp in enumerate(spans) if sp.name in KERNEL_NAMES]
    for name in ("singular.pure", "linearization.lambda1"):
        out[f"{name}.factorizations"] = metric(sum(1 for i in kernels if name in ancestors[i]), "count")
    out["singular.min.failed"] = metric(sum(1 for sp in spans if sp.name == "singular.min" and sp.failed), "count")
    for name in SELF:
        out[f"{name}.s"] = metric(sum(selfs[i] for i, sp in enumerate(spans) if sp.name == name), "s")

    in_continuation = [any(a.startswith("continuation.") for a in anc) for anc in ancestors]
    points = sum(1 for i, sp in enumerate(spans) if sp.name == "linearization.lambda1" and in_continuation[i])
    probes = [sp for i, sp in enumerate(spans) if sp.name == "singular.min" and "continuation.trace" in ancestors[i]]
    accepted = sum(1 for sp in probes if not sp.failed)
    cont_kernels = sum(1 for i in kernels if in_continuation[i])
    out["continuation.points"] = metric(points, "count")
    out["continuation.probe_yield"] = metric(accepted / len(probes) if probes else 0.0, "ratio")
    out["continuation.factorizations_per_point"] = metric(cont_kernels / points if points else 0.0, "count")

    counts = kernel_totals(spans)
    kernel_s = 0.0
    flops = 0.0
    for name in KERNEL_NAMES:
        seconds = sum(spans[i].seconds for i in kernels if spans[i].name == name)
        kernel_s += seconds
        flops += sum(FLOPS[name](spans[i].size) for i in kernels if spans[i].name == name)
        out[f"{name}.count"] = metric(counts[name], "count")
        out[f"{name}.s"] = metric(seconds, "s")
    out["linalg.flops"] = metric(flops, "computed_flop")
    out["linalg.gflops_per_s"] = metric(flops / kernel_s / 1e9 if kernel_s > 0 else 0.0, "Gflop/s")
    out["linalg.share"] = metric(kernel_s / wall, "ratio")
    return out


def ledger_check() -> tuple[dict, dict]:
    """Kernel counts of trace_minimal at n=256 (default config, monitor on), traced twice."""
    spec = RunConfig().problem_spec()
    runs = []
    for _ in range(2):
        op = fracfold.operator.assemble_operator(fracfold.operator.build_grid(1.0, 256), spec.s)
        rec = Recorder()
        with tracing(rec):
            fracfold.continuation.trace_minimal(spec, op, fracfold.continuation.TracePolicy())
        runs.append(kernel_totals(rec.spans))
    first, second = runs
    out = {f"ledger.check.{name.split('.', 1)[1]}": metric(first[name], "count") for name in KERNEL_NAMES}
    out["ledger.check.repeat_diff"] = metric(sum(abs(first[k] - second[k]) for k in KERNEL_NAMES), "count")
    out["ledger.check.matches_baseline"] = metric(int(first == LEDGER_BASELINE), "bool")
    return out, first


def sweep() -> tuple[dict, list[str]]:
    """Time each layer once per size on a fresh operator; returns metrics and failed checks.

    The pure singular solve goes through `pure_singular_cached`, so `min` reuses
    it and times the bracket, monotone iteration and Newton polish alone.
    """
    spec = RunConfig().problem_spec()
    lam = 0.5 * FOLD_LAMBDA
    out = {}
    problems = []
    for n in SWEEP_SIZES:
        rec = Recorder()
        with tracing(rec):
            with rec.span("assemble"):
                op = fracfold.operator.assemble_operator(fracfold.operator.build_grid(1.0, n), spec.s)
            with rec.span("dirichlet"):
                torsion = fracfold.operator.solve_dirichlet(op, np.ones(n))
            with rec.span("principal"):
                pair = fracfold.operator.principal_eigenpair(op)
            with rec.span("pure"):
                pure = fracfold.singular.pure_singular_cached(spec, op)
            with rec.span("min"):
                field = fracfold.singular.solve_min(lam, spec, op)
            with rec.span("lambda1"):
                lam1 = fracfold.linearization.lambda1(lam, field, op, spec)
            with rec.span("monitor"):
                monitor = fracfold.linearization.fredholm_monitor(lam, field, op, spec)
        for what, ok in (
            ("torsion positive", torsion.min() > 0.0),
            ("principal eigenvalue positive", pair.value > 0.0),
            ("pure residual", pure.residual <= pure.residual_bound),
            ("min residual", field.residual <= field.residual_bound),
            ("lambda1 positive", lam1.value > 0.0),
            ("monitor positive", monitor > 0.0),
        ):
            if not ok:
                problems.append(f"sweep n={n}: {what}")
        roots = {sp.name: i for i, sp in enumerate(rec.spans) if sp.parent == -1}
        ancestors = [ancestor_names(rec.spans, i) for i in range(len(rec.spans))]
        for layer in SWEEP_LAYERS:
            out[f"sweep.{layer}.n{n}.s"] = metric(rec.spans[roots[layer]].seconds, "s")
        for layer in ("pure", "min"):
            count = sum(1 for i, sp in enumerate(rec.spans) if sp.name in KERNEL_NAMES and layer in ancestors[i])
            out[f"sweep.{layer}.n{n}.factorizations"] = metric(count, "count")
    return out, problems
