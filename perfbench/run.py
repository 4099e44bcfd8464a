"""fracfold benchmark: a timed closed loop over one workload, or a traced per-layer pass.

Run from the root of a fracfold checkout:

    python3 perfbench/run.py --workload fold-n512 --seed 1 --seconds 20 --trace 0

One client runs iterations back to back for --seconds (at least one), each on
fresh inputs and each ending with a checked output.  BLAS threading is left at
the process default and only read.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of one untraced and one traced iteration, a traced
single-thread pass in a child process, the ledger cross-check and the layer
sweep.  Spans are written to .perfbench/ when the run ends.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "baseline"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries numpy and scipy loaded, read at runtime; -1 if unknown."""
    found = {"numpy": -1, "scipy": -1}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        owner = os.path.basename(os.path.dirname(path)).split(".")[0]
        if owner not in found:
            continue
        lib = ctypes.CDLL(path)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[owner] = int(fn())
                break
    return found


def _setup(name: str, seed: int):
    """Everything before the first timed iteration: imports, BLAS warm-up, inputs."""
    import numpy as np
    import scipy.linalg

    import workloads

    a = np.random.default_rng(seed).standard_normal((256, 256))
    spd = a @ a.T + 256.0 * np.eye(256)
    scipy.linalg.cho_factor(spd)
    np.linalg.solve(spd, np.ones(256))
    return workloads.WORKLOADS[name]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def _iterate(wl, seed: int, out_dir: str, rec=None) -> tuple[float, float, str | None]:
    """One iteration: (wall seconds, process CPU seconds, failure reason or None)."""
    from spans import tracing

    os.makedirs(out_dir)
    reason = None
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        if rec is None:
            result = wl.run(seed, out_dir)
        else:
            with tracing(rec), rec.span("iteration"):
                result = wl.run(seed, out_dir)
    except Exception as exc:  # a raising iteration is a failed one, not the end of the run
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    if reason is None:
        try:
            reason = wl.check(result)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, cpu, reason


def _child(args, kind: str, env=None) -> str:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--child", kind, "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _timed(args, out_root: str) -> dict:
    setups = [float(_child(args, "setup")) for _ in range(SETUP_SAMPLES)]
    wl = _setup(args.workload, args.seed)
    threads = blas_threads()
    walls, reasons = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, _, reason = _iterate(wl, args.seed, os.path.join(out_root, f"iter-{len(walls)}"))
        walls.append(wall)
        reasons.append(reason)
    failed = sum(r is not None for r in reasons)
    print(f"{args.workload} seed {args.seed}: {len(walls)} iterations, wall_s samples "
          f"{[round(w, 4) for w in walls]}, setup_s samples {[round(s, 4) for s in setups]}")
    if len(walls) >= 11:
        # highest percentile with ten samples beyond it
        print(f"wall_s p{100.0 * (len(walls) - 10) / len(walls):.1f} = {sorted(walls)[-11]:.4f} s "
              f"({len(walls)} samples)")
    else:
        print(f"wall_s tail percentile: none has 10 samples beyond it ({len(walls)} samples)")
    print(f"BLAS threads (process default, not set): scipy {threads['scipy']}, numpy {threads['numpy']}")
    for i, r in enumerate(reasons):
        if r is not None:
            print(f"iteration {i} failed: {r}")
    return {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "passed_frac": {"value": (len(walls) - failed) / len(walls), "unit": "ratio"},
        },
    }


def _traced(args, out_root: str) -> dict:
    from layers import ledger_check, layer_metrics, metric, sweep
    from spans import Recorder, kernel_totals, ledger

    wl = _setup(args.workload, args.seed)
    threads = blas_threads()
    wall_u, cpu_u, reason_u = _iterate(wl, args.seed, os.path.join(out_root, "untraced"))
    rec = Recorder()
    wall_t, _, reason_t = _iterate(wl, args.seed, os.path.join(out_root, "traced"), rec)
    base = json.loads(_child(args, "baseline", env=dict(os.environ, **ONE_THREAD)))
    check_metrics, check_counts = ledger_check()
    sweep_metrics, problems = sweep()

    reasons = [reason_u, reason_t, base["reason"]]
    failed = sum(r is not None for r in reasons)
    metrics = {
        "blas.threads": metric(threads["scipy"], "count"),
        "blas.numpy_threads": metric(threads["numpy"], "count"),
        "proc.wall_s": metric(wall_u, "s"),
        "proc.cpu_s": metric(cpu_u, "s"),
        "trace.wall_s": metric(wall_t, "s"),
        "trace.overhead_s": metric(wall_t - wall_u, "s"),
        "baseline_1t.wall_s": metric(base["wall_s"], "s"),
        "baseline_1t.cpu_s": metric(base["cpu_s"], "s"),
        "failed_frac": metric(failed / len(reasons), "ratio"),
    }
    metrics.update(layer_metrics(rec.spans, wall_t))
    metrics.update(check_metrics)
    metrics.update(sweep_metrics)

    book = ledger(rec.spans)
    print(f"{args.workload} seed {args.seed}: untraced {wall_u:.4f} s, traced {wall_t:.4f} s, "
          f"overhead {wall_t - wall_u:+.4f} s; one BLAS thread {base['wall_s']:.4f} s")
    print(f"BLAS threads: scipy {threads['scipy']}, numpy {threads['numpy']} (process default); "
          f"single-thread child: scipy {base['threads']['scipy']}, numpy {base['threads']['numpy']}")
    for (layer, kernel), count in sorted(book.items()):
        print(f"ledger {layer:28s} {kernel:20s} {count}")
    totals = kernel_totals(rec.spans)
    same = "same" if totals == base["kernels"] else f"differs: {base['kernels']}"
    print(f"ledger totals {totals}; at one BLAS thread {same}")
    print(f"ledger check, trace_minimal n=256: {check_counts} (ROADMAP baseline 82/18/93/8 "
          f"cholesky/lu/dense_solve/svd)")
    print("linalg.flops is computed from call counts and matrix orders, not measured")
    for r in reasons:
        if r is not None:
            print(f"failed: {r}")
    for p in problems:
        print(f"failed: {p}")

    path = os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "blas_threads": threads,
            "spans": [[s.name, s.start, s.end, s.parent, s.size, s.failed] for s in rec.spans],
            "ledger": [[layer, kernel, count] for (layer, kernel), count in sorted(book.items())],
            "metrics": metrics,
        }, fh)
    print(f"spans written to {path}")
    return {"correct": failed == 0 and not problems, "attempted": len(reasons), "failed": failed,
            "metrics": metrics}


def _run_child(args) -> None:
    wl = _setup(args.workload, args.seed)
    if args.child == "setup":
        print(repr(time.time() - args.spawned_at))
        return
    from spans import Recorder, kernel_totals

    rec = Recorder()
    out_dir = os.path.join(WORK_DIR, f"baseline-{os.getpid()}")
    wall, cpu, reason = _iterate(wl, args.seed, out_dir, rec)
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "reason": reason, "threads": blas_threads(),
                      "kernels": kernel_totals(rec.spans)}))


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fracfold", "__init__.py")):
        sys.stderr.write("error: run from the root of a fracfold checkout (src/fracfold not found)\n")
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    if args.child:
        _run_child(args)
        return 0
    out_root = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(out_root)
    try:
        result = _traced(args, out_root) if args.trace else _timed(args, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
