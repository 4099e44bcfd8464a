"""In-memory spans around calls into fracfold's public functions and its dense kernels.

`tracing(recorder)` replaces each traced function at every module attribute
bound to it (the defining module plus every ``fracfold`` module), so calls
through any of those names open a span, and it puts the originals back on
exit, also when the traced code raises.  The solver is not edited.  Private
helpers such as ``_newton_full`` are not wrapped: their time is self time of
the public caller and their kernel calls are attributed to that caller.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

_IO = ("atomic_write_text", "write_branch_csv", "write_solution_json", "export_plot_data")
_WEIGHTS = (
    "classify_regime",
    "distance_field",
    "weight_k",
    "build_weight_profile",
    "cone_norms",
    "fit_boundary_exponent",
    "holder_seminorm",
    "hs_membership_indicator",
)

# (dotted path of the function, span name)
LAYERS = (
    ("fracfold.operator.assemble_operator", "operator.assemble"),
    ("fracfold.operator.smallest_eigenpairs", "operator.eigen"),
    ("fracfold.singular.solve_pure_singular", "singular.pure"),
    ("fracfold.singular.solve_min", "singular.min"),
    ("fracfold.singular.monotone_iterate", "singular.monotone"),
    ("fracfold.linearization.lambda1", "linearization.lambda1"),
    ("fracfold.linearization.fredholm_monitor", "linearization.monitor"),
    ("fracfold.continuation.trace_minimal", "continuation.trace"),
    ("fracfold.continuation.fold_round", "continuation.fold"),
    ("fracfold.continuation.multiplicity_scan", "continuation.multiplicity"),
    ("fracfold.continuation.asymptotic_bifurcation_probe", "continuation.asymptotic"),
    ("fracfold.continuation.uniqueness_probe", "continuation.uniqueness"),
    ("fracfold.verify.verify_suite", "verify"),
    ("fracfold.cli.main", "cli"),
    *((f"fracfold.io.{name}", "io") for name in _IO),
    *((f"fracfold.weights.{name}", "weights") for name in _WEIGHTS),
)

# Every dense O(n^3) call site in fracfold.  numpy.linalg.solve is replaced on
# numpy.linalg itself because the solver calls it as np.linalg.solve.
KERNELS = (
    ("scipy.linalg.cho_factor", "linalg.cholesky"),
    ("scipy.linalg.lu_factor", "linalg.lu"),
    ("scipy.linalg.svdvals", "linalg.svd"),
    ("numpy.linalg.solve", "linalg.dense_solve"),
)
KERNEL_NAMES = tuple(name for _, name in KERNELS)

# Computed operation counts for a matrix of order n (not measured).  SVD is
# singular values only, 4mn^2 - 4n^3/3 with m = n (Golub & Van Loan, 4th ed.,
# Fig. 8.6.1); a dense solve is an LU factorization plus two triangular solves.
FLOPS = {
    "linalg.cholesky": lambda n: n ** 3 / 3.0,
    "linalg.lu": lambda n: 2.0 * n ** 3 / 3.0,
    "linalg.dense_solve": lambda n: 2.0 * n ** 3 / 3.0 + 2.0 * n ** 2,
    "linalg.svd": lambda n: 8.0 * n ** 3 / 3.0,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    size: int = 0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans in call order; `parent` is the index of the enclosing span, -1 at the root."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent, size=size))
        self._open.append(idx)
        try:
            yield
        except BaseException:
            self.spans[idx].failed = True
            raise
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()


def _wrap(fn, name: str, recorder: Recorder, kernel: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name, size=len(args[0]) if kernel else 0):
            return fn(*args, **kwargs)

    return traced


def bindings() -> list[tuple[object, str, object, str, bool]]:
    """(namespace, attribute, original, span name, is_kernel) for every name tracing replaces."""
    targets = [(path, name, False) for path, name in LAYERS] + [(path, name, True) for path, name in KERNELS]
    homes = {path.rsplit(".", 1)[0] for path, _, _ in targets}
    for home in sorted(homes):
        importlib.import_module(home)
    fracfold_modules = [m for key, m in sorted(sys.modules.items()) if key == "fracfold" or key.startswith("fracfold.")]
    out = []
    for path, name, kernel in targets:
        home, attr = path.rsplit(".", 1)
        original = getattr(sys.modules[home], attr)
        namespaces = {id(m): m for m in (sys.modules[home], *fracfold_modules)}
        for ns in namespaces.values():
            for key, value in list(vars(ns).items()):
                if value is original:
                    out.append((ns, key, original, name, kernel))
    return out


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Record spans into `recorder` for the duration of the block."""
    patched = []
    wrappers = {}
    try:
        for ns, key, original, name, kernel in bindings():
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(original, name, recorder, kernel)
            setattr(ns, key, wrappers[id(original)])
            patched.append((ns, key, original))
        yield recorder
    finally:
        for ns, key, original in reversed(patched):
            setattr(ns, key, original)


# --- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [sp.seconds for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.seconds
    return out


def ancestor_names(spans: list[Span], idx: int) -> list[str]:
    names = []
    parent = spans[idx].parent
    while parent >= 0:
        names.append(spans[parent].name)
        parent = spans[parent].parent
    return names


def ledger(spans: list[Span]) -> collections.Counter:
    """Kernel calls keyed by (enclosing layer span, kernel); '-' when no layer encloses the call."""
    counts = collections.Counter()
    for i, sp in enumerate(spans):
        if sp.name in KERNEL_NAMES:
            layer = next((a for a in ancestor_names(spans, i) if a not in KERNEL_NAMES), "-")
            counts[(layer, sp.name)] += 1
    return counts


def kernel_totals(spans: list[Span]) -> dict[str, int]:
    counts = collections.Counter(sp.name for sp in spans if sp.name in KERNEL_NAMES)
    return {name: counts[name] for name in KERNEL_NAMES}
