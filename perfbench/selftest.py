"""Self-tests of the benchmark's tracing harness, on a small branch trace (n=64).

Run from the root of a fracfold checkout:

    python3 perfbench/selftest.py

The file name keeps it out of pytest's default collection, so the repository's
test command neither runs nor waits for it.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import fracfold.continuation  # noqa: E402
import fracfold.operator  # noqa: E402
from fracfold.config import RunConfig  # noqa: E402

from layers import layer_metrics  # noqa: E402
from spans import KERNEL_NAMES, Recorder, bindings, kernel_totals, ledger, self_times, tracing  # noqa: E402


def _traced_branch(n: int = 64):
    spec = RunConfig().problem_spec()
    rec = Recorder()
    with tracing(rec), rec.span("iteration"):
        op = fracfold.operator.assemble_operator(fracfold.operator.build_grid(1.0, n), spec.s)
        branch = fracfold.continuation.trace_minimal(spec, op, fracfold.continuation.TracePolicy())
        fracfold.continuation.fold_round(branch, op, spec, fracfold.continuation.FoldPolicy())
    return rec.spans


class SpanTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spans = _traced_branch()

    def test_has_layers_and_kernels(self):
        names = {sp.name for sp in self.spans}
        for name in ("continuation.trace", "continuation.fold", "singular.min", "linearization.lambda1",
                     "linearization.monitor", "operator.eigen", *KERNEL_NAMES):
            self.assertIn(name, names)

    def test_children_inside_parent(self):
        for sp in self.spans:
            self.assertLessEqual(sp.start, sp.end)
            if sp.parent >= 0:
                parent = self.spans[sp.parent]
                self.assertLessEqual(parent.start, sp.start)
                self.assertLessEqual(sp.end, parent.end)

    def test_self_times_nonnegative_and_sum_to_root(self):
        selfs = self_times(self.spans)
        self.assertGreaterEqual(min(selfs), -1e-12)
        roots = [sp for sp in self.spans if sp.parent == -1]
        self.assertEqual(len(roots), 1)
        self.assertAlmostEqual(sum(selfs), roots[0].seconds, delta=1e-9 * (1.0 + roots[0].seconds))

    def test_ledger_totals_equal_per_layer_sum(self):
        book = ledger(self.spans)
        totals = kernel_totals(self.spans)
        for kernel in KERNEL_NAMES:
            self.assertEqual(totals[kernel], sum(c for (_, k), c in book.items() if k == kernel))
        self.assertNotIn("-", {layer for layer, _ in book})

    def test_layer_metrics_account_for_every_kernel(self):
        metrics = layer_metrics(self.spans, self.spans[0].seconds)
        totals = kernel_totals(self.spans)
        for kernel in KERNEL_NAMES:
            self.assertEqual(metrics[f"{kernel}.count"]["value"], totals[kernel])
        self.assertGreater(metrics["continuation.points"]["value"], 0)
        self.assertLessEqual(metrics["linalg.share"]["value"], 1.0)


class Restore(unittest.TestCase):
    def test_originals_back_after_run_and_after_raise(self):
        before = [(ns, key, original) for ns, key, original, _, _ in bindings()]
        self.assertGreater(len(before), len(KERNEL_NAMES))
        rec = Recorder()
        with tracing(rec):
            for ns, key, original in before:
                self.assertIsNot(getattr(ns, key), original, f"{ns.__name__}.{key} not wrapped")
        for ns, key, original in before:
            self.assertIs(getattr(ns, key), original, f"{ns.__name__}.{key} not restored")

        with self.assertRaises(ValueError):
            with tracing(rec):
                fracfold.operator.assemble_operator(fracfold.operator.build_grid(1.0, 8), 1.5)
        self.assertTrue(rec.spans[-1].failed)
        for ns, key, original in before:
            self.assertIs(getattr(ns, key), original, f"{ns.__name__}.{key} not restored after a raise")


if __name__ == "__main__":
    unittest.main()
