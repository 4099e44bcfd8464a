"""Guards for the benchmark's factorization ledger (perfbench/).

perfbench times fracfold's layers and counts its dense O(n^3) kernels by
wrapping them at every module attribute that binds them, by name.  These
tests fail when a wrapped name disappears, or when fracfold starts calling a
dense factorization the ledger does not count.
"""

import ast
import importlib
import pathlib
import pkgutil
import sys

import numpy.linalg
import pytest
import scipy.linalg

import fracfold

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SOURCE = pathlib.Path(fracfold.__file__).parent

# the dense kernels the ledger counts, and linalg names that factor no n x n
# matrix (lstsq fits three columns in weights.fit_boundary_exponent).  A dense
# `solve` is forbidden from both libraries: every factorization goes through
# scipy's counted kernels, and numpy's BLAS pool stays out of the solves.
COUNTED = {"cho_factor", "lu_factor", "svdvals"}
HELPERS = {"cho_solve", "lu_solve", "toeplitz", "norm", "lstsq", "LinAlgError"}
FORBIDDEN = ("solve", "eigh", "eigvalsh", "eig", "ldl", "cholesky", "lu", "qr", "svd", "inv", "pinv", "det")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def _modules():
    return [importlib.import_module(f"fracfold.{m.name}") for m in pkgutil.iter_modules(fracfold.__path__)]


def test_wrapped_names_exist(spans):
    for path, _ in (*spans.LAYERS, *spans.KERNELS):
        home, attr = path.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(home), attr, None)), path
    bound = {name for _, _, _, name, _ in spans.bindings()}
    for name in ("operator.eigen", "linearization.lambda1", "linearization.monitor"):
        assert name in bound


def test_no_module_binds_an_uncounted_dense_routine():
    forbidden = {getattr(lib, name) for lib in (scipy.linalg, numpy.linalg) for name in FORBIDDEN if hasattr(lib, name)}
    for module in _modules():
        for key, value in vars(module).items():
            assert not any(value is f for f in forbidden), f"{module.__name__}.{key}"


def _is_linalg(node) -> bool:
    """`linalg` itself, or `<anything>.linalg`."""
    return (isinstance(node, ast.Name) and node.id == "linalg") or (
        isinstance(node, ast.Attribute) and node.attr == "linalg"
    )


def test_linalg_names_in_source_are_counted_or_cheap():
    allowed = COUNTED | HELPERS
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("scipy.linalg", "numpy.linalg"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and _is_linalg(node.value):
                names = [node.attr]
            else:
                continue
            for name in names:
                assert name in allowed, f"{path.name}:{node.lineno} uses linalg.{name}"
