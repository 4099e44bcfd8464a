"""Guards for the benchmark's factorization ledger (perfbench/).

perfbench times fracfold's layers and counts its dense O(n^3) kernels by
wrapping them at every module attribute that binds them, by name.  These
tests fail when a wrapped name disappears, or when fracfold starts calling a
dense factorization the ledger does not count.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy.linalg
import pytest
import scipy.linalg

import fracfold

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SOURCE = pathlib.Path(fracfold.__file__).parent

# the dense kernels the ledger counts, and linalg names that factor no n x n
# matrix (lstsq fits three columns in weights.fit_boundary_exponent;
# get_blas_funcs fetches the O(n^2) triangular solve trsv of
# operator._trsv_pair and the matrix-vector product gemv of operator.matvec,
# each in float64 and float32; get_lapack_funcs fetches the O(n^2) LU solve
# getrs of operator.lu_solver and the tridiagonal eigensolver stevd, which
# diagonalizes the j x j Lanczos tridiagonal, j at most the step count of
# operator._lanczos_largest).  A dense
# `solve` is forbidden from both libraries: every factorization goes through
# scipy's counted kernels, and numpy's BLAS pool stays out of the solves.
# cho_solve is not allowed either: LAPACK's potrs takes 2-4 times as long as
# the trsv pair on one right-hand side.
COUNTED = {"cho_factor", "lu_factor", "svdvals"}
HELPERS = {"get_blas_funcs", "get_lapack_funcs", "norm", "lstsq", "LinAlgError"}
# the factorizations and the solves with their factors: trsv is fetched by get_blas_funcs, getrs by get_lapack_funcs
FACTOR_NAMES = ("cho_factor", "lu_factor", "get_blas_funcs", "get_lapack_funcs")
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


def test_every_exported_name_resolves():
    # a deleted definition must not leave its name behind in an __all__
    modules = [fracfold, *_modules()]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert sum(hasattr(m, "__all__") for m in modules) >= 10
    missing = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert missing == []


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


def test_no_sparse_eigensolver():
    # eigenpairs come from operator's own Lanczos routine, not scipy.sparse.linalg (ARPACK)
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            assert not any(m.startswith("scipy.sparse") for m in modules), f"{path.name}:{node.lineno}"


def test_cli_import_leaves_out_scipy_integrate():
    # only verify's quadrature check needs scipy.integrate, and it imports it
    # on the call: the CLI's start-up does not pay for it
    src = str(SOURCE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, fracfold.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _references(tree, names) -> list[tuple[str | None, int]]:
    """(enclosing top-level definition or None, line) of every name, attribute or import of one of names."""
    sites = []
    for top in tree.body:
        for node in ast.walk(top):
            found = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                found |= {alias.name for alias in node.names}
            if found & names:
                sites.append((getattr(top, "name", None), node.lineno))
    return sites


def test_eigenpairs_have_one_home():
    # the smallest pair of A (phi_1) and of every linearization (lambda1)
    # comes from operator.smallest_eigenpairs, the one home of the Perron
    # test and the Gershgorin fallback; linearization builds no solve itself
    homes = {}
    for path in sorted(SOURCE.glob("*.py")):
        for name, line in _references(ast.parse(path.read_text()), {"_shift_invert_pair", "shifted_spd_solver"}):
            homes.setdefault((path.name, name), []).append(line)
    assert list(homes) == [("operator.py", "smallest_eigenpairs")], homes
    solvers = {"spd_solver", "lu_solver", "shifted_spd_solver", "_shift_invert_pair"}
    assert _references(ast.parse((SOURCE / "linearization.py").read_text()), solvers) == []


def test_linearization_is_built_only_by_branch_points():
    # continuation computes lambda1 and the monitor only when a BranchPoint's are read
    tree = ast.parse((SOURCE / "continuation.py").read_text())
    owned = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "BranchPoint"
        for node in ast.walk(cls)
    }
    names = {"linearized_operator", "lambda1", "fredholm_monitor"}
    sites = [
        f"continuation.py:{node.lineno} {node.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names and id(node) not in owned
    ]
    assert sites == []


def _is_call_to(node, names) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        (isinstance(func, ast.Attribute) and func.attr in names) or (isinstance(func, ast.Name) and func.id in names)
    )


def _writes_a_diagonal(node) -> bool:
    """`m + diag(d)`, or an assignment into `m[diag_indices(...)]` (`+=` included)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_call_to(node.left, {"diag"}) or _is_call_to(node.right, {"diag"})
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(
        isinstance(t, ast.Subscript)
        and any(_is_call_to(sub, {"diag_indices", "diag_indices_from"}) for sub in ast.walk(t.slice))
        for t in targets
    )


def test_jacobians_are_assembled_only_by_the_equation():
    # a matrix diagonal is written in four places: operator writes A's (in
    # NonlocalOperator.dense) and each block's (in _block) and shifts one for
    # the Gershgorin-shifted solve, and singular.Equation adds the potential
    # to make the Jacobian.  Any other site, in any module or a second one in
    # these, is a second Jacobian assembly.
    sites = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            sites += [(path.name, getattr(top, "name", None)) for node in ast.walk(top) if _writes_a_diagonal(node)]
    assert sorted(sites) == [
        ("operator.py", "NonlocalOperator"),
        ("operator.py", "_block"),
        ("operator.py", "shifted_spd_solver"),
        ("singular.py", "Equation"),
    ]


def test_bordered_matrix_takes_its_block_from_the_equation():
    # the corrector's and the fold solve's bordered matrix has G_u written in
    # place by Equation.jacobian, not copied from an array assembled elsewhere
    tree = ast.parse((SOURCE / "singular.py").read_text())
    (equation,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Equation"]
    (solver,) = [f for f in equation.body if isinstance(f, ast.FunctionDef) and f.name == "bordered_solver"]
    calls = [node for node in ast.walk(solver) if _is_call_to(node, {"jacobian"})]
    assert len(calls) == 1 and [kw.arg for kw in calls[0].keywords] == ["out"]


# what decides J's form: its basis (even block or nodes), block order and memory layout
FORM_NAMES = {"Basis", "basis_for"}


def _decides_jacobian_form(node) -> bool:
    """A name of J's basis, a `.basis(` or `.order`, an `order="F"`, or an `odd=` or `out=` passed to `jacobian`."""
    if isinstance(node, (ast.Name, ast.alias)):
        return getattr(node, "id", getattr(node, "name", None)) in FORM_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr == "order"
    if isinstance(node, ast.keyword):
        return node.arg == "order" and isinstance(node.value, ast.Constant) and node.value.value == "F"
    if not isinstance(node, ast.Call):
        return False
    target = node.args[0] if _is_call_to(node, {"partial"}) and node.args else node.func  # partial(eq.jacobian, odd=True)
    name = getattr(target, "attr", getattr(target, "id", None))
    return name == "basis" or (name == "jacobian" and any(kw.arg in ("odd", "out") for kw in node.keywords))


def _form_sites(source: str) -> list[int]:
    return sorted({getattr(node, "lineno", 0) for node in ast.walk(ast.parse(source)) if _decides_jacobian_form(node)})


def test_only_the_equation_decides_the_jacobians_form():
    # outside operator, only singular (the Equation) names J's basis, its
    # block order or its column-major layout, or asks jacobian for a block
    # or a target: linearization and continuation ask the equation for solves
    planted = (
        "from .operator import Basis\nb = basis_for(n, u)\nk = eq.basis(u).order\n"
        "m = np.empty((k, k), order=\"F\")\neq.jacobian(u, odd=True)\neq.jacobian(u, out=m)\n"
        "build = partial(eq.jacobian, u, odd=True)\n"
    )
    assert _form_sites(planted) == [1, 2, 3, 4, 5, 6, 7]
    assert _form_sites("m = np.empty((k, k), order='C')\nj = eq.jacobian(u)\nf = partial(eq.solve, odd=1)\n") == []
    sites = {path.name: _form_sites(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert sites.pop("operator.py") and sites.pop("singular.py")
    assert all(lines == [] for lines in sites.values()), sites


def test_factorizations_are_called_only_in_the_operator_module():
    # every other module solves through operator's spd_solver, lu_solver or
    # shifted_spd_solver, which hand out solves and never a factor, so the
    # factorization ledger has one home
    sites = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            sites += [f"{path.name}:{node.lineno} {name}" for name in names if name in FACTOR_NAMES]
    assert sites and all(site.startswith("operator.py:") for site in sites), sites


# scipy's typed BLAS and LAPACK: the modules, the handle getters, and the routines by precision prefix
LOW_LEVEL = {"blas", "lapack", "get_blas_funcs", "get_lapack_funcs"}
TYPED_ROUTINE = re.compile(r"[sdcz](gemv|gemm|symv|trsv|trsm|potrf|potrs|getrf|getrs|sytrf|stevd|stemr)")


def test_blas_and_lapack_handles_are_bound_only_in_the_operator_module():
    # the float32 kernels of Newton's single-precision factor (sgemv for its
    # probe, strsv for its solves, spotrf through cho_factor) are fetched by
    # precision in `operator`, beside the float64 ones: no other module
    # imports scipy's BLAS or LAPACK, asks for a handle or names a typed routine
    sites = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [*(node.module or "").split("."), *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            sites += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name in LOW_LEVEL or TYPED_ROUTINE.fullmatch(name)
            ]
    assert sites and all(site.startswith("operator.py:") for site in sites), sites
    operator = importlib.import_module("fracfold.operator")
    for table in (operator._GEMV, operator._TRSV):
        assert {dtype.name: f.typecode for dtype, f in table.items()} == {"float64": "d", "float32": "s"}
    # the LU solve and the Lanczos tridiagonal's eigensolver are float64 only (a float32 LU solves in float64)
    assert operator._GETRS is scipy.linalg.lapack.dgetrs and operator._GETRS.typecode == "d"
    assert operator._STEVD is scipy.linalg.lapack.dstevd and operator._STEVD.typecode == "d"


MATRICES = {"matrix", "even_block", "odd_block"}


def _is_matrix(node) -> bool:
    """An `x.matrix`, `x.even_block` or `x.odd_block` attribute, also transposed or sliced."""
    while isinstance(node, ast.Subscript) or (isinstance(node, ast.Attribute) and node.attr == "T"):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in MATRICES


def _matrix_product_sites(source: str) -> list[int]:
    """Lines with a product (`@`, `@=`, `dot`, `matmul`) that has a matrix operand (see `_is_matrix`)."""
    sites = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = [node.target, node.value]
        elif _is_call_to(node, {"dot", "matmul"}):
            operands = [*node.args, *([node.func.value] if isinstance(node.func, ast.Attribute) else [])]
        else:
            continue
        if any(_is_matrix(o) for o in operands):
            sites.add(node.lineno)
    return sorted(sites)


def test_matrix_products_have_one_home():
    # every product of an operator or Jacobian matrix with a vector is
    # operator.matvec, in scipy's BLAS: numpy's matmul would run in numpy's
    # own OpenBLAS, whose thread pool then contends with scipy's
    planted = (
        "a = op.matrix @ u\nb = x @ self.op.even_block\nc = np.dot(lin.odd_block, v)\n"
        "d = op.matrix.dot(v)\ne = np.matmul(op.matrix.T, v)\nf = op.even_block[:k] @ y\n"
    )
    assert _matrix_product_sites(planted) == [1, 2, 3, 4, 5, 6]
    assert _matrix_product_sites("a = u @ v\nb = matvec(op.matrix, u)\nc = qs.T @ w\nd = m.dot(x)\n") == []
    sites = {path.name: _matrix_product_sites(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    sites.pop("operator.py")
    assert all(lines == [] for lines in sites.values()), sites


def test_only_the_operator_module_knows_the_form_of_A():
    # A is held as its Toeplitz column and wall diagonal, and only operator
    # reads them; A is built whole by NonlocalOperator.dense, called only by
    # an asymmetric Jacobian and by the dense checks and dumps
    fields, dense = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        fields += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("column", "wall")
        ]
        for top in tree.body:
            calls = [node for node in ast.walk(top) if _is_call_to(node, {"dense"})]
            dense += [(path.name, getattr(top, "name", None))] * len(calls)
    assert fields and all(site.startswith("operator.py:") for site in fields), fields
    assert sorted(dense) == [
        ("cli.py", "_cmd_assemble_check"),
        ("io.py", "dump_triplets"),
        ("singular.py", "Equation"),
        ("verify.py", "check_comparison"),
    ]


def test_only_the_operator_module_imports_scipy_linalg():
    # no other module receives a LAPACK factor, so none needs scipy.linalg
    sites = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites and all(site.startswith("operator.py:") for site in sites), sites


def _chord_sites(tree) -> list[tuple[str | None, int]]:
    """(enclosing top-level function or None, line) of every use of CHORD_RATIO and
    every read (`store[...]`) or write (`store.append`) of a stored factor."""
    sites = []
    for top in tree.body:
        for node in ast.walk(top):
            chord = isinstance(node, ast.Name) and node.id == "CHORD_RATIO"
            read = isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "store"
            write = (
                _is_call_to(node, {"append"})
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "store"
            )
            if chord or read or write:
                sites.append((getattr(top, "name", None), node.lineno))
    return sites


def test_chord_rule_has_one_home():
    # Newton reuses a factor by one rule, in singular.damped_newton: every
    # solve, the arclength corrector and the fold solve included, hands it a
    # factor function, and no other function keeps a factor of its own
    homes = {}
    for path in sorted(SOURCE.glob("*.py")):
        for name, line in _chord_sites(ast.parse(path.read_text())):
            homes.setdefault((path.name, name), []).append(line)
    assert len(homes.pop(("singular.py", None))) == 1  # the module constant
    assert list(homes) == [("singular.py", "damped_newton")], homes


def _is_minus_one(node) -> bool:
    try:
        return ast.literal_eval(node) == -1
    except ValueError:  # not a literal, as in x[::stride]
        return False


def _reverses(index) -> bool:
    """An index that reverses an axis: `::-1`, alone or in a tuple."""
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(p, ast.Slice) and p.step is not None and _is_minus_one(p.step) for p in parts)


def _is_reversed(node) -> bool:
    """A subscript that reverses an axis (`x[::-1]`, `m[:, ::-1]`), or such a subscript sliced again."""
    return isinstance(node, ast.Subscript) and (_reverses(node.slice) or _is_reversed(node.value))


def _reflection_sites(source: str) -> list[int]:
    """Lines that reflect a matrix (a reversed axis in a tuple subscript, np.flip and kin) or
    fold a vector (x + x[::-1], x - x[::-1])."""
    sites = set()
    for node in ast.walk(ast.parse(source)):
        matrix = isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and _reverses(node.slice)
        flip = _is_call_to(node, {"flip", "fliplr", "flipud", "rot90"})
        folded = (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and (_is_reversed(node.left) or _is_reversed(node.right))
        )
        if matrix or flip or folded:
            sites.add(node.lineno)
    return sorted(sites)


def test_reflection_has_one_home():
    # the even/odd split of the reflection symmetry (fold, unfold, the blocks
    # of A and the test that picks them) lives in operator; every other module
    # goes through its fold, unfold and Basis
    planted = "a = m[:, ::-1]\nb = m[::-1, ::-1][:k]\nc = np.flip(m)\nd = x + x[::-1]\ne = x[:k] - x[::-1][:k]\n"
    assert _reflection_sites(planted) == [1, 2, 3, 4, 5]
    assert _reflection_sites("y = u[-k:][::-1] / d\nz = f(v[::-1][1::2]) + v[::k]\n") == []  # reversals, no fold
    sites = {path.name: _reflection_sites(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert sites.pop("operator.py")
    assert all(lines == [] for lines in sites.values()), sites


def test_reflection_test_picks_only_the_newton_basis():
    # is_even picks the even path of a Newton solve (basis_for) and checks A
    # at assembly; every other solve with A or a reflection-symmetric J is the
    # split solve, whatever its right-hand side
    sites = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls = [node for node in ast.walk(top) if _is_call_to(node, {"is_even"})]
            sites += [(path.name, getattr(top, "name", None))] * len(calls)
    assert sorted(sites) == [("operator.py", "_check_structure"), ("operator.py", "basis_for")]
