"""The public names and signatures of the package."""

import ast
import collections
import inspect
import textwrap
from pathlib import Path

import thmm
from thmm import _linalg
from thmm.cli import main

# tolerances and limits are module constants, and a parameter chain is
# computed from the family it belongs to
CONSTANT = {"rtol", "check_rtol", "cond_limit", "pivot_rtol", "tol_herm", "params"}
DERIVED = {"dsm", "first"}
# the one tolerance a caller sets is the CLI's --rtol, which no library function takes
EXCEPTIONS = set()


def _public_callables():
    """(qualified name, function) of each public function, class and method of thmm and _linalg."""
    for module in (thmm, _linalg):
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("thmm"):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_function_takes_a_tolerance_or_a_chain_it_can_derive():
    found = set()
    for name, fn in _public_callables():
        for param in inspect.signature(fn).parameters.values():
            if param.name in CONSTANT or (
                    param.name in DERIVED and param.default is not inspect.Parameter.empty):
                found.add((name, param.name))
    assert found == EXCEPTIONS


# every name thmm exports; a name added or removed is an edit here
EXPORTS = {
    # errors
    "EmptyMeasure", "IllConditioned", "InconsistentLengths", "InsufficientMoments",
    "InvalidMomentSequence", "NonPositiveParameter", "PointOnInterval", "PointOutsideInterval",
    "PoleAtZ", "RouteMismatch", "SingularDenominator", "SingularLevel", "SingularNormalization",
    "SingularPivot", "ThmmError", "WrongMatrixSize",
    # moments
    "Classification", "DiscreteMeasure", "HankelSet", "MomentSequence", "Witness",
    "build_hankels", "classify",
    # polynomials
    "MatrixPoly", "PolynomialFamily", "adjoint_eval", "build_family", "eval_poly",
    "verify_family_identities",
    # dsm
    "DsmFirst", "DsmSecond", "compute_first", "compute_second", "product_identities",
    "recover_moments", "scalar_determinant_params",
    # resolvent
    "resolvent_direct_many", "resolvent_factorized_many", "resolvent_factors",
    # extremal
    "extremal_cf_many", "extremal_quotient_many",
}


def test_the_exported_names_are_exactly_these():
    exported = {name for name, obj in vars(thmm).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == EXPORTS


def test_no_public_function_tests_the_type_of_its_first_argument():
    # each function takes one input type: the pipeline build_hankels ->
    # classify -> build_family -> the rest hands each step what it reads
    found = set()
    for name, fn in _public_callables():
        if inspect.isclass(fn):
            continue
        node = ast.parse(textwrap.dedent(inspect.getsource(inspect.unwrap(fn)))).body[0]
        params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
        if params[:1] == ["self"]:
            params = params[1:]
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
                    and params and getattr(call.args[0], "id", None) == params[0]):
                found.add(name)
    assert found == set()


def _definitions():
    """{name: [(qualified name, node)]} of each top-level function, class, method and constant."""
    defs = collections.defaultdict(list)
    for path in sorted(Path(thmm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[target.id].append((f"{path.stem}.{target.id}", node))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name].append((f"{path.stem}.{node.name}", node))
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef):
                        defs[member.name].append((f"{path.stem}.{node.name}.{member.name}", member))
    return defs


def _names_used(node):
    """Every name and attribute named in node; a class body without its non-dunder methods."""
    skip = {id(m) for m in node.body if isinstance(m, ast.FunctionDef)
            and not m.name.startswith("__")} if isinstance(node, ast.ClassDef) else set()
    used, todo = set(), [node]
    while todo:
        for child in ast.iter_child_nodes(todo.pop()):
            if id(child) not in skip:
                used.add(getattr(child, "id", None) or getattr(child, "attr", None))
                todo.append(child)
    return used


def test_every_definition_is_reached_from_a_command():
    # a name-level call walk from cli.main, the console script's cli.entry
    # and the cmd_* functions: a definition is reached when a reached body
    # names it, however qualified
    defs = _definitions()
    nodes = {qual: node for entries in defs.values() for qual, node in entries}
    reached = set()
    todo = [qual for qual in nodes
            if qual in ("cli.main", "cli.entry") or qual.startswith("cli.cmd_")]
    while todo:
        qual = todo.pop()
        if qual not in reached:
            reached.add(qual)
            todo += [other for name in _names_used(nodes[qual]) for other, _ in defs.get(name, ())]
    unreached = {qual for qual in nodes if not qual.rsplit(".", 1)[1].startswith("__")} - reached
    assert unreached == set()


def test_only_linalg_reaches_the_solve_inverse_and_cholesky_kernels():
    # _linalg.solve, inv, cholesky and cond are the one dispatch point to
    # these LAPACK kernels: no other module names np.linalg's or the gufuncs
    kernels = {"solve", "inv", "cholesky", "cond", "svd"}
    found = set()
    for path in sorted(Path(thmm.__file__).parent.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            owner = getattr(node, "value", None)
            if isinstance(node, ast.Attribute) and node.attr in kernels and (
                    getattr(owner, "attr", None) or getattr(owner, "id", None)) == "linalg":
                found.add((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
                found.add((path.name, node.lineno))
            elif "_umath_linalg" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.add((path.name, node.lineno))
    assert found == set()


def test_m_decides_the_parity_so_nothing_takes_one(capsys):
    # m = 2n reads the even case and m = 2n + 1 the odd one; the other case
    # of the same data is the sequence without its last moment
    found = set()
    for path in sorted(Path(thmm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                if "parity" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    found.add((path.name, node.lineno))
    assert found == set()
    moments = str(Path(__file__).parent / "golden" / "moments_q1.json")
    for command in ("factorize", "extremal"):
        for parity in ("even", "odd", "auto"):
            assert main([command, "--input", moments, "--z=2+1i", "--parity", parity]) == 2
            assert f"unrecognized arguments: --parity {parity}" in capsys.readouterr().err
