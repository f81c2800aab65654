"""The public signatures of the package."""

import inspect

import thmm
from thmm import _linalg

# tolerances and limits are module constants, and a parameter chain is
# computed from the family it belongs to
CONSTANT = {"rtol", "check_rtol", "cond_limit", "pivot_rtol", "tol_herm", "params"}
DERIVED = {"dsm", "first"}
# the one tolerance a caller sets: the CLI's --rtol
EXCEPTIONS = {("thmm.scalar_determinant_params", "rtol")}


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
