"""The stacked paths of analyze and recover against their matrix-by-matrix references.

Each reference below is the loop the stacked code replaced: decoding and
checking a file's matrices one at a time, factoring and inverting each DSM
parameter on its own, taking each name's largest residual from the entries,
the polynomial convolution with zero accumulators, and the convolution
of each monic member with its unit column.  On the goldens,
tests/data/overflow_q3.json and the -0.0 sequences of tests/cli_parity.py the
stacked values equal the references bit for bit (.tobytes()), and on bad
input the stacked checks raise the class and text the loops raised.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from thmm import dsm, polynomials, reporting
from thmm._linalg import cholesky_pd, hermitize, rel_residuals, solve_factored
from thmm.dsm import (
    PARAM_HERMITIAN_RTOL,
    compute_first,
    compute_second,
    product_identities,
    recover_moments,
)
from thmm.errors import (
    InconsistentLengths,
    InvalidMomentSequence,
    NonPositiveParameter,
    PreconditionFailure,
    SingularPivot,
    ThmmError,
)
from thmm.io import decode_matrix, read_moment_file, read_parameter_file
from thmm.moments import DEFAULT_HERMITIAN_RTOL, MomentSequence, _square_matrix
from thmm.polynomials import verify_family_identities

from cli_parity import _signed_zero_inputs
from conftest import family_of

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"


NAMES = ["moments_q1.json", "moments_q2.json", "overflow_q3.json", "negzero/moments_q1.json",
         "negzero/moments_q2.json", "negzero/symmetric_q2_m5", "negzero/symmetric_q2_m6"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The path of each moment input of NAMES; the -0.0 sequences are written once."""
    paths = {name: GOLDEN / name for name in NAMES[:2]}
    paths["overflow_q3.json"] = HERE / "data" / "overflow_q3.json"
    for name, path in _signed_zero_inputs(tmp_path_factory.mktemp("negzero")):
        paths[f"negzero/{name}"] = Path(path)
    assert sorted(paths) == sorted(NAMES)
    return paths


def raw(values):
    return [np.asarray(x).tobytes() for x in values]


# --- the references --------------------------------------------------------

def reference_moments(s):
    """The moments as MomentSequence checked and stored them one by one."""
    q = _square_matrix(s[0], what="s_0").shape[0]
    out = []
    for j, x in enumerate(s):
        mat = _square_matrix(x, q, what=f"s_{j}")
        defect = np.linalg.norm(mat - mat.conj().T)
        if defect > DEFAULT_HERMITIAN_RTOL * (1.0 + np.linalg.norm(mat)):
            raise InvalidMomentSequence(
                f"s_{j} is not Hermitian within tolerance (defect {defect:.3e})")
        out.append(hermitize(mat))
    return out


def reference_read_moments(path):
    data = json.loads(Path(path).read_text())
    mats = [decode_matrix(mj, data["q"], what=f"moments[{j}]")
            for j, mj in enumerate(data["moments"])]
    return reference_moments(mats)


def reference_inverse(a, family="matrix", index=0):
    """The inverse of one positive definite parameter, by its own Cholesky solve."""
    L = cholesky_pd(a)
    if L is None:
        raise SingularPivot(family, index)
    return solve_factored(L, np.eye(a.shape[0], dtype=complex))


def reference_recover_inverses(s0, mhat, lhat):
    """recover_moments' parameter checks and inverses, one parameter at a time."""
    def require(x, name, index):
        mat = np.asarray(x, dtype=complex)
        if np.linalg.norm(mat - mat.conj().T) > PARAM_HERMITIAN_RTOL * (1.0 + np.linalg.norm(mat)):
            raise NonPositiveParameter(name, index)
        L = cholesky_pd(hermitize(mat))
        if L is None:
            raise NonPositiveParameter(name, index)
        return L

    require(s0, "s0", 0)
    eye = np.eye(len(s0), dtype=complex)
    inv_m = [solve_factored(require(x, "mhat", j), eye) for j, x in enumerate(mhat)]
    inv_l = [solve_factored(require(x, "lhat", j), eye) for j, x in enumerate(lhat)]
    if not len(inv_l) <= len(inv_m) <= len(inv_l) + 1:
        raise InconsistentLengths(
            f"need as many mhat as lhat parameters, or one more; got {len(inv_m)} and {len(inv_l)}")
    return inv_m, inv_l


def reference_convolve(row, col, shift=None, sign=1.0):
    j = len(row) - 1
    q = row[0].shape[0]
    deg = j + (1 if shift is not None else 0)
    coeffs = [np.zeros((q, q), dtype=complex) for _ in range(deg + 1)]
    for p in range(j + 1):
        acc = np.zeros((q, q), dtype=complex)
        for k in range(j - p + 1):
            acc = acc + row[k + p] @ col[k]
        coeffs[p] += acc
    if shift is not None:
        for p in range(j + 1):
            coeffs[p + 1] += row[p] @ shift
    coeffs = [sign * c for c in coeffs]
    while len(coeffs) > 1 and not coeffs[-1].any():
        coeffs.pop()
    return tuple(coeffs)


def reference_checks(monkeypatch, run):
    """run() and the (name, residual) of each check of its report, pair by pair."""
    checks = []
    real = reporting.IdentityChecks.report

    def report(self):
        pairs = zip(np.concatenate(self.lhs), np.concatenate(self.rhs)) if self.names else ()
        checks.append([(name, float(rel_residuals(x[None], y[None])[0]))
                       for name, (x, y) in zip(self.names, pairs)])
        return real(self)

    monkeypatch.setattr(reporting.IdentityChecks, "report", report)
    return run(), checks[-1]


def reference_maxima(checks):
    """Each name's largest residual as the check-by-check report took it."""
    names = []
    for name, _ in checks:
        if name not in names:
            names.append(name)
    return {name: max(res for other, res in checks if other == name) for name in names}


def error_of(call, *args):
    try:
        call(*args)
    except (ThmmError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# --- reading ---------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_moment_file_reads_as_the_matrix_by_matrix_loop(inputs, name):
    path = inputs[name]
    seq = read_moment_file(path)
    assert raw(seq.s) == raw(reference_read_moments(path))
    assert all(x.base is seq.s[0].base and not x.flags.writeable for x in seq.s)


@pytest.mark.parametrize("golden", ["params_q1.json", "params_q2.json"])
def test_parameter_file_reads_as_the_matrix_by_matrix_loop(golden):
    data = json.loads((GOLDEN / golden).read_text())
    _, mhat, lhat, _, _ = read_parameter_file(GOLDEN / golden)
    for key, stack in (("mhat", mhat), ("lhat", lhat)):
        assert raw(stack) == raw([decode_matrix(x, data["q"]) for x in data[key]])


def moments_with(bad):
    """Hermitian 2 x 2 moments s_0..s_3 with the changes bad = {j: matrix} made."""
    s = [np.array([[2.0 / (j + 1), 0.25j], [-0.25j, 1.0 / (j + 1)]]) for j in range(4)]
    for j, mat in bad.items():
        s[j] = mat
    return tuple(s)


SKEW = np.array([[1.0, 0.5], [0.0, 1.0]])
NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])
WRONG = np.eye(3)


@pytest.mark.parametrize("bad", [
    {0: SKEW}, {2: SKEW}, {0: NAN}, {3: NAN}, {0: WRONG}, {2: WRONG},
    {1: NAN, 2: SKEW}, {1: SKEW, 2: NAN}, {1: SKEW, 3: WRONG}, {1: WRONG, 2: SKEW},
    {0: SKEW, 1: NAN, 2: WRONG},
], ids=str)
def test_moment_checks_raise_as_the_loop_did(bad):
    s = moments_with(bad)
    expected = error_of(reference_moments, s)
    assert expected is not None and expected[0] is InvalidMomentSequence
    assert error_of(MomentSequence, 0.0, 1.0, s) == expected


def test_scalar_moments_are_one_by_one_matrices():
    seq = MomentSequence(0.0, 1.0, (1.0, 0.5, 1.0 / 3.0))
    assert raw(seq.s) == raw(reference_moments((1.0, 0.5, 1.0 / 3.0)))
    assert seq.q == 1 and seq.s[2].shape == (1, 1)


def test_moment_file_errors_name_the_first_bad_matrix(tmp_path):
    first = [[[1.0, 0.0]]]
    cases = {
        "nan_then_shape": [first, [[[float("nan"), 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]],
        "shape_then_nan": [first, [[1.0, 0.0]], [[[float("nan"), 0.0]]]],
        "string": [first, "abc"],
    }
    for name, moments in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"q": 1, "a": 0.0, "b": 1.0, "moments": moments}))
        expected = error_of(lambda: [decode_matrix(x, 1, what=f"moments[{j}]")
                                     for j, x in enumerate(moments)])
        assert expected is not None
        assert error_of(read_moment_file, path) == expected


def test_a_moment_whose_norm_overflows_is_tested_with_the_scaled_norm():
    # np.linalg.norm of this s_1 overflows to inf, which let any defect through
    big = np.array([[1e200, 1e200], [-1e200, 1e200]])
    with np.errstate(over="ignore"), pytest.raises(InvalidMomentSequence,
                                                   match="s_1 is not Hermitian"):
        MomentSequence(0.0, 1.0, (np.eye(2), big))
    herm = np.array([[1e200, 1e199j], [-1e199j, 1e200]])
    assert MomentSequence(0.0, 1.0, (np.eye(2), herm)).s[1][0, 1] == 1e199j


# --- the parameter chains --------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_stacked_chain_inverses_equal_each_inverse(inputs, name):
    fam = family_of(read_moment_file(inputs[name]))
    try:
        chain = compute_second(fam)
    except ThmmError:
        pytest.skip("no second-type chain")
    q = fam.seq.q
    eye = np.eye(q, dtype=complex)
    for label, params in (("mhat", chain.mhat), ("lhat", chain.lhat_from_zero)):
        stack, factors = dsm._chain_factors(params, q, label, SingularPivot)
        assert raw(solve_factored(factors, eye)) == raw([reference_inverse(x) for x in params])
    # the parameters as recover reads them back
    inv_m, inv_l = reference_recover_inverses(chain.s0, chain.mhat, chain.lhat_from_zero)
    for label, params, reference in (("mhat", chain.mhat, inv_m),
                                     ("lhat", chain.lhat_from_zero, inv_l)):
        _, factors = dsm._chain_factors(params, q, label, NonPositiveParameter,
                                        PARAM_HERMITIAN_RTOL)
        assert raw(solve_factored(factors, eye)) == raw(reference)


def chain_with(bad):
    """s0, mhat and lhat of params_q2.json with the changes bad = {(name, j): matrix} made."""
    s0, mhat, lhat, _, _ = read_parameter_file(GOLDEN / "params_q2.json")
    chains = {"s0": [s0], "mhat": list(mhat), "lhat": list(lhat)}
    for (name, j), mat in bad.items():
        if mat is None:
            del chains[name][j:]
        else:
            chains[name][j] = mat
    return chains["s0"][0], chains["mhat"], chains["lhat"]


INDEFINITE = np.array([[1.0, 0.0], [0.0, -1.0]])
SKEW_PD = np.array([[2.0, 0.5], [0.0, 2.0]])


@pytest.mark.parametrize("bad", [
    {("s0", 0): SKEW_PD}, {("s0", 0): INDEFINITE},
    {("mhat", 0): INDEFINITE}, {("mhat", 2): SKEW_PD},
    {("mhat", 1): INDEFINITE, ("mhat", 2): SKEW_PD}, {("mhat", 2): SKEW_PD, ("lhat", 0): INDEFINITE},
    {("lhat", 0): SKEW_PD}, {("lhat", 1): INDEFINITE},
    {("s0", 0): INDEFINITE, ("mhat", 0): SKEW_PD},
    {("lhat", 0): None}, {("lhat", 0): None, ("mhat", 1): INDEFINITE},
    {("mhat", 1): None, ("lhat", 1): INDEFINITE},
], ids=str)
def test_parameter_checks_raise_as_the_loop_did(bad):
    s0, mhat, lhat = chain_with(bad)
    expected = error_of(reference_recover_inverses, s0, mhat, lhat)
    assert expected is not None
    assert error_of(recover_moments, s0, mhat, lhat, -0.5, 1.5) == expected


@pytest.mark.parametrize("name, index", [("mhat", 0), ("mhat", 1), ("lhat", 0), ("lhat", 1)])
def test_product_identities_name_the_first_singular_parameter(name, index):
    fam = family_of(read_moment_file(GOLDEN / "moments_q2.json"))
    chain, first = compute_second(fam), compute_first(fam)
    params = list(chain.mhat if name == "mhat" else chain.lhat_from_zero)
    for j in (index, len(params) - 1):   # the first failing one is named
        params[j] = -params[j]
    broken = (dataclasses.replace(chain, mhat=tuple(params)) if name == "mhat" else
              dataclasses.replace(chain, lhat=(chain.s0, *params)))
    expected = error_of(lambda: [reference_inverse(x, name, j) for j, x in enumerate(params)])
    assert expected == (SingularPivot, str(SingularPivot(name, index)))
    assert error_of(product_identities, fam, broken, first) == expected


# --- the reports -----------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_columnar_reports_keep_each_names_largest_residual(inputs, name, monkeypatch):
    fam = family_of(read_moment_file(inputs[name]))
    runs = [lambda: verify_family_identities(fam)]
    try:
        chain = compute_second(fam)
    except ThmmError:
        chain = None
    if chain is not None:
        runs.append(lambda: product_identities(fam, chain, compute_first(fam)))
    for run in runs:
        report, checks = reference_checks(monkeypatch, run)
        expected = reference_maxima(checks)
        assert list(report) == list(expected)
        assert raw(list(report.values())) == raw(list(expected.values()))
        assert max(report.values()) == max(res for _, res in checks)


@pytest.mark.parametrize("lhs, rhs", [(np.nan, 1.0), (1e308, -1e308)], ids=["nan", "inf"])
def test_a_residual_out_of_float_range_is_refused_naming_its_check(lhs, rhs):
    checks = reporting.IdentityChecks()
    eye = np.eye(2)
    checks.add("a", 0, eye, eye)
    checks.add_stack("b", [1, 2, 3], np.stack([eye, eye, lhs * eye]),
                     np.stack([eye, eye, rhs * eye]))
    checks.add("c", 1, np.nan * eye, eye)
    with np.errstate(all="ignore"), pytest.raises(PreconditionFailure) as err:
        checks.report()
    assert str(err.value) == "identity b at j=3 leaves the float range"


def test_first_above_is_the_first_check_added_and_never_a_nan():
    checks = reporting.IdentityChecks()
    eye = np.eye(2)
    checks.add_stack("a", [0, 1], np.stack([eye, np.nan * eye]), np.stack([eye, eye]))
    checks.add_stack("b", [0, 1, 2], np.stack([eye, 3 * eye, 5 * eye]), np.stack([eye] * 3))
    name, j, res = checks.first_above(0.5)
    assert (name, j, res) == ("b", 1, pytest.approx(2 / 3, rel=1e-15))
    name, j, res = checks.first_above(0.7)
    assert (name, j, res) == ("b", 2, pytest.approx(4 / 5, rel=1e-15))
    assert checks.first_above(0.9) is None
    assert reporting.IdentityChecks().first_above(0.0) is None


# --- the polynomial coefficients -------------------------------------------

MEMBERS = (("P1", "H1", False, None, 1.0), ("Q1", "H1", True, None, -1.0),
           ("P2", "H2", False, None, 1.0), ("Q2", "H2", True, "s0", -1.0),
           ("G1", "K1", False, None, 1.0), ("T1", "K1", True, None, 1.0),
           ("G2", "K2", False, None, 1.0), ("T2", "K2", True, None, 1.0))


@pytest.mark.parametrize("name", NAMES)
def test_lean_convolve_equals_the_zero_accumulator_loop(inputs, name):
    fam = family_of(read_moment_file(inputs[name]))
    hank = fam.hankels
    q = fam.seq.q
    compared = 0
    for tag, family, second, shift, sign in MEMBERS:
        for j in range(len(getattr(fam, tag.lower()))):
            try:
                row = polynomials._schur_row(hank, family, j, q)
            except ThmmError:
                continue
            column = hank.second_kind(family, j) if second else hank.v(j)
            col = polynomials._split_blocks(column, j, q)
            shift_mat = fam.seq.s[0] if shift else None
            lean = polynomials._convolve(row, col, shift_mat, sign)
            assert raw(lean) == raw(reference_convolve(row, col, shift_mat, sign))
            # a monic member is its Schur row plus 0.0, in C order, not a convolution
            member = getattr(fam, tag.lower())[j]
            assert raw(member.coeffs) == raw(lean)
            assert all(c.flags.c_contiguous for c in member.coeffs)
            compared += 1
    assert compared
