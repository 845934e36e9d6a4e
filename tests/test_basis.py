import math

import numpy as np
import pytest

from symtree.basis import (X_GUARD, BasisFunction, basis_from_forms, canonical_basis,
                           evaluate_basis, evaluate_basis_matrix, parse_form)
from symtree.errors import DimensionError, DomainError, ParseError

from oracles import loop_basis_program, reference_basis_row

CANONICAL_FORMS = [
    "1", "x", "x^2", "x^3", "x^4", "x^5",
    "exp(x)", "x*exp(x)", "x^2*exp(x)", "x^3*exp(x)",
    "exp(-x)", "x*exp(-x)", "x^2*exp(-x)", "x^3*exp(-x)",
    "x*exp(1/x)", "x^2*exp(1/x)", "x^3*exp(1/x)",
    "exp(-1/x)", "x*exp(-1/x)",
]


def test_canonical_order_and_size():
    bs = canonical_basis()
    assert bs.size == 19
    assert [f.form for f in bs.functions] == CANONICAL_FORMS


def test_canonical_row_16_is_x_exp_reciprocal():
    # functions[15] is the 16th entry by id but the 15th zero-based position
    assert canonical_basis().functions[14].form == "x*exp(1/x)"


def test_evaluate_at_one():
    vals = evaluate_basis(canonical_basis(), 1.0)
    # polynomial rows all equal 1 at x = 1
    assert np.allclose(vals[:6], 1.0)
    # 1/x = x at 1, so the decaying families coincide
    assert vals[6] == pytest.approx(math.e)
    assert vals[10] == pytest.approx(vals[17])


def test_evaluate_at_half():
    vals = evaluate_basis(canonical_basis(), 0.5)
    assert vals[6] == pytest.approx(1.648721, abs=1e-6)
    assert vals[14] == pytest.approx(3.694528, abs=1e-6)


def test_singularity_raises():
    with pytest.raises(DomainError):
        evaluate_basis(canonical_basis(), 0.0)


def test_no_overflow_on_domain():
    bs = canonical_basis()
    xs = np.linspace(0.1, 0.9, 301)
    mat = evaluate_basis_matrix(bs, xs.reshape(-1, 1))
    assert np.all(np.isfinite(mat))
    assert np.max(np.abs(mat)) <= 2.3e4


def test_form_round_trip():
    for form in CANONICAL_FORMS:
        f = parse_form(form)
        assert f.form == form


def test_parse_rejects_garbage():
    for bad in ["", "x^", "exp(2x)", "x**2", "sin(x)"]:
        with pytest.raises(ParseError):
            parse_form(bad)


def test_basis_from_forms_matches_canonical():
    bs = basis_from_forms(CANONICAL_FORMS)
    ref = canonical_basis()
    x = 0.37
    assert np.allclose(evaluate_basis(bs, x), evaluate_basis(ref, x))


def test_function_values_match_closed_forms():
    rng = np.random.default_rng(0)
    bs = canonical_basis()
    for x in rng.uniform(0.1, 0.9, 20):
        vals = evaluate_basis(bs, x)
        expected = [
            1, x, x**2, x**3, x**4, x**5,
            math.exp(x), x * math.exp(x), x**2 * math.exp(x), x**3 * math.exp(x),
            math.exp(-x), x * math.exp(-x), x**2 * math.exp(-x),
            x**3 * math.exp(-x),
            x * math.exp(1 / x), x**2 * math.exp(1 / x), x**3 * math.exp(1 / x),
            math.exp(-1 / x), x * math.exp(-1 / x),
        ]
        assert np.allclose(vals, expected, rtol=1e-12)


@pytest.mark.parametrize("x", [0.001, -0.001, 800.0])
def test_overflow_raises_domain_error(x):
    bs = canonical_basis()
    with pytest.raises(DomainError, match="overflowed"):
        evaluate_basis(bs, x)
    with pytest.raises(DomainError, match="overflowed"):
        evaluate_basis_matrix(bs, [[0.5], [x]])
    with pytest.raises(DomainError, match="overflowed"):
        for f in bs.functions:
            f(x)


def test_overflow_names_the_form():
    with pytest.raises(DomainError, match=r"'exp\(-1/x\)'"):
        evaluate_basis(canonical_basis(), -0.001)
    with pytest.raises(DomainError, match=r"'x\^5@1'"):
        evaluate_basis(basis_from_forms(["x", "x^5@1"]), [1.0, 1e100])
    # each factor finite, the product not
    with pytest.raises(DomainError, match=r"'x\^5\*exp\(x\)'"):
        evaluate_basis(basis_from_forms(["exp(x)", "x^5*exp(x)"]), 700.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_input_raises(x):
    with pytest.raises(DomainError):
        evaluate_basis(canonical_basis(), x)


def test_evaluation_matches_oracle_bitwise():
    bs = canonical_basis()
    xs = np.random.default_rng(5).uniform(0.1, 0.9, 500)
    rows = np.array([reference_basis_row(bs.functions, x) for x in xs])
    assert all(np.array_equal(evaluate_basis(bs, x), row) for x, row in zip(xs, rows))
    assert np.array_equal(evaluate_basis_matrix(bs, xs.reshape(-1, 1)), rows)
    assert all(np.array_equal([f(x) for f in bs.functions], row)
               for x, row in zip(xs[:20], rows))


def test_two_feature_evaluation_matches_oracle_bitwise():
    # each exponential argument appears on both coordinates
    bs = basis_from_forms([
        "1", "x", "x@1", "exp(x)", "x*exp(x)@1", "x^2*exp(x)", "exp(x)@1",
        "exp(-x)@1", "x^3*exp(-x)", "x*exp(1/x)@1", "x^2*exp(1/x)",
        "exp(-1/x)", "x*exp(-1/x)@1", "x^4@1",
    ])
    X = np.random.default_rng(6).uniform(0.1, 0.9, (200, 2))
    X[:, 1] *= -1.0
    rows = np.array([reference_basis_row(bs.functions, x) for x in X])
    assert all(np.array_equal(evaluate_basis(bs, x), row) for x, row in zip(X, rows))
    assert np.array_equal(evaluate_basis_matrix(bs, X), rows)


@pytest.mark.parametrize("X, shape", [(np.array([0.2, 0.5]), r"\(2,\)"), (0.2, r"\(\)"),
                                      ([[[0.2, 0.5]]], r"\(1, 1, 2\)")],
                         ids=["1-D", "scalar", "3-D"])
def test_basis_matrix_refuses_non_matrix(X, shape):
    # A 1-D array was read as one point, [[1, 0.2]]; Dataset reads it as two.
    with pytest.raises(DimensionError, match=rf"got shape {shape}$"):
        evaluate_basis_matrix(basis_from_forms(["1", "x"]), X)


TWO_FEATURE_FORMS = [
    "1", "x", "x@1", "exp(x)", "x*exp(x)@1", "x^2*exp(x)", "exp(x)@1",
    "exp(-x)@1", "x^3*exp(-x)", "x*exp(1/x)@1", "x^2*exp(1/x)",
    "exp(-1/x)", "x*exp(-1/x)@1", "x^4@1",
]


def _outcome(evaluate, forms, v):
    """The bits of every value, or the type and message of the error."""
    try:
        return [value.hex() for value in evaluate(forms, v)]
    except (DomainError, DimensionError) as e:
        return type(e), str(e)


def test_compiled_program_matches_loop_oracle():
    def compiled(forms, v):
        return evaluate_basis(basis_from_forms(forms), v).tolist()

    def loop(forms, v):
        return loop_basis_program(basis_from_forms(forms).functions, v)

    rng = np.random.default_rng(22)
    special = [0.0, -0.0, X_GUARD, -X_GUARD, 9.99e-7, -9.99e-7, 800.0, -0.001,
               math.nan, math.inf, -math.inf]
    xs = [*rng.uniform(1e-3, 3.0, 300), *rng.uniform(-3.0, -1e-3, 300), *special]
    cases = [(CANONICAL_FORMS, [x]) for x in xs]
    cases.append((["x", "x^5@1"], [1.0, 1e100]))
    cases.append((TWO_FEATURE_FORMS, [0.5]))
    # a guard or an overflow met before the missing coordinate is read
    cases += [(["x*exp(1/x)", "x@1"], [0.0]), (["x^5", "x@1"], [1e100])]
    for forms in (["x^2*exp(-1/x)"], ["1"], ["x*exp(x)", "exp(x)", "x*exp(x)", "x", "x"], []):
        cases += [(forms, [x]) for x in [0.5, -2.0, *special]]
    # an exponential and an earlier form's power both overflow, and a power
    # whose first user is not the first function overflows
    blame = [(["x^200", "exp(x)"], [800.0]), (["exp(x)", "x^400", "x^400*exp(-x)"], [10.0])]
    cases += blame
    outcomes = [_outcome(compiled, forms, v) for forms, v in cases]
    assert outcomes == [_outcome(loop, forms, v) for forms, v in cases]
    assert outcomes[-len(blame):] == [
        (DomainError, "basis form 'exp(x)' overflowed at x=800.0"),
        (DomainError, "basis form 'x^400' overflowed at x=10.0"),
    ]
    # every path is taken: the guard, overflow and a missing coordinate
    errors = [o for o in outcomes if isinstance(o, tuple)]
    assert any("undefined for" in message for _, message in errors)
    assert any("overflowed" in message for _, message in errors)
    assert any(kind is DimensionError for kind, _ in errors)
    assert _outcome(compiled, [], [0.5]) == []


@pytest.mark.parametrize("kwargs", [{"power": 2.5}, {"power": True}, {"power": -1},
                                    {"power": 1, "coordinate": -1},
                                    {"power": 1, "coordinate": 1.0},
                                    {"power": 1, "coordinate": True}])
def test_power_and_coordinate_must_be_nonnegative_ints(kwargs):
    # x^2.5 and x@-1 would evaluate but never parse back; 1.0 and True are
    # not integers, though True == 1 would read as x
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        BasisFunction(**kwargs)
