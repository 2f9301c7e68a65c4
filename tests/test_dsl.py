from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import (
    DimensionMismatch,
    EvalError,
    IdentitySyntaxError,
    Vector,
    builtin,
    check_builtin,
    check_identity,
    eval_ast,
    format_identity,
    parse_identity,
    parse_identity_file,
)
from maltsev.dsl import MAX_NESTING, Bracket, Scale, Sum, Var
from maltsev.identities import BUILTIN_IDENTITIES


# ------------------------------------------------------------------ parsing

def test_parse_anticommutativity():
    ast = parse_identity("[x,y] + [y,x] = 0")
    assert ast.variables == ("x", "y")
    assert ast.multiplicities == (1, 1)
    assert ast.rhs == Sum(())


def test_parse_ternary_definition_restated():
    ast = parse_identity("[x,[y,z]] - [y,[x,z]] + [[x,y],z] - [x,y,z] = 0")
    assert ast.variables == ("x", "y", "z")
    assert ast.multiplicities == (1, 1, 1)


def test_parse_maltsev_multiplicities():
    ast = parse_identity(BUILTIN_IDENTITIES["maltsev"].dsl_text)
    assert ast.variables == ("x", "y", "z")
    assert ast.multiplicities == (2, 1, 1)


def test_multiplicity_is_max_per_additive_term():
    ast = parse_identity("[x,[x,y]] + [x,z] = 0")
    assert dict(zip(ast.variables, ast.multiplicities)) == {"x": 2, "y": 1, "z": 1}
    # nested sums count inside their term
    ast = parse_identity("[x + y, x] = 0")
    assert dict(zip(ast.variables, ast.multiplicities)) == {"x": 2, "y": 1}


def test_parse_coefficients():
    ast = parse_identity("1/6*[x,y] - 2*z + 0 = -1*x")
    lhs = ast.lhs
    assert isinstance(lhs, Sum)
    assert lhs.terms[0] == Scale(Fraction(1, 6), Bracket((Var("x"), Var("y"))))
    assert lhs.terms[1] == Scale(-1, Scale(2, Var("z")))
    assert lhs.terms[2] == Sum(())
    assert ast.rhs == Scale(-1, Var("x"))


def test_parse_reduces_coefficients():
    ast = parse_identity("4/2*x = 0")
    assert ast.lhs == Scale(2, Var("x"))


@pytest.mark.parametrize("text,fragment", [
    ("[x,y,z", "end of input"),
    ("[x]", "','"),
    ("[x,y,z,w] = 0", "']'"),
    ("x + 5 = 0", "'*'"),
    ("x = ", "a variable"),
    ("x", "'='"),
    ("1/0*x = 0", "nonzero denominator"),
    ("X = 0", "'X'"),
    ("x ? y = 0", "'?'"),
    ("x = 0 = 0", "end of input"),
    ("-0 = 0", "'*'"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(IdentitySyntaxError) as exc:
        parse_identity(text)
    assert fragment in str(exc.value)


def test_syntax_error_carries_position():
    with pytest.raises(IdentitySyntaxError) as exc:
        parse_identity("[x,y] +\n[y,x = 0")
    assert exc.value.line == 2
    assert exc.value.column == 6


def _nested(depth):
    return "[x," * depth + "y" + "]" * depth


def test_nesting_limit_is_a_syntax_error():
    ast = parse_identity(f"{_nested(MAX_NESTING)} = 0")
    assert parse_identity(format_identity(ast)) == ast
    with pytest.raises(IdentitySyntaxError) as exc:
        parse_identity(f"x = {_nested(MAX_NESTING + 1)}")
    assert (exc.value.line, exc.value.column) == (1, 5 + 3 * MAX_NESTING)
    assert "nested brackets" in str(exc.value)
    with pytest.raises(IdentitySyntaxError, match="line 2"):
        parse_identity_file(f"x = x\n{_nested(400)} = 0\n")


def test_deepest_allowed_identity_evaluates(so3):
    deep = _nested(MAX_NESTING)
    report = check_identity(so3, parse_identity(f"{deep} = {deep}"))
    assert report.holds


@given(st.text(max_size=30))
def test_parser_only_raises_syntax_errors(text):
    try:
        parse_identity(text)
    except IdentitySyntaxError:
        pass


# ------------------------------------------------------------- identity files

def test_parse_identity_file():
    text = (
        "# GLTS axiom (a)\n"
        "[x,y] + [y,x] = 0\n"
        "\n"
        "[x,y,z] + [y,x,z] = 0  # axiom (b)\n"
    )
    parsed = parse_identity_file(text)
    assert [lineno for lineno, _ in parsed] == [2, 4]


def test_parse_identity_file_reports_failing_line():
    with pytest.raises(IdentitySyntaxError, match="line 3"):
        parse_identity_file("[x,y] = 0\n\n[x,y = 0\n")


# ---------------------------------------------------------------- formatting

def test_roundtrip_builtin_dsl_texts():
    for ident in BUILTIN_IDENTITIES.values():
        if ident.dsl_text is None:
            continue
        ast = parse_identity(ident.dsl_text)
        assert parse_identity(format_identity(ast)) == ast


_expr_strategy = st.deferred(lambda: st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z")]),
    st.builds(lambda a, b: Bracket((a, b)), _expr_strategy, _expr_strategy),
    st.builds(lambda a, b, c: Bracket((a, b, c)),
              _expr_strategy, _expr_strategy, _expr_strategy),
    st.builds(
        Scale,
        st.one_of(st.integers(-9, 9).filter(bool),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)),
        st.sampled_from([Var("x"), Var("y")])),
    st.builds(lambda ts: Sum(tuple(ts)) if len(ts) != 1 else ts[0],
              st.lists(st.deferred(lambda: _term_strategy), max_size=3)),
))
_term_strategy = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.builds(lambda a, b: Bracket((a, b)), _expr_strategy, _expr_strategy),
)


@given(lhs=_expr_strategy, rhs=_expr_strategy)
def test_roundtrip_random_asts(lhs, rhs):
    from maltsev.dsl import IdentityAst, _infer_variables
    variables, multiplicities = _infer_variables(lhs, rhs)
    ast = IdentityAst(variables, multiplicities, lhs, rhs)
    text = format_identity(ast)
    assert parse_identity(text) == ast


# ---------------------------------------------------------------- evaluation

def test_eval_simple(so3):
    e1, e2 = so3.basis_vector(0), so3.basis_vector(1)
    lhs, rhs = eval_ast(so3, parse_identity("[x,y] = 0"), {"x": e1, "y": e2})
    assert lhs == so3.basis_vector(2)
    assert rhs == Vector.zero(3)


def test_eval_lie_collapse(so3):
    e1, e2 = so3.basis_vector(0), so3.basis_vector(1)
    lhs, rhs = eval_ast(so3, parse_identity("[x,y,z] = 2*[[x,y],z]"),
                        {"x": e1, "y": e2, "z": e1})
    assert lhs == 2 * so3.basis_vector(1)
    assert rhs == lhs


def test_eval_abelian_everything_vanishes():
    A = builtin("abelian(2)")
    ast = parse_identity("[x,[y,x]] - 3*[x,y] = 1/2*[y,x]")
    lhs, rhs = eval_ast(A, ast, {"x": A.basis_vector(0), "y": A.basis_vector(1)})
    assert lhs.is_zero() and rhs.is_zero()


def test_eval_missing_variable(so3):
    with pytest.raises(EvalError, match="'y'"):
        eval_ast(so3, parse_identity("[x,y] = 0"), {"x": so3.basis_vector(0)})


def test_eval_dimension_mismatch(so3):
    with pytest.raises(DimensionMismatch, match="'x'"):
        eval_ast(so3, parse_identity("[x,y] = 0"),
                 {"x": Vector([1, 0]), "y": so3.basis_vector(1)})


@given(alpha=st.fractions(min_value=-20, max_value=20, max_denominator=10),
       beta=st.fractions(min_value=-20, max_value=20, max_denominator=10))
def test_eval_is_multilinear_in_sum_free_positions(so3, alpha, beta):
    ast = parse_identity("[x,[y,z]] = 0")
    e1, e2, e3 = (so3.basis_vector(k) for k in range(3))

    def lhs_at(x):
        return eval_ast(so3, ast, {"x": x, "y": e2, "z": e3})[0]

    mixed = lhs_at(alpha * e1 + beta * e2)
    assert mixed == alpha * lhs_at(e1) + beta * lhs_at(e2)


# ------------------------------------------------------------------ checking

def test_check_identity_matches_builtin_on_so3(so3):
    ast = parse_identity(BUILTIN_IDENTITIES["sagle-yamaguti"].dsl_text)
    dsl_report = check_identity(so3, ast)
    builtin_report = check_builtin(so3, "sagle-yamaguti")
    assert dsl_report.holds == builtin_report.holds is True
    assert dsl_report.substitutions_checked == builtin_report.substitutions_checked


def test_check_identity_nc3_anticommutativity_holds(nc3):
    assert check_identity(nc3, parse_identity("[x,y] + [y,x] = 0")).holds


def test_check_identity_first_counterexample(so3):
    report = check_identity(so3, parse_identity("[x,y] = 0"))
    assert not report.holds
    assert report.substitutions_checked == 2
    assert [v for _, v in report.counterexample.substitution] == [
        Vector([1, 0, 0]), Vector([0, 1, 0])]
    assert report.counterexample.left == Vector([0, 0, 1])


def test_check_identity_exhaustive_and_workers_match(nc3):
    ast = parse_identity("[[x,y],z] + [[y,z],x] + [[z,x],y] = 0")
    a = check_identity(nc3, ast, exhaustive=True)
    b = check_builtin(nc3, "jacobi", exhaustive=True)
    assert a.holds == b.holds
    assert a.violations == b.violations == 6
    assert a.counterexample == b.counterexample
