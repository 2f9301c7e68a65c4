import random
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
from maltsev.cli import main
from maltsev.dsl import MAX_NESTING, Bracket, Column, IdentityAst, Scale, Sum, Var
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .support import RANDOM_VECTOR_SEED, fresh, random_algebra, random_vector


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


@pytest.mark.parametrize("coeff", ["7" * 5000, "2/" + "3" * 5000],
                         ids=["numerator", "denominator"])
def test_too_long_an_integer_is_a_syntax_error_at_its_token(coeff):
    # int() refuses more than sys.get_int_max_str_digits() digits
    with pytest.raises(IdentitySyntaxError) as exc:
        parse_identity_file(f"x = x\n[x,y] = {coeff}*[y,x]\n")
    assert (exc.value.line, exc.value.column) == (2, 9 + coeff.find("/") + 1)
    assert "5000 digits" in str(exc.value)


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


@given(lhs=_expr_strategy, rhs=_expr_strategy)
def test_column_rules_of_parser_and_compiler_agree(lhs, rhs):
    # the parser checks where "_" may stand on its tokens; the compiler takes
    # the last variable as the column variable by the same rule on the AST,
    # reading the binary brackets around it as oriented (oracle.oriented)
    from maltsev.dsl import IdentityAst, _infer_variables
    variables, multiplicities = _infer_variables(lhs, rhs)
    mult = dict(zip(variables, multiplicities))
    for v in variables:
        order = (*(n for n in variables if n != v), v)
        ast = IdentityAst(order, tuple(mult[n] for n in order), lhs, rhs)
        sides = (oracle.oriented(side, Var(v)) for side in (lhs, rhs))
        text = format_identity(IdentityAst(order, ast.multiplicities, *sides))
        try:
            parse_identity(text.replace(v, "_"))
        except IdentitySyntaxError:
            assert not ast.plan.column, text
        else:
            assert ast.plan.column, text


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


# ------------------------------------------------------------ column variable

_OPERATOR_TEXTS = [ident.dsl_text for ident in BUILTIN_IDENTITIES.values()
                   if ident.level == "operator"] + [
    "2*_ - 1/3*[x,_] = [x,[y,_]]",
    "_ = _",
    "0 = [[x,y],[x,_]]",
    # operator builtins without their 1/6
    "[x,y,_] = -1*[y,x,_]",
    "[[x,y],z,_] + [[y,z],x,_] + [[z,x],y,_] = 0",
    "[x,y,[z,w,_]] - [z,w,[x,y,_]] = [[x,y,z],w,_] + [z,[x,y,w],_]",
]


def test_column_is_neither_a_variable_nor_counted():
    ast = parse_identity("[x,y,[z,_]] - [z,[x,y,_]] = [[x,y,z],_]")
    assert ast.variables == ("x", "y", "z")
    assert ast.multiplicities == (1, 1, 1)
    assert ast.level == "operator"
    assert ast.rhs == Bracket((Bracket((Var("x"), Var("y"), Var("z"))), Column()))
    assert parse_identity("[x,y] = 0").level == "vector"
    assert check_identity(builtin("so3"), ast).substitutions_checked == 27


@pytest.mark.parametrize("text", _OPERATOR_TEXTS)
def test_column_roundtrip(text):
    ast = parse_identity(text)
    assert parse_identity(format_identity(ast)) == ast


@pytest.mark.parametrize("text,position,fragment", [
    ("[_,x] = 0", (1, 2), "only as the last bracket argument"),
    ("[x,[_,_]] = 0", (1, 5), "only as the last bracket argument"),  # twice in one term
    ("[x,_] = [x,y]", (1, 9), "'_' in every term"),
    ("[x,_] + y = 0", (1, 9), "'_' in every term"),
    ("[x, y + _] = 0", (1, 9), "no '_' in a sum inside a bracket"),
])
def test_misplaced_column_exits_2_with_position(tmp_path, capsys, text, position, fragment):
    with pytest.raises(IdentitySyntaxError) as exc:
        parse_identity(text)
    assert (exc.value.line, exc.value.column) == position
    assert fragment in str(exc.value)
    ident_file = tmp_path / "bad.txt"
    ident_file.write_text(f"[x,y] = -1*[y,x]\n{text}\n", encoding="utf-8")
    assert main(["check", "so3", "--dsl", str(ident_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"line 2, column {position[1]}" in captured.err


@pytest.mark.parametrize("text", _OPERATOR_TEXTS)
def test_column_evaluation_matches_the_vector_form(text):
    # column l of a side is its value at _ = e_l, so the operator applied to
    # any vector v is the side with a plain variable put in place of _, at v
    ast = parse_identity(text)
    vector_form = parse_identity(text.replace("_", "col"))
    rng = random.Random(RANDOM_VECTOR_SEED)
    algebras = [random_algebra(rng, dim, dim) for dim in (1, 2, 3, 4)]
    for A in algebras + [builtin("m7"), builtin("nc3")]:
        for _ in range(4):
            assignment = {name: random_vector(rng, A.dim) for name in vector_form.variables}
            operators = eval_ast(A, ast, assignment)
            v = assignment["col"]
            assert tuple(P.apply(v) for P in operators) == eval_ast(A, vector_form, assignment)


def test_a_bracket_whose_first_argument_is_an_operator_compiles_flipped(so3):
    # [_,x] is outside the grammar; the compiler reads it as -[x,_] from its
    # compiled operands, in the program and in the evaluator alike
    flip = Bracket((Column(), Var("x")))
    ast = IdentityAst(variables=("x", "y"), multiplicities=(1, 1),
                      lhs=Sum((flip, Scale(Fraction(1, 2), Bracket((Var("y"), flip))))),
                      rhs=Bracket((Var("y"), Scale(3, flip))))
    like = parse_identity("-1*[x,_] - 1/2*[y,[x,_]] = -3*[y,[x,_]]")
    rng = random.Random(RANDOM_VECTOR_SEED)
    for A in [random_algebra(rng, dim, dim) for dim in (1, 2, 3, 4)]:
        for _ in range(4):
            args = [random_vector(rng, A.dim) for _ in range(2)]
            assert ast.plan.evaluate(A, args) == like.plan.evaluate(A, args)
            assert ast.evaluator.evaluate(A, args) == like.evaluator.evaluate(A, args)
    # checked serially: pool chunks re-parse the text, which is not in the grammar
    for exhaustive in (False, True):
        report = check_identity(fresh(so3), IdentityAst(
            variables=("x",), multiplicities=(1,), lhs=flip, rhs=Bracket((Var("x"), Column()))),
            exhaustive=exhaustive)
        expected = check_identity(fresh(so3), parse_identity("-1*[x,_] = [x,_]"),
                                  exhaustive=exhaustive)
        assert not report.holds
        assert report.counterexample == expected.counterexample
        assert (report.substitutions_checked, report.violations) == (
            expected.substitutions_checked, expected.violations)


def test_operator_identity_from_text_reports_an_operator(nc3):
    report = check_identity(nc3, parse_identity(BUILTIN_IDENTITIES["reductivity"].dsl_text))
    builtin_report = check_builtin(nc3, "reductivity")
    assert not report.holds
    assert report.counterexample == builtin_report.counterexample
    assert report.substitutions_checked == builtin_report.substitutions_checked
    data = report.to_dict()["counterexample"]
    assert data["left"]["kind"] == data["right"]["kind"] == "operator"
