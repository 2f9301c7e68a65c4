import decimal
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import (
    Algebra,
    DimensionMismatch,
    Operator,
    Vector,
    bracket,
    format_rational,
    format_vector,
    left_translation,
    operator_commutator,
    parse_rational,
    sixfold_yamagutian,
    yamagutian,
    yamaguti,
)
from maltsev.catalog import full_catalog

from .support import package_env

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


# ---------------------------------------------------------------- scalars

@pytest.mark.parametrize("text,value", [
    ("3", 3),
    ("-7", -7),
    ("1/2", Fraction(1, 2)),
    ("-4/6", Fraction(-2, 3)),
    ("4/2", 2),
    (" 5 ", 5),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "x", "1.5", "", "1e3", "1/2/3", "2 / 3",
                                  "\uff11/\uff12", "\u0663", "1/\u0662"])  # non-ASCII digits
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_rational():
    assert format_rational(Fraction(2, 1)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(0) == "0"


def test_format_rational_past_the_int_str_limit():
    # more digits than str() converts at once; decimal converts them alone,
    # and a piece of zeros keeps its width
    limit = sys.get_int_max_str_digits()
    context = decimal.Context(prec=3 * limit + 10)
    for n in (10 ** limit, -(10 ** (2 * limit)) - 7, 12345 * 10 ** (2 * limit) + 1):
        assert format_rational(n) == format(context.create_decimal(n), "f")
    big = 10 ** limit + 1
    assert format_rational(Fraction(-big, 3)) == "-1" + "0" * (limit - 1) + "1/3"
    assert format_rational(Fraction(3, big)) == "3/1" + "0" * (limit - 1) + "1"


# ---------------------------------------------------------------- vectors

def test_vector_equality_mixes_int_and_fraction():
    assert Vector([2, 0]) == Vector([Fraction(2), Fraction(0)])
    assert hash(Vector([2, 0])) == hash(Vector([Fraction(2), Fraction(0)]))


def test_vector_rejects_floats():
    with pytest.raises(TypeError):
        Vector([0.5, 1])


def test_vector_dimension_mismatch_names_dims():
    with pytest.raises(DimensionMismatch, match="2 and 3"):
        Vector([1, 0]) + Vector([1, 0, 0])


def test_operator_shapes():
    with pytest.raises(ValueError):
        Operator([[1, 0], [0]])
    I = Operator.identity(3)
    assert I.apply(Vector.basis(3, 1)) == Vector.basis(3, 1)


# --------------------------------------------------------------- brackets

def test_so3_bracket_table(so3):
    e1, e2, e3 = (so3.basis_vector(k) for k in range(3))
    assert bracket(so3, e1, e2) == e3
    assert bracket(so3, e2, e3) == e1
    assert bracket(so3, e3, e1) == e2


def test_bracket_of_equal_arguments_is_zero():
    for A in full_catalog():
        for i in range(A.dim):
            e = A.basis_vector(i)
            assert bracket(A, e, e).is_zero()
        x = sum((A.basis_vector(k) for k in range(1, A.dim)), A.basis_vector(0))
        assert bracket(A, x, x).is_zero()


def test_bracket_bilinear_expansion_by_hand(so3):
    # [e1+e2, e2] = [e1,e2] + [e2,e2] = e3
    e1, e2 = so3.basis_vector(0), so3.basis_vector(1)
    assert bracket(so3, e1 + e2, e2) == so3.basis_vector(2)


def test_bracket_antisymmetric_on_all_basis_pairs():
    for A in full_catalog():
        for i, j in product(range(A.dim), repeat=2):
            ei, ej = A.basis_vector(i), A.basis_vector(j)
            assert bracket(A, ei, ej) == -bracket(A, ej, ei)


def test_bracket_dimension_mismatch(so3):
    with pytest.raises(DimensionMismatch, match="so3"):
        bracket(so3, Vector([1, 0]), Vector([0, 1, 0]))


@pytest.mark.parametrize("primitive,arity", [
    (yamaguti, 3), (left_translation, 1), (sixfold_yamagutian, 2)],
    ids=["yamaguti", "left_translation", "sixfold_yamagutian"])
def test_primitive_dimension_mismatch_names_the_argument(so3, primitive, arity):
    # the last argument has the wrong dimension, and the message names it
    args = [so3.basis_vector(0)] * (arity - 1) + [Vector([1, 0])]
    name = "xyz"[arity - 1]
    with pytest.raises(DimensionMismatch,
                       match=rf"{primitive.__name__}: {name} has dim 2, algebra 'so3' has dim 3"):
        primitive(so3, *args)


@given(alpha=rationals, beta=rationals, i=st.integers(0, 2), ip=st.integers(0, 2),
       j=st.integers(0, 2))
def test_bracket_multilinearity(so3, alpha, beta, i, ip, j):
    x, xp, y = so3.basis_vector(i), so3.basis_vector(ip), so3.basis_vector(j)
    lhs = bracket(so3, alpha * x + beta * xp, y)
    rhs = alpha * bracket(so3, x, y) + beta * bracket(so3, xp, y)
    assert lhs == rhs


# ---------------------------------------------------------------- ternary

def test_yamaguti_vanishes_on_repeated_first_arguments():
    for A in full_catalog():
        for i, k in product(range(A.dim), repeat=2):
            x, z = A.basis_vector(i), A.basis_vector(k)
            assert yamaguti(A, x, x, z).is_zero()


def test_yamaguti_so3_derived_value(so3):
    e1, e2 = so3.basis_vector(0), so3.basis_vector(1)
    assert yamaguti(so3, e1, e2, e1) == 2 * e2


def test_yamaguti_abelian_is_zero():
    from maltsev import builtin
    A = builtin("abelian(4)")
    x = A.basis_vector(0) + A.basis_vector(3)
    assert yamaguti(A, x, A.basis_vector(1), A.basis_vector(2)).is_zero()


def test_yamaguti_collapses_on_lie_algebras(so3, sl2, abelian3):
    # with the Jacobi identity the ternary bracket is 2[[x,y],z]
    for A in (so3, sl2, abelian3):
        for i, j, k in product(range(A.dim), repeat=3):
            x, y, z = (A.basis_vector(t) for t in (i, j, k))
            assert yamaguti(A, x, y, z) == 2 * bracket(A, bracket(A, x, y), z)


# -------------------------------------------------------------- operators

def test_left_translation_abelian_is_zero():
    from maltsev import builtin
    A = builtin("abelian(3)")
    x = A.basis_vector(0) + A.basis_vector(2)
    assert left_translation(A, x).is_zero()


def test_left_translation_so3(so3):
    e1, e2, e3 = (so3.basis_vector(k) for k in range(3))
    assert left_translation(so3, e3).apply(e1) == e2
    assert left_translation(so3, Vector.zero(3)).is_zero()


def test_left_translation_matches_bracket_columnwise(m7):
    x = m7.basis_vector(1) + m7.basis_vector(4)
    L = left_translation(m7, x)
    for k in range(7):
        assert L.apply(m7.basis_vector(k)) == bracket(m7, x, m7.basis_vector(k))


def test_yamagutian_of_equal_arguments_is_zero(m7):
    for i in range(7):
        assert yamagutian(m7, m7.basis_vector(i), m7.basis_vector(i)).is_zero()


def test_yamagutian_so3_derived_value(so3):
    e1, e2, e3 = (so3.basis_vector(k) for k in range(3))
    Y = yamagutian(so3, e1, e2)
    assert Y == Fraction(1, 3) * left_translation(so3, e3)
    assert Y.apply(e1) == Fraction(1, 3) * e2


def test_yamagutian_consistent_with_ternary_bracket():
    # the operator formula and (1/6)[x,y,.] agree pointwise on every
    # algebra, Mal'tsev or not: it is an identity of the definitions
    for A in full_catalog():
        for i, j in product(range(A.dim), repeat=2):
            Y = yamagutian(A, A.basis_vector(i), A.basis_vector(j))
            for k in range(A.dim):
                expected = Fraction(1, 6) * yamaguti(
                    A, A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
                assert Y.apply(A.basis_vector(k)) == expected


def test_yamagutian_antisymmetry_on_basis_pairs():
    for A in full_catalog():
        for i, j in product(range(A.dim), repeat=2):
            x, y = A.basis_vector(i), A.basis_vector(j)
            assert yamagutian(A, x, y) == -yamagutian(A, y, x)


def test_sixfold_yamagutian_is_integral(m7):
    Y6 = sixfold_yamagutian(m7, m7.basis_vector(0), m7.basis_vector(1))
    assert all(isinstance(c, int) for row in Y6.rows for c in row)
    assert yamagutian(m7, m7.basis_vector(0), m7.basis_vector(1)) == Fraction(1, 6) * Y6


def test_operator_commutator_basics(so3):
    L1 = left_translation(so3, so3.basis_vector(0))
    L2 = left_translation(so3, so3.basis_vector(1))
    L3 = left_translation(so3, so3.basis_vector(2))
    assert operator_commutator(L1, L1).is_zero()
    assert operator_commutator(Operator.identity(3), L2).is_zero()
    assert operator_commutator(L1, L2) == L3


def test_operator_commutator_jacobi_sanity(m7):
    # commutators of matrices satisfy the Jacobi identity identically
    P = left_translation(m7, m7.basis_vector(0))
    Q = sixfold_yamagutian(m7, m7.basis_vector(1), m7.basis_vector(2))
    R = left_translation(m7, m7.basis_vector(3) + m7.basis_vector(6))
    s = (operator_commutator(operator_commutator(P, Q), R)
         + operator_commutator(operator_commutator(Q, R), P)
         + operator_commutator(operator_commutator(R, P), Q))
    assert s.is_zero()


def test_operator_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        operator_commutator(Operator.identity(2), Operator.identity(3))


def test_algebra_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="i < j"):
        Algebra("bad", ("e1", "e2"), {(1, 0): (1, 0)})
    with pytest.raises(DimensionMismatch):
        Algebra("bad", ("e1", "e2"), {(0, 1): (1, 0, 0)})
    with pytest.raises(ValueError, match="distinct"):
        Algebra("bad", ("e1", "e1"), {})


# ------------------------------------------------------------- formatting

def test_format_vector(so3):
    assert format_vector(so3, Vector([0, 0, 0])) == "0"
    assert format_vector(so3, Vector([2, 0, -1])) == "2*e1 - e3"
    assert format_vector(so3, Vector([Fraction(1, 3), 1, 0])) == "1/3*e1 + e2"


# ---------------------------------------------------------------- modules

_REIMPORT = """
import gc, importlib, sys, weakref
import maltsev
old = weakref.ref(maltsev.core.Algebra)
for name in [n for n in sys.modules if n == "maltsev" or n.startswith("maltsev.")]:
    del sys.modules[name]
del maltsev
importlib.import_module("maltsev")
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_releases_the_previous_copy():
    # nothing global (such as typing's cache of subscripted generics) may
    # keep a dropped copy of the package alive
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], env=package_env())
    assert proc.returncode == 0
