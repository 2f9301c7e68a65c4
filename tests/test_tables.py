"""The table-backed primitives against their definitions.

``yamaguti`` and ``sixfold_yamagutian`` contract a cached table of
``[e_i, e_j, .]``, and an ``Operator`` is stored by columns, which
``left_translation``, ``sixfold_yamagutian`` and every operation on
operators fill on first use.  The oracles below are the textbook
definitions, written row by row and without either shortcut.  The operators
``[x,.]`` and ``[x,y,.]`` the staged scan applies are checked against
``bracket``, ``yamaguti`` and the definitions, and a scan that stops early
fills only the columns it compared.
"""
import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from maltsev import Algebra, Operator, Vector, bracket, builtin, check_identity, checker
from maltsev import left_translation, parse_identity, sixfold_yamagutian, substitution_options
from maltsev import yamaguti
from maltsev.identities import BUILTIN_IDENTITIES
from maltsev.catalog import full_catalog

from .support import RANDOM_ALGEBRA_SEED, RANDOM_VECTOR_SEED, random_algebra, random_vector


def oracle_yamaguti(A, x, y, z):
    return (bracket(A, x, bracket(A, y, z)) - bracket(A, y, bracket(A, x, z))
            + bracket(A, bracket(A, x, y), z))


def oracle_matmul(P, Q):
    n = P.dim
    return Operator([[sum(P.rows[r][m] * Q.rows[m][c] for m in range(n))
                      for c in range(n)] for r in range(n)])


def oracle_apply(P, v):
    return Vector([sum(a * b for a, b in zip(row, v.coords)) for row in P.rows])


def oracle_left_translation(A, x):
    cols = [bracket(A, x, A.basis_vector(k)).coords for k in range(A.dim)]
    return Operator(zip(*cols))


def oracle_sixfold(A, x, y):
    lx, ly = oracle_left_translation(A, x), oracle_left_translation(A, y)
    return (oracle_matmul(lx, ly) - oracle_matmul(ly, lx)
            + oracle_left_translation(A, bracket(A, x, y)))


def _algebras():
    rng = random.Random(RANDOM_ALGEBRA_SEED)
    out = [builtin("abelian(1)"), builtin("abelian(4)")]
    out += [random_algebra(rng, dim, i) for dim in range(1, 6) for i in range(3)]
    return out + list(full_catalog())


ALGEBRAS = _algebras()


def _inputs(A, rng):
    """Basis vectors, sums of two basis vectors, and random rational vectors."""
    opts = substitution_options(A.dim, 2)
    return opts + [random_vector(rng, A.dim) for _ in range(4)]


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_yamaguti_matches_definition(A):
    rng = random.Random(RANDOM_VECTOR_SEED)
    vs = _inputs(A, rng)
    triples = list(product(vs, repeat=3))
    for x, y, z in rng.sample(triples, min(len(triples), 200)):
        assert yamaguti(A, x, y, z) == oracle_yamaguti(A, x, y, z)


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_sixfold_yamagutian_matches_definition(A):
    rng = random.Random(RANDOM_VECTOR_SEED)
    vs = _inputs(A, rng)
    for x in vs:
        assert left_translation(A, x) == oracle_left_translation(A, x)
    pairs = list(product(vs, repeat=2))
    z = vs[-1]
    for x, y in rng.sample(pairs, min(len(pairs), 120)):
        Y6 = sixfold_yamagutian(A, x, y)
        assert Y6 == oracle_sixfold(A, x, y)
        assert Y6.apply(z) == oracle_apply(Y6, z) == yamaguti(A, x, y, z)


def _random_rows(rng, n):
    # about half the entries are zero, so the sparse paths are exercised
    return tuple(tuple(random_vector(rng, 1).coords[0] if rng.random() < 0.5 else 0
                       for _ in range(n)) for _ in range(n))


def _rowwise(f, P, Q):
    return Operator([[f(a, b) for a, b in zip(rp, rq)] for rp, rq in zip(P.rows, Q.rows)])


def _check_against_row_oracles(make, expected, vectors, c):
    """``make(k)`` returns operator k, a fresh one if it is lazy; ``expected[k]``
    is its row form."""
    for (i, P), (j, Q) in product(enumerate(expected), repeat=2):
        assert make(i) @ make(j) == oracle_matmul(P, Q)
        assert make(i) + make(j) == _rowwise(lambda a, b: a + b, P, Q)
        assert make(i) - make(j) == _rowwise(lambda a, b: a - b, P, Q)
    for i, P in enumerate(expected):
        assert c * make(i) == Operator([[c * a for a in r] for r in P.rows])
        assert -make(i) == Operator([[-a for a in r] for r in P.rows])
        op = make(i)
        for v in vectors:
            assert op.apply(v) == oracle_apply(P, v)
        assert op == P and hash(op) == hash(P)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_operator_product_and_apply_match_definition(n):
    rng = random.Random(RANDOM_VECTOR_SEED + n)
    rows = [_random_rows(rng, n) for _ in range(6)]
    ops = [Operator(r) for r in rows]
    assert [P.rows for P in ops] == rows
    ops += [Operator.zero(n), Operator.identity(n)]
    vectors = [random_vector(rng, n), Vector.zero(n)] + substitution_options(n, 2)
    _check_against_row_oracles(ops.__getitem__, ops, vectors, random_vector(rng, 1).coords[0])


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: A.name)
def test_pickled_algebra_gives_equal_results(A):
    # worker processes receive pickled algebras with an empty table
    rng = random.Random(RANDOM_VECTOR_SEED)
    x, y, z = (random_vector(rng, A.dim) for _ in range(3))
    fresh = pickle.loads(pickle.dumps(A))
    before = (A == fresh, hash(A) == hash(fresh))
    expected = (yamaguti(A, x, y, z), sixfold_yamagutian(A, x, y))
    copy = pickle.loads(pickle.dumps(A))  # pickled with a filled table
    assert (yamaguti(copy, x, y, z), sixfold_yamagutian(copy, x, y)) == expected
    assert (yamaguti(fresh, x, y, z), sixfold_yamagutian(fresh, x, y)) == expected
    assert before == (True, True)
    assert A == fresh and hash(A) == hash(fresh)
    assert A == copy and hash(A) == hash(copy)


def test_table_is_lazy_and_left_out_of_pickles():
    A = builtin("m7")
    assert A._ternary is None
    assert pickle.loads(pickle.dumps(A)) == A
    e = [A.basis_vector(k) for k in range(7)]
    yamaguti(A, e[0], e[1], e[2])
    filled = [k for k, cols in enumerate(A._ternary) if cols is not None]
    assert filled == [0 * 7 + 1]
    assert pickle.loads(pickle.dumps(A))._ternary is None
    yamaguti(A, e[1], e[0], e[2])  # the reversed pair reuses (0, 1)
    yamaguti(A, e[3], e[3], e[2])  # the diagonal needs no entry
    assert [k for k, cols in enumerate(A._ternary) if cols is not None] == filled


def test_zero_algebra_tables_are_empty():
    A = Algebra("zero", ("a", "b", "c"), {})
    x, y, z = (A.basis_vector(k) for k in range(3))
    assert yamaguti(A, x + y, y, z).is_zero()
    assert sixfold_yamagutian(A, x + z, y).is_zero()


def _random_fraction_algebras():
    rng = random.Random(RANDOM_ALGEBRA_SEED + 1)
    return [random_algebra(rng, dim, i) for dim in range(1, 6) for i in range(2)]


@pytest.mark.parametrize("A", _random_fraction_algebras(), ids=lambda A: A.name)
def test_partial_maps_match_the_primitives(A):
    rng = random.Random(RANDOM_VECTOR_SEED)
    vs = [random_vector(rng, A.dim) for _ in range(4)] + substitution_options(A.dim, 2)
    for x, y in rng.sample(list(product(vs, repeat=2)), min(len(vs) ** 2, 30)):
        binary, ternary = left_translation(A, x), sixfold_yamagutian(A, x, y)
        for z in rng.sample(vs, min(len(vs), 6)) + [Vector.zero(A.dim)]:
            assert binary.apply(z) == bracket(A, x, z)
            assert ternary.apply(z) == yamaguti(A, x, y, z)


def _computed(op):
    return [l for l, col in enumerate(op._cols) if col is not None]


@pytest.mark.parametrize("A", _random_fraction_algebras(), ids=lambda A: A.name)
def test_partial_map_columns_are_lazy_and_complete(A):
    A = pickle.loads(pickle.dumps(A))  # an empty ternary table
    rng = random.Random(RANDOM_VECTOR_SEED)
    x, y = random_vector(rng, A.dim), random_vector(rng, A.dim)
    binary, ternary = left_translation(A, x), sixfold_yamagutian(A, x, y)
    assert _computed(binary) == _computed(ternary) == []
    e = [A.basis_vector(l) for l in range(A.dim)]
    binary.apply(Vector.zero(A.dim))
    ternary.apply(Vector.zero(A.dim))
    assert _computed(binary) == _computed(ternary) == []
    # no pair is contracted before a column is needed
    assert callable(ternary._rule[1]) and A._ternary is None
    last = A.dim - 1
    for op in (binary, ternary):
        op.apply(3 * e[last])
        assert _computed(op) == [last]
        op.apply(e[0] + e[last])
        assert _computed(op) == sorted({0, last})
    assert not callable(ternary._rule[1])
    columns = [(binary.apply(v).coords, ternary.apply(v).coords) for v in e]
    assert _computed(binary) == _computed(ternary) == list(range(A.dim))
    assert Operator(zip(*(c[0] for c in columns))) == oracle_left_translation(A, x)
    assert Operator(zip(*(c[1] for c in columns))) == oracle_sixfold(A, x, y)


@pytest.mark.parametrize("A", _random_fraction_algebras(), ids=lambda A: A.name)
def test_lazy_operators_match_the_row_oracles(A):
    rng = random.Random(RANDOM_VECTOR_SEED)
    x, y, z = (random_vector(rng, A.dim) for _ in range(3))
    e = [A.basis_vector(l) for l in range(A.dim)]

    def make(k):
        # operator k, with one column filled for k >= 2
        op = (left_translation(A, x), sixfold_yamagutian(A, x, y),
              left_translation(A, z), sixfold_yamagutian(A, z, x))[k]
        if k >= 2:
            op.apply(e[-1])
        return op

    expected = [oracle_left_translation(A, x), oracle_sixfold(A, x, y),
                oracle_left_translation(A, z), oracle_sixfold(A, z, x)]
    vectors = [x, Vector.zero(A.dim)] + substitution_options(A.dim, 2)
    _check_against_row_oracles(make, expected, vectors, Fraction(-3, 7))


@pytest.mark.parametrize("A", _random_fraction_algebras(), ids=lambda A: A.name)
def test_partly_filled_operator_pickles_to_an_equal_one(A):
    rng = random.Random(RANDOM_VECTOR_SEED)
    x, y = random_vector(rng, A.dim), random_vector(rng, A.dim)
    P, Q = left_translation(A, x), sixfold_yamagutian(A, x, y)
    p, q = oracle_left_translation(A, x), oracle_sixfold(A, x, y)
    negated = Operator([[-c for c in r] for r in oracle_matmul(q, p).rows])
    # the primitives and every operation on them fill column 0 alone here
    for op, expected in ((P, p), (Q, q), (P @ Q, oracle_matmul(p, q)),
                         (P + Q, _rowwise(lambda a, b: a + b, p, q)),
                         (Q - 2 * P, _rowwise(lambda a, b: b - 2 * a, p, q)), (-(Q @ P), negated)):
        op.apply(A.basis_vector(0))
        assert _computed(op) == [0]
        copy = pickle.loads(pickle.dumps(op))
        assert _computed(copy) == list(range(A.dim))
        assert copy == expected and hash(copy) == hash(expected)
        assert copy == op and copy.rows == op.rows


def _made(monkeypatch) -> list[Operator]:
    """The operators that ``@``, ``+``, ``-``, unary ``-`` and scalar ``*``
    return from now on."""
    made = []
    for name in ("__matmul__", "__add__", "__sub__", "__neg__", "__rmul__"):
        original = getattr(Operator, name)
        monkeypatch.setattr(Operator, name,
                            lambda *args, f=original: made.append(f(*args)) or made[-1])
    return made


def _scan(monkeypatch, A, ident_id, exhaustive):
    """The scan of ``ident_id``'s program over its stream on ``A``, and the
    operators its steps composed."""
    plan = BUILTIN_IDENTITIES[ident_id].ast.plan
    options = [checker._options(A.dim, m) for m in plan.multiplicities]
    made = _made(monkeypatch)
    return plan.scan(A, options, 0, math.prod(map(len, options)), exhaustive), made


# each composed register of jacobi and glts-f is a side or the right operand
# of a composition or sum, so it fills exactly the compared columns
@pytest.mark.parametrize("name,ident_id,first,compared", [
    # x, y = e0, e1 fails at column 3; the diagonal pairs (x,z) and (y,z)
    # skip columns 0 and 1
    ("m7", "jacobi", 1 * 7 + 3, [2, 3]),
    # x, y, z, w = e0, e1, e0, e1 fails at column 0
    ("rand4-0", "glts-f", (1 * 16 + 1) * 4 + 0, [0]),
])
def test_a_failing_first_violation_scan_fills_only_the_compared_columns(monkeypatch, name,
                                                                      ident_id, first,
                                                                      compared):
    A = next(A for A in ALGEBRAS if A.name == name)
    scan, made = _scan(monkeypatch, A, ident_id, False)
    assert scan == (first, 1, 1)
    assert made and all(_computed(op) == compared for op in made)


def test_an_exhaustive_scan_fills_every_column_it_does_not_skip(monkeypatch):
    A = next(A for A in ALGEBRAS if A.name == "rand4-0")
    scan, made = _scan(monkeypatch, A, "glts-f", True)
    assert scan[0] is not None and made
    assert all(_computed(op) == [0, 1, 2, 3] for op in made)
    # jacobi's diagonal pairs skip the columns of x and of y in each prefix
    made.clear()
    _scan(monkeypatch, builtin("m7"), "jacobi", True)
    assert made and all(len(_computed(op)) == 5 for op in made)


def test_a_long_sum_fills_in_any_depth_of_stack():
    A = builtin("so3")
    P = left_translation(A, A.basis_vector(0))
    S = P
    for i in range(3 * sys.getrecursionlimit()):  # - P + P - P ...: S stays P
        S = S + P if i % 2 else S - P
    assert S.column(1) == P.column(1) and S == P
    text = " + ".join(["[x,[y,_]]"] * 3 * sys.getrecursionlimit()) + " = 0"
    assert not check_identity(A, parse_identity(text)).holds
