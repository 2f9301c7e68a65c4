"""The table-backed primitives against their definitions.

``yamaguti`` and ``sixfold_yamagutian`` contract a cached table of
``[e_i, e_j, .]``, and ``Operator`` products skip zero entries.  The oracles
below are the textbook definitions, written without either shortcut.
"""
import pickle
import random
from itertools import product

import pytest

from maltsev import Algebra, Operator, Vector, bracket, builtin, left_translation
from maltsev import sixfold_yamagutian, substitution_options, yamaguti
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


def _random_operator(rng, n):
    # about half the entries are zero, so the sparse paths are exercised
    return Operator([[random_vector(rng, 1).coords[0] if rng.random() < 0.5 else 0
                      for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_operator_product_and_apply_match_definition(n):
    rng = random.Random(RANDOM_VECTOR_SEED + n)
    ops = [_random_operator(rng, n) for _ in range(6)]
    ops += [Operator.zero(n), Operator.identity(n)]
    vectors = [random_vector(rng, n), Vector.zero(n)] + substitution_options(n, 2)
    for P, Q in product(ops, repeat=2):
        assert P @ Q == oracle_matmul(P, Q)
    for P, v in product(ops, vectors):
        assert P.apply(v) == oracle_apply(P, v)


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
