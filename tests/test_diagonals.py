"""Diagonal pairs: substitutions that hold in every anticommutative algebra.

A diagonal pair is two slots of a program, in no one block, such that the
key's polynomial is 0 once the later slot's variable is set to the earlier
one's.  A substitution that gives such a pair equal values then holds in
every algebra, and option vectors are equal iff their option indices are,
so the scan skips a prefix whose paired slots have equal indices, and a
column equal to the index of a slot paired with the last one.  The tests
tie the detection to renaming the variables in the text, and the scans with
the skips to the unreduced oracle on every chunk range: on the catalog, the
100 seeded random dim-3 algebras and m7 with its orbit table.
"""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import builtin, checker, parse_identity
from maltsev.catalog import full_catalog
from maltsev.dsl import Bracket, Column, IdentityAst, Scale, Sum, Var, _infer_variables
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .test_dsl import _expr_strategy
from .test_automorphisms import _canonical_violations
from .test_engine import CASES, DIM3, _canonical, _ranges, _stream

# builtin -> its diagonal pairs, as variable names; only keys that do not
# vanish are scanned
BUILTIN_DIAGONALS = {
    "anticommutativity": ["xy"],
    "ternary-antisymmetry": ["xz", "yz"],
    "glts-c": [],
    "glts-d": [],
    "sagle-yamaguti": ["zw"],
    "glts-f": [],
    "yamagutian-antisymmetry": ["x_", "y_"],
    "yamagutian-constraint": [],
    "derivation": ["zw"],
    "reductivity": ["z_"],
    "hidden-assoc-operator": [],
    "ternary-derivation": [],
    "maltsev": ["xy", "xz"],
    "jacobi": ["xz", "yz"],
}

# texts with a slot of multiplicity 2 or with "_"
TEXTS = (
    "[[x,y],[x,z]] = 0",
    "[x,[x,y]] = [y,[x,x]]",
    "[x,[x,y]] + [y,[y,x]] = 0",
    "[x,[x,[y,z]]] = [[x,y],[x,z]]",
    "[x,y + z,z] = [x,y,z]",
    "[x,[x,_]] = 0",
    "[x,[y,[x,_]]] = [y,[x,[x,_]]]",
    "[x,x,[y,_]] + [y,y,[x,_]] = 0",
    "[[x,y],[z,_]] = [z,[[x,y],_]]",
    "[y,[x,[x,z]]] + [[[z,x],x],y] = 0",
)


def _named(ast, pairs):
    names = [*ast.variables, "_"]
    return [names[i] + names[j] for i, j in pairs]


def test_diagonal_pairs_of_every_builtin():
    assert {i.id: _named(i.ast, i.ast.plan.diagonals)
            for i in BUILTIN_IDENTITIES.values()} == BUILTIN_DIAGONALS


@pytest.mark.parametrize("ast", [c[1] for c in CASES] + [parse_identity(t) for t in TEXTS],
                         ids=[c[2] for c in CASES] + list(TEXTS))
def test_diagonal_pairs_match_the_renamed_texts(ast):
    assert list(ast.plan.diagonals) == oracle.diagonal_pairs(ast)


@given(lhs=_expr_strategy, rhs=_expr_strategy)
def test_diagonal_pairs_of_random_texts_match_the_renamed_texts(lhs, rhs):
    ast = IdentityAst(*_infer_variables(lhs, rhs), lhs, rhs)
    assert list(ast.plan.diagonals) == oracle.diagonal_pairs(ast)


# operator terms: "_" last in every bracket around it, in no sum; the
# other arguments are variables or brackets of two variables
_variable = st.sampled_from([Var("x"), Var("y"), Var("z")])
_argument = st.one_of(_variable, st.builds(lambda a, b: Bracket((a, b)), _variable, _variable))
_operator_term = st.recursive(
    st.one_of(st.builds(lambda a: Bracket((a, Column())), _argument),
              st.builds(lambda a, b: Bracket((a, b, Column())), _argument, _argument)),
    lambda inner: st.one_of(st.builds(lambda a, t: Bracket((a, t)), _argument, inner),
                            st.builds(lambda a, b, t: Bracket((a, b, t)), _argument, _argument,
                                      inner)),
    max_leaves=3)
_operator_side = st.lists(
    st.builds(lambda c, t: t if c == 1 else Scale(c, t), st.integers(-3, 3).filter(bool),
              _operator_term), min_size=1, max_size=2).map(
    lambda ts: Sum(tuple(ts)) if len(ts) > 1 else ts[0])


@given(lhs=_operator_side, rhs=_operator_side)
def test_diagonal_pairs_of_random_operator_texts_match_the_renamed_texts(lhs, rhs):
    ast = IdentityAst(*_infer_variables(lhs, rhs), lhs, rhs)
    assert ast.level == "operator"
    assert list(ast.plan.diagonals) == oracle.diagonal_pairs(ast)


# the scanned cases with a diagonal pair
DIAGONAL_CASES = [c for c in CASES if c[1].plan.diagonals and not c[1].vanishes]


def _check_ranges(A, ast, orbits=None):
    """The scan of every chunk range against the oracle's violations, in both
    modes, and the unreduced totals over every partition into chunks."""
    plan = ast.plan
    bad, options = _stream(A, ast)
    width = len(options[-1])
    if orbits is None:  # the canonical violations of the blocks
        weights = {i: (plan.orbit, plan.orbit) for i in bad if _canonical(plan, options, i)}
    else:  # of the blocks and the group
        weights = _canonical_violations(A, ast)[0]
    for start, stop in _ranges(options):
        inside = {i: w for i, w in weights.items() if start <= i < stop}
        first = min(inside, default=None)
        prefixes = {i // width: w[1] for i, w in inside.items()}
        assert plan.scan(A, options, start, stop, True, orbits) == (
            first, sum(w[0] for w in inside.values()), sum(prefixes.values())), \
            (A.name, start, stop)
        assert plan.scan(A, options, start, stop, False, orbits) == (
            first, min(1, len(inside)), min(1, len(inside))), (A.name, start, stop)
        if first is not None:
            assert checker._substitution(A, plan, first) == bad[first]
    total = math.prod(map(len, options))
    for workers in (1, 2, 3):
        bounds = checker._chunk_bounds(total, workers, width, orbits and orbits[0])
        scans = [plan.scan(A, options, s, e, True, orbits) for s, e in bounds]
        assert sum(s[1] for s in scans) == len(bad), (A.name, workers)
        assert sum(s[2] for s in scans) == len({i // width for i in bad}), (A.name, workers)
        assert next((s[0] for s in scans if s[0] is not None), None) == min(bad, default=None)


@pytest.mark.parametrize("case", DIAGONAL_CASES, ids=[c[2] for c in DIAGONAL_CASES])
def test_scans_with_skips_match_the_oracle_on_the_catalog(case):
    for A in full_catalog():
        _check_ranges(A, case[1])


@pytest.mark.parametrize("case", DIAGONAL_CASES, ids=[c[2] for c in DIAGONAL_CASES])
def test_scans_with_skips_match_the_oracle_on_dim3_algebras(case):
    for A in DIM3:
        _check_ranges(A, case[1])


@pytest.mark.parametrize("case", DIAGONAL_CASES, ids=[c[2] for c in DIAGONAL_CASES])
def test_scans_with_skips_match_the_oracle_on_m7_with_its_orbit_table(case):
    m7, plan = builtin("m7"), case[1].plan
    options = [checker._options(7, m) for m in plan.multiplicities]
    orbits = plan.orbits(options, m7.automorphisms(10 ** 6)) if plan.prev[-1] < 0 else None
    _check_ranges(m7, case[1], orbits)
