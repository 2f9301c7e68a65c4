"""Anticommutativity: antisymmetric blocks and oriented brackets.

A block is a set of slots, each pair of which negates LHS - RHS when
swapped, in every anticommutative algebra; the scan then visits only the
substitutions whose option indices increase along each block.  The tests
below pin the blocks of every builtin, the rules of detection on DSL edge
cases, and, on random identities and algebras, the two facts the reduction
rests on: the violations are closed under each detected swap, and none has
equal values in two slots of a block.  The compiler also writes ``[a,b]``
as ``-[b,a]`` where that makes an identity a column program; writing a
random identity's bracket that way by hand changes no report.
"""
import dataclasses
import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import builtin, check_builtin, check_identity, dsl, format_identity
from maltsev.dsl import (MAX_MONOMIALS, Bracket, IdentityAst, Scale, Sum, Var, _infer_variables,
                         parse_identity)
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .support import random_algebra
from .test_dsl import _expr_strategy

# builtin -> its blocks, as variable names
BUILTIN_BLOCKS = {
    "anticommutativity": [],  # y is the column variable, which is in no block
    "ternary-antisymmetry": ["xy"],
    "glts-c": ["xyz"],
    "glts-d": ["xyz"],
    "sagle-yamaguti": ["xy"],
    "glts-f": ["xy", "zw"],
    "yamagutian-antisymmetry": ["xy"],
    "yamagutian-constraint": ["xyz"],
    "derivation": ["xy"],
    "reductivity": ["xy"],
    "hidden-assoc-operator": ["xy", "zw"],
    "ternary-derivation": ["xy", "zw"],
    "maltsev": [],
    "jacobi": ["xy"],  # z is the column variable once [[y,z],x] is -[x,[y,z]]
}


def _named_blocks(ast):
    return ["".join(ast.variables[k] for k in block) for block in ast.plan.blocks]


def test_blocks_of_every_builtin():
    assert {i.id: _named_blocks(i.ast) for i in BUILTIN_IDENTITIES.values()} == BUILTIN_BLOCKS


def test_orbit_is_the_product_of_block_factorials():
    orbits = {i.id: i.ast.plan.orbit for i in BUILTIN_IDENTITIES.values()}
    assert orbits["glts-f"] == 4 and orbits["glts-d"] == 6
    assert orbits["sagle-yamaguti"] == 2 and orbits["maltsev"] == 1


@pytest.mark.parametrize("ident_id,per_prefix,slots", [
    ("reductivity", 1, 2),            # 6Y(x;y), once per canonical (x, y)
    ("yamagutian-constraint", 3, 3),  # 6Y([x,y];z) and its two turns, per (x, y, z)
])
def test_the_scan_visits_only_canonical_prefixes(monkeypatch, ident_id, per_prefix, slots):
    # diagonal prefixes never violate, so only the work done shows that the
    # scan skips them
    calls = []
    original = dsl.sixfold_yamagutian
    monkeypatch.setattr(dsl, "sixfold_yamagutian", lambda *a: calls.append(1) or original(*a))
    report = check_builtin(builtin("m7"), ident_id, exhaustive=True)
    assert report.holds and report.substitutions_checked == 7 ** 3
    assert len(calls) == per_prefix * math.comb(7, slots)


def test_identities_sharing_a_key_share_their_blocks():
    by_key = {}
    for ident in BUILTIN_IDENTITIES.values():
        by_key.setdefault(ident.ast.key, set()).add(ident.ast.plan.blocks)
    assert all(len(blocks) == 1 for blocks in by_key.values())


def test_renamed_and_rescaled_texts_get_the_same_blocks():
    base = BUILTIN_IDENTITIES["glts-f"].ast.plan.blocks
    for text in (
        "[a,b,[c,d,e]] = [[a,b,c],d,e] + [c,[a,b,d],e] + [c,d,[a,b,e]]",
        "1/6*[x,y,[z,w,v]] = 1/6*[[x,y,z],w,v] + 1/6*[z,[x,y,w],v] + 1/6*[z,w,[x,y,v]]",
        "[[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]] = [x,y,[z,w,v]]",
        "-2*[x,y,[z,w,v]] = -2*[[x,y,z],w,v] - 2*[z,[x,y,w],v] - 2*[z,w,[x,y,v]]",
    ):
        assert parse_identity(text).plan.blocks == base, text


def test_a_pair_of_unequal_multiplicities_is_never_a_block():
    # [x,y+y] is antisymmetric in x and y, but y is substituted by sums of
    # up to two basis vectors and x by single ones
    assert parse_identity("[x,y + y] = 0").multiplicities == (1, 2)
    assert parse_identity("[x,y + y] = 0").plan.blocks == ()
    assert _named_blocks(parse_identity("[x + x,y + y] = 0")) == ["xy"]


def test_a_symmetric_swap_is_refused():
    # swapping x and y maps LHS - RHS to itself, not to its negative
    assert parse_identity("[x,[y,z]] + [y,[x,z]] = 0").plan.blocks == ()
    assert parse_identity("[x,z,y] + [y,z,x] = 0").plan.blocks == ()
    assert _named_blocks(parse_identity("[x,[y,z]] - [y,[x,z]] = 0")) == ["xy"]


def test_the_column_variable_is_never_in_a_block():
    # sagle-yamaguti is antisymmetric in z and w too, but w compiles as "_";
    # the same polynomial with w kept a variable (the [w,x,y] terms cancel,
    # and w stands first in a ternary bracket there) gets the block {z,w}
    ident = BUILTIN_IDENTITIES["sagle-yamaguti"].ast
    assert ident.plan.column and ident.plan.blocks == ((0, 1),)
    text = "[x,y,[z,w]] + [w,x,y] = [[x,y,z],w] + [z,[x,y,w]] + [w,x,y]"
    ast = parse_identity(text)
    assert not ast.plan.column
    assert _named_blocks(ast) == ["xy", "zw"]
    # an operator identity's "_" is a slot of no block either
    for ident_id in ("reductivity", "hidden-assoc-operator", "yamagutian-constraint"):
        plan = BUILTIN_IDENTITIES[ident_id].ast.plan
        assert all(plan.nvars - 1 not in block for block in plan.blocks)


def test_a_text_too_large_to_expand_gets_no_blocks():
    def text(depth):
        side = "a + b"
        for _ in range(depth):
            side = f"[{side},a + b]"
        return f"[x,y] + {side} = {side}"

    assert 2 ** 13 > MAX_MONOMIALS
    assert _named_blocks(parse_identity(text(3))) == ["xy"]
    large = parse_identity(text(12))
    assert large.key is large
    assert large.plan.blocks == ()


def _swapped(args, i, j):
    args = list(args)
    args[i], args[j] = args[j], args[i]
    return tuple(args)


def _renamed(node, names):
    """``node`` with each variable renamed by ``names``."""
    if isinstance(node, Var):
        return Var(names.get(node.name, node.name))
    if isinstance(node, Scale):
        return Scale(node.coeff, _renamed(node.child, names))
    if isinstance(node, Sum):
        return Sum(tuple(_renamed(t, names) for t in node.terms))
    return Bracket(tuple(_renamed(a, names) for a in node.args))


def _identity(lhs, rhs):
    variables, multiplicities = _infer_variables(lhs, rhs)
    return IdentityAst(variables, multiplicities, lhs, rhs)


@given(lhs=_expr_strategy, rhs=_expr_strategy, seed=st.integers(0, 2 ** 16),
       dim=st.sampled_from([2, 3]))
def test_detected_swaps_preserve_the_violations(lhs, rhs, seed, dim):
    # the random identities of the DSL round-trip test, "E = E" with x and y
    # swapped on the right, which is antisymmetric in x and y, and "E + E = 0"
    # with them swapped in the second E, which is symmetric; the reduced
    # scan's reports are the unreduced oracle's
    A = random_algebra(random.Random(seed), dim)
    swapped = _renamed(lhs, {"x": "y", "y": "x"})
    for ast in (_identity(lhs, rhs), _identity(lhs, swapped),
                _identity(Sum((lhs, swapped)), Sum(()))):
        scanned = oracle.violations(A, ast)
        bad = {args for _, args, _, _ in scanned[0]}
        for i, j in (pair for block in ast.plan.blocks for pair in combinations(block, 2)):
            assert all(_swapped(args, i, j) in bad for args in bad)
            assert all(args[i] != args[j] for args in bad)
        label = format_identity(ast)
        for exhaustive in (False, True):
            assert (check_identity(A, ast, exhaustive=exhaustive)
                    == oracle.check_ast(A, ast, label, exhaustive=exhaustive, scanned=scanned))


def _flipped(node, target):
    """``node`` with its binary bracket number ``target`` (in ``dsl._walk``
    order) written ``-1*[b,a]``, and the count of its binary brackets."""
    count = 0

    def flip(n):
        nonlocal count
        if isinstance(n, Scale):
            return Scale(n.coeff, flip(n.child))
        if isinstance(n, Sum):
            return Sum(tuple(map(flip, n.terms)))
        if not isinstance(n, Bracket):
            return n
        here = len(n.args) == 2 and count == target
        count += len(n.args) == 2
        args = tuple(map(flip, n.args))
        return Scale(-1, Bracket(args[::-1])) if here else Bracket(args)

    return flip(node), count


@given(lhs=_expr_strategy, rhs=_expr_strategy, data=st.data(),
       seed=st.integers(0, 2 ** 16), dim=st.sampled_from([2, 3]))
def test_flipping_a_binary_bracket_changes_no_report(lhs, rhs, data, seed, dim):
    # [a,b] = -[b,a] in every algebra, so the flipped identity violates at the
    # same substitutions with the same sides, whichever program it compiles to
    left, right = _flipped(lhs, -1)[1], _flipped(rhs, -1)[1]
    if not left + right:  # no binary bracket to flip: bracket the two sides
        lhs, left = Bracket((lhs, rhs)), 1
    ast = _identity(lhs, rhs)
    target = data.draw(st.integers(0, left + right - 1), label="target")
    sides = ((_flipped(lhs, target)[0], rhs) if target < left
             else (lhs, _flipped(rhs, target - left)[0]))
    flipped = IdentityAst(ast.variables, ast.multiplicities, *sides)
    for exhaustive in (False, True):
        # fresh algebras, so that no stored scan serves the second check
        want = check_identity(random_algebra(random.Random(seed), dim), ast,
                              exhaustive=exhaustive)
        got = check_identity(random_algebra(random.Random(seed), dim), flipped,
                             exhaustive=exhaustive)
        assert got == dataclasses.replace(want, identity=format_identity(flipped))
