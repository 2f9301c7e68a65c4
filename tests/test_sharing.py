"""Identities that are the same bracket polynomial share one scan.

``IdentityAst.key`` decides which identities one scan serves, and an
algebra keeps every scan run on it by key and mode.  These tests pin down
which identities share a key, and that sharing changes no report: every
report from a shared scan equals the report of the same check on a fresh
copy of the algebra, and the oracle's.
"""
import math
import random

import pytest

from maltsev import builtin, check_builtin, check_identity, parse_identity
from maltsev import checker
from maltsev.catalog import full_catalog
from maltsev.dsl import MAX_MONOMIALS, format_identity
from maltsev.identities import BUILTIN_IDENTITIES, MALTSEV_SUITE_IDS

from . import oracle
from .support import RANDOM_ALGEBRA_SEED, fresh, random_algebra, random_dim3_algebras
from .test_checker import _InlinePool

# the keys of the --identity all suite: each group shares one scan, vector
# labels first, operator labels last
SHARED = (
    ("glts-f", "ternary-derivation", "hidden-assoc-operator"),
    ("sagle-yamaguti", "derivation", "reductivity"),
    ("glts-d", "yamagutian-constraint"),
    ("ternary-antisymmetry", "yamagutian-antisymmetry"),
)
ALONE = ("anticommutativity", "glts-c", "maltsev")

ALGEBRAS = list(full_catalog()) + random_dim3_algebras(100, RANDOM_ALGEBRA_SEED)


def test_the_suite_has_seven_keys():
    groups: dict = {}
    for ident_id in MALTSEV_SUITE_IDS:
        groups.setdefault(BUILTIN_IDENTITIES[ident_id].ast.key, set()).add(ident_id)
    assert len(MALTSEV_SUITE_IDS) == 13
    assert sorted(map(sorted, groups.values())) == sorted(
        [sorted(g) for g in SHARED] + [[i] for i in ALONE])
    assert BUILTIN_IDENTITIES["jacobi"].ast.key not in groups


def test_one_suite_run_scans_seven_times():
    A = builtin("m7")
    for ident_id in sorted(MALTSEV_SUITE_IDS):
        assert check_builtin(A, ident_id).holds
    assert len(A._scans) == 7


# sagle-yamaguti with [x,y,[z,w]] written out by the definition of [x,y,z]
SAGLE_YAMAGUTI_WRITTEN_OUT = (
    "[x,[y,[z,w]]] - [y,[x,[z,w]]] + [[x,y],[z,w]] = [[x,y,z],w] + [z,[x,y,w]]")


@pytest.mark.parametrize("text,twin", [
    ("[a,b,[c,d]] = [[a,b,c],d] + [c,[a,b,d]]", "sagle-yamaguti"),   # renamed
    ("[y,x] + [x,y] = 0", "anticommutativity"),                     # renamed by position
    ("1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]", "sagle-yamaguti"),
    ("-2*[x,y,[z,w,_]] + 2*[z,w,[x,y,_]] = -2*[[x,y,z],w,_] - 2*[z,[x,y,w],_]", "glts-f"),
    ("[x,y,[z,w]] - [[x,y,z],w] = [z,[x,y,w]]", "sagle-yamaguti"),  # terms moved
    (SAGLE_YAMAGUTI_WRITTEN_OUT, "sagle-yamaguti"),                  # [x,y,[z,w]] expanded
    ("[[x,y],z,u] + [[y,z],x,u] - [[x,z],y,u] = 0", "glts-d"),       # [z,x] flipped
])
def test_the_same_polynomial_shares(text, twin):
    assert parse_identity(text).key == BUILTIN_IDENTITIES[twin].ast.key


# pairs that must not share a scan, with an algebra on which sharing would
# change a report
APART = [
    ("[x,y+y] = 0", "2*[x,y] = 0"),              # y has multiplicity 2, then 1
    ("[y+y,x] = 0", "2*[y,x] = 0"),              # the same, both column programs
    ("[x,y] = [y,x]", "[x,y] = -1*[y,x]"),        # the second polynomial is 0
    ("[x,[y,z]] = 0", "[[x,y],z] = 0"),
    ("[x,y] = 0", "[x,y] = [x,y]"),              # the second polynomial is 0
]


@pytest.mark.parametrize("a,b", APART)
def test_different_polynomials_do_not_share(a, b):
    ast_a, ast_b = parse_identity(a), parse_identity(b)
    assert ast_a.key != ast_b.key
    for A in (builtin("so3"), builtin("nc3")):
        for exhaustive in (False, True):
            want = [check_identity(fresh(A), ast, exhaustive=exhaustive)
                    for ast in (ast_a, ast_b)]
            for order in ((0, 1), (1, 0)):
                B = fresh(A)
                for i in order:
                    ast = (ast_a, ast_b)[i]
                    assert check_identity(B, ast, exhaustive=exhaustive) == want[i], (a, b)


@pytest.mark.parametrize("exhaustive", [False, True], ids=["first", "exhaustive"])
def test_shared_reports_equal_unshared_ones_and_the_oracle(exhaustive):
    # both check orders: the vector label first, and the operator label first
    bad = []
    for A in ALGEBRAS:
        for group in SHARED:
            want = {}
            for ident_id in group:
                alone = check_builtin(fresh(A), ident_id, exhaustive=exhaustive)
                if alone != oracle.check(A, ident_id, exhaustive=exhaustive):
                    bad.append(f"{ident_id} alone on {A.name}")
                want[ident_id] = alone
            for order in (group, group[::-1]):
                B = fresh(A)
                for ident_id in order:
                    if check_builtin(B, ident_id, exhaustive=exhaustive) != want[ident_id]:
                        bad.append(f"{ident_id} after {order[0]} on {A.name}")
                assert len(B._scans) == 1, (A.name, order)
    assert bad == []


def test_dsl_lines_share_with_builtins_and_report_their_own_sides():
    # a 1/6* line, a renamed line and a written-out line read the builtins'
    # scans; each report carries the line's own sides and variable names
    texts = ("1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]",
             "[a,b,[c,d]] = [[a,b,c],d] + [c,[a,b,d]]",
             "1/3*[x,y,[z,_]] - 1/3*[z,[x,y,_]] = 1/3*[[x,y,z],_]",
             SAGLE_YAMAGUTI_WRITTEN_OUT)
    for A in (builtin("nc3"), *random_dim3_algebras(10, RANDOM_ALGEBRA_SEED)):
        for exhaustive in (False, True):
            B = fresh(A)
            check_builtin(B, "sagle-yamaguti", exhaustive=exhaustive)
            for text in texts:
                ast = parse_identity(text)
                want = oracle.check_ast(A, ast, format_identity(ast), exhaustive=exhaustive)
                assert check_identity(B, ast, exhaustive=exhaustive) == want, (A.name, text)
            assert len(B._scans) == 1


def test_an_identity_too_large_to_expand_is_its_own_key():
    side = "x"
    for _ in range(8):  # 2 * 3**7 monomials, none of them cancelling
        side = f"[{side},x + y + z]"
    ast = parse_identity(f"{side} = 0")
    assert 2 * 3 ** 7 > MAX_MONOMIALS
    assert ast.key is ast
    A = builtin("nc3")
    assert check_identity(A, ast) == oracle.check_ast(A, ast, format_identity(ast))


def test_chunks_of_a_column_program_start_at_prefix_boundaries():
    # the chunks start at the walk's entries, a prefix of dim columns each
    for dim in (2, 3, 5, 7):
        for ident in BUILTIN_IDENTITIES.values():
            plan = ident.ast.plan
            if ident.ast.vanishes or dim < max(map(len, plan.blocks), default=0):
                continue  # nothing scans, or nothing is canonical
            assert plan.column
            options = [checker._options(dim, m) for m in plan.multiplicities]
            total = math.prod(map(len, options))
            bases = [base for _, base, *_ in plan._walk(options, (tuple(range(dim)),),
                                                        [0] * plan.nvars, 0, total)]
            for workers in (2, 3, 4, 8):
                bounds = checker._chunk_bounds(total, workers, bases)
                assert bounds[0][0] == 0 and bounds[-1][1] == total
                assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
                assert all(start % dim == 0 for start, _ in bounds)
                assert len(bounds) == min(len(bases), workers * checker._CHUNKS_PER_WORKER)


def test_the_pool_splits_column_programs_at_prefix_boundaries(monkeypatch):
    # 16807 columns in 3 workers' chunks, which start at the walk's entries
    starts = []

    class RecordingPool(_InlinePool):
        def submit(self, fn, *args):
            starts.append(args[0])
            return super().submit(fn, *args)

    monkeypatch.setattr(checker, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    # m7's automorphisms leave 21 canonical prefixes: the program pools from 21 units
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 21)
    report = check_builtin(builtin("m7"), "hidden-assoc-operator", exhaustive=True, workers=3)
    assert report.holds and report.substitutions_checked == 2401
    assert len(starts) > 1 and all(s % 7 == 0 for s in starts)


def test_pooled_twin_counts_where_the_dimension_does_not_divide_the_chunk(monkeypatch):
    # dim 5: 625 columns in chunks cut at the walk's entries; a prefix split
    # between two chunks would count twice for the operator label
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)  # reductivity has 125
    A = random_algebra(random.Random(RANDOM_ALGEBRA_SEED), 5)
    pair = ("sagle-yamaguti", "reductivity")
    want = {i: oracle.check_ast(A, BUILTIN_IDENTITIES[i].ast, i, exhaustive=True)
            for i in pair}
    assert want["reductivity"].violations > 0
    for order in (pair, pair[::-1]):
        B = fresh(A)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        for ident_id in order:
            assert check_builtin(B, ident_id, exhaustive=True, workers=3) == want[ident_id]
        assert len(_InlinePool.sizes) == 1


# operator label and its vector twin -> the scan units of their one program
# on m7: the blocks' units (stream // (orbit * dim)), and the orbits of the
# prefixes under the blocks and m7's 21 automorphisms, which count from
# _PARALLEL_MIN blocks' units on (None: the key vanishes, and nothing scans)
M7_TWIN_UNITS = {
    ("yamagutian-antisymmetry", "ternary-antisymmetry"): (24, None),
    ("yamagutian-constraint", "glts-d"): (57, 3),
    ("reductivity", "sagle-yamaguti"): (171, 7),
}


def test_the_pool_threshold_counts_the_program_s_scan_units(monkeypatch):
    # each label alone on a fresh m7: a pair's labels scan one program, so
    # they pool alike, whatever their levels; at the default threshold none
    # pools, and at its own units each pools
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 2)
    m7, default = builtin("m7"), checker._PARALLEL_MIN
    for pair, (blocks, orbits) in M7_TWIN_UNITS.items():
        ast = BUILTIN_IDENTITIES[pair[0]].ast
        assert blocks == 7 ** ast.plan.nvars // (ast.plan.orbit * 7)
        assert ast.vanishes == (orbits is None)
        if orbits is not None:
            assert orbits == len(oracle.canonical_prefixes(m7, ast.plan))
        for threshold in (default, orbits or 1, (orbits or 1) + 1):
            monkeypatch.setattr(checker, "_PARALLEL_MIN", threshold)
            pools = threshold == orbits
            for ident_id in pair:
                monkeypatch.setattr(_InlinePool, "sizes", [])
                assert check_builtin(fresh(m7), ident_id, workers=2).holds
                assert _InlinePool.sizes == ([2] if pools else []), (ident_id, threshold)
