"""Basis-permutation automorphisms: the search, the orbit tables and the
reduced scan.

A permutation p of the basis indices with ``[e_p(i), e_p(j)] = p([e_i, e_j])``
is an automorphism, and it maps each option (a sum of distinct basis
vectors) to an option of the same size, so a substitution violates iff its
image does.  A scan whose blocks leave ``_PARALLEL_MIN`` units or more then
visits only the prefixes and columns that come first in stream order within
their orbit under the blocks and the group, and counts each violation with
its orbit.  The tests compare the search with trying every permutation, the
orbit tables with the walk over every prefix of the stream that they
replace, the reduced scan on every chunk range with an oracle that applies every element
of the group, chunk partitions with the unreduced stream, and the reports of
the checker with the unreduced oracle, serial and pooled.
"""
import math

import pytest

from maltsev import Algebra, builtin, check_builtin, checker, format_identity, parse_identity
from maltsev.catalog import MAX_ABELIAN_DIM
from maltsev.cli import main
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .support import fresh, random_dim3_algebras
from .test_checker import _InlinePool
from .test_engine import CASES, _ranges, _stream


def _doubled(A: Algebra) -> Algebra:
    """A + A: e_i and e_(d+i) span the two copies, which a swap exchanges."""
    d = A.dim
    brackets = {}
    for (i, j), v in A.pairs():
        brackets[(i, j)] = (*v.coords, *[0] * d)
        brackets[(d + i, d + j)] = (*[0] * d, *v.coords)
    return Algebra(f"{A.name}+{A.name}", [f"{b}{copy}" for copy in "ab" for b in A.basis],
                   brackets)


# the one algebra of the 2 000 random dim-3 ones of the equivalence sweep
# (seed 1) with a nontrivial group, of order 2
SWEEP = random_dim3_algebras(2000, 1)
ORDER_2 = SWEEP[771]
NC3_TWICE = _doubled(builtin("nc3"))

# algebra -> the order of its group
ORDERS = {
    builtin("m7"): 21,
    builtin("so3"): 3,
    builtin("nc3"): 3,
    builtin("abelian(3)"): 6,
    builtin("sl2"): 1,
    ORDER_2: 2,
    NC3_TWICE: 18,  # each copy's 3, and the swap
}
SMALL = [builtin("so3"), builtin("nc3"), builtin("abelian(3)"), ORDER_2]


@pytest.mark.parametrize("A", ORDERS, ids=lambda A: A.name)
def test_the_search_finds_every_automorphism(A):
    group = fresh(A).automorphisms(10 ** 6)
    assert group == oracle.automorphisms(A)
    assert len(group) == ORDERS[A]
    assert group[0] == tuple(range(A.dim))


def test_the_sweep_has_one_algebra_with_a_nontrivial_group():
    orders = [len(A.automorphisms(10 ** 4)) for A in SWEEP]
    assert [i for i, n in enumerate(orders) if n > 1] == [771]
    assert all(fresh(A).automorphisms(10 ** 4) == oracle.automorphisms(A) for A in SWEEP[::10])


def test_the_search_stops_at_its_limit():
    A = builtin("abelian(5)")
    group = A.automorphisms(10 ** 6)
    cost = A._automorphisms[0]
    assert len(group) == 120
    # the result depends on the limit alone, whatever was searched before
    B = fresh(A)
    assert B.automorphisms(cost - 1) is None
    assert B.automorphisms(cost) == group
    assert B.automorphisms(cost - 1) is None
    assert fresh(A).automorphisms(cost) == group
    # abelian(7) has 5 040 automorphisms; the search gives up at its limit
    assert builtin("abelian(7)").automorphisms(1000) is None
    # a scan of m7 that seeks the group has at least _PARALLEL_MIN units,
    # and the search may take 7 trials per unit: m7's group is found
    m7 = builtin("m7")
    assert m7.automorphisms(checker._PARALLEL_MIN * 7) is not None


@pytest.mark.parametrize("name", [f"abelian({MAX_ABELIAN_DIM + 1})", "abelian(0)",
                                  "abelian(" + "9" * 5000 + ")"])
def test_the_abelian_dimension_is_bounded(name, capsys):
    assert builtin(f"abelian({MAX_ABELIAN_DIM})").dim == MAX_ABELIAN_DIM
    with pytest.raises(ValueError, match=f"between 1 and {MAX_ABELIAN_DIM}"):
        builtin(name)
    assert main(["check", name]) == 2
    assert "between 1 and" in capsys.readouterr().err


def test_a_last_variable_in_a_block_takes_no_group():
    # the blocks would have to act on the columns; no table is built
    m7 = builtin("m7")
    for text in ("[2*z + z,x] = [2*z + z,y]", "x = y"):
        plan = parse_identity(text).plan
        assert not plan.column and plan.prev[-1] >= 0
        assert checker._orbits(m7, plan, [checker._options(7, m)
                                          for m in plan.multiplicities]) is None


# every builtin whose program can take a table, and two texts whose blocks
# are not runs of slots: ((0, 2),) and the interleaved ((0, 3), (1, 2))
TABLE_ASTS = [ast for ast in (i.ast for i in BUILTIN_IDENTITIES.values())
              if not ast.vanishes and ast.plan.nvars and ast.plan.prev[-1] < 0]
TABLE_ASTS += [parse_identity("[[[x,y],z],w] - [[[z,y],x],w] = 0"),
               parse_identity("[[x,[y,z]],[u,w]] - [[u,[y,z]],[x,w]] = 0")]


@pytest.mark.parametrize("A", ORDERS, ids=lambda A: A.name)
def test_orbit_tables_equal_the_stream_walk(A):
    # bases, prefixes, weights and column orbits, entry for entry
    assert [ast.plan.blocks for ast in TABLE_ASTS[-2:]] == [((0, 2),), ((0, 3), (1, 2))]
    group = A.automorphisms(10 ** 6)
    for ast in TABLE_ASTS:
        plan = ast.plan
        options = [checker._options(A.dim, m) for m in plan.multiplicities]
        assert plan.orbits(options, group) == oracle.stream_orbits(plan, options, group), \
            format_identity(ast)


def test_orbit_tables_leave_out_tied_prefixes():
    # maltsev's x = y: (e1, e1) comes first in its orbit, one of the 10 that
    # the blocks and the group leave, and every substitution of it holds
    m7 = builtin("m7")
    group = m7.automorphisms(10 ** 6)
    sizes = {}
    for ident_id in ("glts-f", "maltsev", "sagle-yamaguti"):
        plan = BUILTIN_IDENTITIES[ident_id].ast.plan
        options = [checker._options(7, m) for m in plan.multiplicities]
        entries = plan.orbits(options, group)[1]
        sizes[ident_id] = len(entries)
        ties = [(i, j) for i, j in plan.diagonals if j < plan.nvars - 1]
        assert not any(p[i] == p[j] for p, _, _ in entries for i, j in ties)
    assert sizes == {"glts-f": 21, "maltsev": 9, "sagle-yamaguti": 7}
    canonical = oracle.canonical_prefixes(m7, BUILTIN_IDENTITIES["maltsev"].ast.plan)
    assert len(canonical) == 10 and (0, 0) in canonical


def _decoded(options, index):
    idx = []
    for o in reversed(options):
        index, i = divmod(index, len(o))
        idx.append(i)
    return tuple(reversed(idx))


def _canonical_violations(A, ast):
    """The oracle's violations of the stream ``ast``'s program scans, that
    come first in stream order in their orbit under the blocks and ``A``'s
    group: {index: (orbit, orbit of the prefix)}.  Also every violation
    ({index: args}) and the option lists."""
    bad, options = _stream(A, ast)
    plan, group = ast.plan, oracle.automorphisms(A)
    out = {}
    for i in bad:
        idx = _decoded(options, i)
        orbit = oracle.orbit(idx, options, group, plan.blocks)
        if idx == min(orbit):
            out[i] = len(orbit), len(oracle.orbit(idx[:-1], options[:-1], group, plan.blocks))
    return out, bad, options


def _reducible(ast):
    plan = ast.plan
    return not ast.vanishes and plan.nvars and plan.prev[-1] < 0


# the cases an orbit table serves: a variable, a key that does not vanish
# and a last variable in no block
REDUCIBLE = [c for c in CASES if _reducible(c[1])]


@pytest.mark.parametrize("case", REDUCIBLE, ids=[c[2] for c in REDUCIBLE])
def test_the_reduced_scan_matches_the_group_oracle_on_every_chunk_range(case):
    ast = case[1]
    plan = ast.plan
    for A in SMALL:
        canonical, _, options = _canonical_violations(A, ast)
        orbits = plan.orbits(options, A.automorphisms(10 ** 6))
        width = len(options[-1])
        for start, stop in _ranges(options):
            inside = {i: w for i, w in canonical.items() if start <= i < stop}
            first = min(inside, default=None)
            prefixes = {i // width: w[1] for i, w in inside.items()}
            assert plan.scan(A, options, start, stop, True, orbits) == (
                first, sum(w[0] for w in inside.values()), sum(prefixes.values())), \
                (A.name, start, stop)
            assert plan.scan(A, options, start, stop, False, orbits) == (
                first, min(1, len(inside)), min(1, len(inside))), (A.name, start, stop)
            if first is not None:  # the report's substitution is the oracle's
                assert checker._substitution(A, plan, first) == _stream(A, ast)[0][first]


# cases whose oracle scan on the dim-6 and dim-7 algebras stays short
LARGE_CASES = [c for c in CASES if c[2] in ("jacobi", "maltsev", "sagle-yamaguti", "reductivity",
                                            "derivation", "glts-d", "yamagutian-constraint")]


@pytest.mark.parametrize("case", LARGE_CASES, ids=[c[2] for c in LARGE_CASES])
def test_reduced_chunk_partitions_add_up_to_the_unreduced_stream(case):
    ast = case[1]
    plan = ast.plan
    for A in [*SMALL, NC3_TWICE, builtin("m7")]:
        bad, options = _stream(A, ast)
        orbits = plan.orbits(options, A.automorphisms(10 ** 6))
        total, width = math.prod(map(len, options)), len(options[-1])
        for workers in (1, 2, 3, 4):
            bounds = checker._chunk_bounds(total, workers, width)
            scans = [plan.scan(A, options, s, e, True, orbits) for s, e in bounds]
            assert sum(scan[1] for scan in scans) == len(bad), (A.name, workers)
            assert sum(scan[2] for scan in scans) == len({i // width for i in bad})
            found = next((f for s, e in bounds
                          if (f := plan.scan(A, options, s, e, False, orbits)[0]) is not None),
                         None)
            assert found == min(bad, default=None), (A.name, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_reports_through_the_group_match_the_oracle(monkeypatch, workers):
    # every check seeks the group; two workers pool every check, inline
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    reduced = set()  # the algebras where a check scanned orbits
    cases = [(A, case) for A in SMALL for case in CASES]
    cases += [(NC3_TWICE, case) for case in LARGE_CASES]
    for A, (check, ast, label) in cases:
        for exhaustive in (False, True):
            B = fresh(A)
            want = oracle.check_ast(A, ast, label, exhaustive=exhaustive,
                                    scanned=oracle.violations(A, ast) if exhaustive else None)
            assert check(B, exhaustive=exhaustive, workers=workers) == want, (A.name, label)
            if B._orbits:
                reduced.add(A.name)
    assert reduced == {A.name for A in [*SMALL, NC3_TWICE]}


@pytest.mark.parametrize("ident_id", ["maltsev", "sagle-yamaguti", "derivation", "reductivity",
                                      "hidden-assoc-operator", "glts-f"])
def test_m7_reports_through_the_group_match_the_oracle(ident_id):
    # these programs leave _PARALLEL_MIN units or more to their blocks, so
    # each scans orbits of m7's 21 automorphisms
    modes = (True,) if ident_id == "glts-f" else (False, True)
    for exhaustive in modes:
        m7 = builtin("m7")
        assert check_builtin(m7, ident_id, exhaustive=exhaustive) \
            == oracle.check(m7, ident_id, exhaustive=exhaustive)
        assert m7._orbits and len(m7._scans) == 1


def test_pooled_reduced_reports_match_the_oracle(monkeypatch):
    # real worker processes, forked after the group and the table are found
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    for name, ident_id in (("m7", "maltsev"), ("nc3+nc3", "maltsev"),
                           ("nc3+nc3", "sagle-yamaguti")):
        for exhaustive in (False, True):
            A = builtin("m7") if name == "m7" else fresh(NC3_TWICE)
            assert check_builtin(A, ident_id, exhaustive=exhaustive, workers=2) \
                == oracle.check(A, ident_id, exhaustive=exhaustive)
            assert A._orbits


@pytest.mark.parametrize("exhaustive", [False, True])
def test_pool_chunks_hold_equal_counts_of_orbit_table_entries(monkeypatch, exhaustive):
    # all 21 canonical glts-f prefixes on m7 lie in the first 4% of the
    # stream: chunks of equal stream length would leave one chunk all the work
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    cut = []
    chunk_bounds = checker._chunk_bounds
    monkeypatch.setattr(checker, "_chunk_bounds",
                        lambda *a: cut.append(chunk_bounds(*a)) or cut[-1])
    m7 = builtin("m7")
    pooled = check_builtin(m7, "glts-f", exhaustive=exhaustive, workers=2)
    bases = next(iter(m7._orbits.values()))[0]
    assert len(cut) == 1 and len(bases) == 21
    bounds = cut[0]
    held = [sum(start <= b < stop for b in bases) for start, stop in bounds]
    assert sum(held) == len(bases) and max(held) <= -(-len(bases) // len(bounds))
    assert bounds[0][0] == 0 and bounds[-1][1] == 7 ** 5
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 10 ** 9)  # serial
    assert check_builtin(builtin("m7"), "glts-f", exhaustive=exhaustive) == pooled
