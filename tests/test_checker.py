import math
import random
from concurrent.futures import Future
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maltsev import (
    UnknownIdentityError,
    Vector,
    builtin,
    check_builtin,
    check_equivalence,
    check_glts,
    check_identity,
    substitution_count,
    substitution_options,
)
from maltsev import checker, cli, dsl
from maltsev.identities import BUILTIN_IDENTITIES, GLTS_AXIOM_IDS

from . import oracle
from .support import (RANDOM_ALGEBRA_SEED, RANDOM_VECTOR_SEED, fresh, random_algebra,
                      random_vector)


# ----------------------------------------------------- substitution stream

def test_options_order_dim3_mult2():
    # singletons first, then pairwise sums, each block lexicographic
    opts = substitution_options(3, 2)
    assert opts == [
        Vector([1, 0, 0]), Vector([0, 1, 0]), Vector([0, 0, 1]),
        Vector([1, 1, 0]), Vector([1, 0, 1]), Vector([0, 1, 1]),
    ]


@pytest.mark.parametrize("dim,mults,count", [
    (3, [1, 1], 9),
    (3, [2], 6),
    (7, [1, 1, 1, 1], 2401),
    (7, [2, 1, 1], 1372),
])
def test_substitution_counts(dim, mults, count):
    assert substitution_count(dim, mults) == count
    assert sum(1 for _ in product(*(substitution_options(dim, m) for m in mults))) == count


@given(dim=st.integers(1, 6), mults=st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_substitution_count_formula(dim, mults):
    expected = math.prod(
        sum(math.comb(dim, k) for k in range(1, m + 1)) for m in mults)
    assert substitution_count(dim, mults) == expected
    assert len(substitution_options(dim, mults[0])) == sum(
        math.comb(dim, k) for k in range(1, mults[0] + 1))


def test_stream_is_product_order():
    subs = list(product(substitution_options(2, 1), substitution_options(2, 1)))
    assert subs == [
        (Vector([1, 0]), Vector([1, 0])),
        (Vector([1, 0]), Vector([0, 1])),
        (Vector([0, 1]), Vector([1, 0])),
        (Vector([0, 1]), Vector([0, 1])),
    ]


# ----------------------------------------------------------- basic checks

def test_so3_sagle_yamaguti_holds(so3):
    report = check_builtin(so3, "sagle-yamaguti")
    assert report.holds
    assert report.substitutions_checked == 81
    assert report.counterexample is None


def test_abelian_passes_everything(abelian3):
    for ident in BUILTIN_IDENTITIES:
        report = check_builtin(abelian3, ident)
        assert report.holds, ident


def test_nc3_maltsev_counterexample_is_frozen(nc3):
    report = check_builtin(nc3, "maltsev")
    assert not report.holds
    assert report.substitutions_checked == 6
    ce = report.counterexample
    assert [name for name, _ in ce.substitution] == ["x", "y", "z"]
    assert [v for _, v in ce.substitution] == [
        Vector([1, 0, 0]), Vector([0, 1, 0]), Vector([0, 0, 1])]
    assert ce.left == Vector([0, 0, 1])
    assert ce.right == Vector([0, -1, -1])


def test_m7_jacobi_fails_at_frozen_substitution(m7):
    report = check_builtin(m7, "jacobi")
    assert not report.holds
    assert report.substitutions_checked == 11
    assert [v for _, v in report.counterexample.substitution] == [
        Vector.basis(7, 0), Vector.basis(7, 1), Vector.basis(7, 3)]


def test_m7_reductivity(m7):
    report = check_builtin(m7, "reductivity")
    assert report.holds
    assert report.substitutions_checked == 343


def test_unknown_identity_raises(so3):
    with pytest.raises(UnknownIdentityError, match="no-such-identity"):
        check_builtin(so3, "no-such-identity")


# -------------------------------------------------------- exhaustive mode

def test_exhaustive_counts_all_violations(nc3):
    report = check_builtin(nc3, "maltsev", exhaustive=True)
    assert not report.holds
    assert report.substitutions_checked == 54
    assert report.violations == 21
    # same first counterexample as the short-circuit run
    assert report.counterexample == check_builtin(nc3, "maltsev").counterexample


def test_scan_reads_the_stream_from_its_chunk_start(nc3):
    # every [start, stop) range finds exactly the oracle's violations in it,
    # and the prefixes whose first violation it holds
    evaluate = oracle.ORACLE["maltsev"][3]
    stream = list(product(*(substitution_options(3, m) for m in (2, 1, 1))))
    bad = []
    for i, args in enumerate(stream):
        lhs, rhs = evaluate(nc3, args)
        if lhs != rhs:
            bad.append(i)
    assert len(bad) == 21
    ast = BUILTIN_IDENTITIES["maltsev"].ast
    options = [substitution_options(3, m) for m in ast.multiplicities]
    heads = {}  # the first violation of each prefix: z, the last variable, has 3 options
    for i in bad:
        heads.setdefault(i // 3, i)
    for start in range(len(stream)):
        for stop in range(start, len(stream) + 1, 7):
            inside = [i for i in bad if start <= i < stop]
            first = inside[0] if inside else None
            prefixes = sum(start <= i < stop for i in heads.values())
            assert (ast.plan.scan(nc3, options, start, stop, True)
                    == (first, len(inside), prefixes))
            assert (ast.plan.scan(nc3, options, start, stop, False)
                    == (first, min(1, len(inside)), min(1, len(inside))))
            if first is not None:  # the report's substitution is the oracle's
                assert checker._substitution(nc3, ast.plan, first) == stream[first]


def test_exhaustive_on_holding_identity(so3):
    report = check_builtin(so3, "jacobi", exhaustive=True)
    assert report.holds
    assert report.violations == 0


# ------------------------------------------------------------ parallelism

# The tests below build a fresh algebra for every check: an algebra keeps
# the scans run on it, so a second check of the same identity on it would
# not scan at all, with any worker count.

def test_worker_count_does_not_change_reports():
    for name, ident in (("m7", "maltsev"), ("m7", "jacobi"), ("nc3", "sagle-yamaguti")):
        serial = check_builtin(builtin(name), ident, workers=1)
        parallel = check_builtin(builtin(name), ident, workers=4)
        assert serial == parallel


def test_worker_count_does_not_change_exhaustive_reports():
    # small job: exercises the serial fallback path on purpose
    assert (check_builtin(builtin("nc3"), "maltsev", exhaustive=True, workers=4)
            == check_builtin(builtin("nc3"), "maltsev", exhaustive=True, workers=1))


def test_invalid_worker_count(so3):
    with pytest.raises(ValueError):
        check_builtin(so3, "jacobi", workers=0)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and its
    shutdowns, runs inline.

    The initializer runs once, here, as it would once in each worker.
    """

    sizes: list[int] = []
    shutdowns: list[tuple[bool, bool]] = []  # (wait, cancel_futures) per call

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


@pytest.mark.parametrize("workers,cpus,expected", [
    (100000, 1000, 36),  # chunks bind: glts-f's walk has 36 entries, a chunk each
    (100000, 3, 3),      # the CPU count binds
    (2, 1000, 2),        # the request binds
    (4, None, 1),        # cpu_count() may be unknown
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, expected):
    # a dim-4 algebra whose basis permutations leave no automorphism but
    # the identity: the walk's entries are the C(4,2)**2 canonical prefixes
    # of glts-f's blocks
    A = random_algebra(random.Random(RANDOM_ALGEBRA_SEED), 4)
    assert len(A.automorphisms(10 ** 6)) == 1
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)  # glts-f has 36 scan units
    monkeypatch.setattr(checker.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    report = check_builtin(fresh(A), "glts-f", workers=workers)
    assert _InlinePool.sizes == [expected]
    assert report == check_builtin(fresh(A), "glts-f")


@pytest.mark.parametrize("ident_id,blocks,units", [
    # column programs whose blocks leave 57 and 171 prefixes (2401 columns
    # // (orbit 6 or 2 * dim 7)), which m7's 21 automorphisms cut to the
    # orbits of the prefixes: at least _PARALLEL_MIN of the blocks' units,
    # so the group is sought, and the orbits count
    ("glts-d", 57, 3),
    ("sagle-yamaguti", 171, 7),
    ("reductivity", 171, 7),     # the operator twin of sagle-yamaguti, the same program
], ids=["glts-d-57", "sagle-yamaguti-171", "reductivity-171"])
def test_a_program_pools_from_parallel_min_scan_units(monkeypatch, ident_id, blocks, units):
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    m7, plan = builtin("m7"), BUILTIN_IDENTITIES[ident_id].ast.plan
    assert blocks == 7 ** plan.nvars // (plan.orbit * 7)
    assert units == len(oracle.canonical_prefixes(m7, plan))
    want = check_builtin(m7, ident_id)
    for threshold, pooled in ((units, True), (units + 1, False)):
        monkeypatch.setattr(checker, "_PARALLEL_MIN", threshold)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        assert check_builtin(fresh(m7), ident_id, workers=2) == want
        assert bool(_InlinePool.sizes) == pooled, threshold


def _count_parses(monkeypatch) -> list[str]:
    """Record the text of every ``dsl.parse_identity`` call from here on."""
    calls = []
    parse = dsl.parse_identity

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(dsl, "parse_identity", counting_parse)
    return calls


def test_serial_dsl_check_parses_once(monkeypatch, nc3):
    # the caller's parse is the only one: the checker takes the parsed identity
    ast = dsl.parse_identity(BUILTIN_IDENTITIES["sagle-yamaguti"].dsl_text)
    calls = _count_parses(monkeypatch)
    report = check_identity(nc3, ast)
    assert not report.holds
    assert calls == []


def test_pooled_dsl_check_parses_once_per_worker(monkeypatch):
    # one shared pool scans two identities in both modes, so each identity
    # text reaches the worker in two checks' chunks
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)  # glts-d has 10 scan units
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "shutdowns", [])
    asts = [dsl.parse_identity(BUILTIN_IDENTITIES[i].dsl_text) for i in ("glts-f", "glts-d")]
    calls = _count_parses(monkeypatch)
    A = builtin("abelian(4)")
    with checker.WorkerPool(A, 2) as pool:
        reports = [check_identity(A, ast, exhaustive=e, pool=pool)
                   for ast in asts for e in (False, True)]
    # the inline pool runs the initializer once, as one worker would
    assert _InlinePool.sizes == [2]
    assert _InlinePool.shutdowns == [(True, True)]
    assert calls == [dsl.format_identity(ast) for ast in asts]
    assert reports == [check_identity(builtin("abelian(4)"), ast, exhaustive=e)
                       for ast in asts for e in (False, True)]


def test_a_pooled_command_starts_one_pool_and_parses_each_text_once(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)  # jacobi has 24 scan units
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "shutdowns", [])
    # four checks that pool on m7, no two of them the same polynomial
    builtins = ("glts-d", "maltsev")
    lines = [dsl.format_identity(BUILTIN_IDENTITIES[i].ast)
             for i in ("sagle-yamaguti", "jacobi")]
    path = tmp_path / "two.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = ["check", "m7", "--identity", builtins[0], "--identity", builtins[1],
            "--dsl", str(path), "--json"]
    serial = cli.main(argv), capsys.readouterr().out
    assert _InlinePool.sizes == []
    calls = _count_parses(monkeypatch)
    assert (cli.main([*argv, "--workers", "2"]), capsys.readouterr().out) == serial
    assert serial[0] == 1  # jacobi fails on m7
    assert _InlinePool.sizes == [2]
    assert _InlinePool.shutdowns == [(True, True)]
    # the command parses each file line once, the worker each pooled text once
    worker_texts = [dsl.format_identity(BUILTIN_IDENTITIES[i].ast) for i in builtins]
    assert sorted(calls) == sorted([*lines, *worker_texts, *lines])


def test_a_pool_serves_one_algebra(so3, sl2):
    with checker.WorkerPool(so3, 2) as pool:
        with pytest.raises(ValueError, match="so3"):
            check_builtin(sl2, "maltsev", pool=pool)


# -------------------------------------------------------------- aggregates

def test_check_glts_and_check_equivalence_share_one_pool(monkeypatch):
    # abelian(4): sagle-yamaguti (2 scan units, the orbits of its 32
    # prefixes under the 24 automorphisms), glts-d (10: 24 automorphisms are
    # more than its units) and glts-f (3) pool; m7: both equivalence checks
    # pool (maltsev 10 units, sagle-yamaguti 7)
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 2)
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 2)
    for run, name in ((check_glts, "abelian(4)"), (check_equivalence, "m7")):
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(_InlinePool, "shutdowns", [])
        assert run(builtin(name), workers=2) == run(builtin(name))
        assert _InlinePool.sizes == [2]
        assert _InlinePool.shutdowns == [(True, True)]


def test_check_glts_sl2_all_hold(sl2):
    reports = check_glts(sl2)
    assert [r.identity for r in reports] == list(GLTS_AXIOM_IDS)
    assert all(r.holds for r in reports)


def test_check_glts_nc3_fails_sagle_yamaguti(nc3):
    reports = {r.identity: r for r in check_glts(nc3)}
    assert not reports["sagle-yamaguti"].holds
    assert reports["anticommutativity"].holds
    assert reports["ternary-antisymmetry"].holds


def test_check_equivalence(so3, nc3):
    eq = check_equivalence(so3)
    assert eq.maltsev.holds and eq.sagle_yamaguti.holds and eq.agree
    eq = check_equivalence(nc3)
    assert not eq.maltsev.holds and not eq.sagle_yamaguti.holds and eq.agree


# ------------------------------------------- soundness of the polarization

def test_maltsev_polarization_agrees_with_random_vectors(nc3, m7):
    # the multiplicity-2 substitution set decides the same verdict as 200
    # seeded random rational triples
    evaluate = BUILTIN_IDENTITIES["maltsev"].evaluate
    for A in (nc3, m7):
        rng = random.Random(RANDOM_VECTOR_SEED)
        random_violation = False
        for _ in range(200):
            args = tuple(random_vector(rng, A.dim) for _ in range(3))
            lhs, rhs = evaluate(A, args)
            if lhs != rhs:
                random_violation = True
                break
        assert check_builtin(A, "maltsev").holds == (not random_violation)


# ------------------------------------------------------------- reports

def test_report_to_dict_roundtrips_through_json(nc3):
    import json
    report = check_builtin(nc3, "reductivity")
    data = json.loads(json.dumps(report.to_dict()))
    assert data["holds"] is False
    assert data["identity"] == "reductivity"
    assert data["counterexample"]["left"]["kind"] == "operator"
    assert data["substitutions_checked"] == 4


def test_operator_counterexample_sides_are_true_scale(nc3):
    # the hidden-assoc operator check runs 6-scaled internally; the report
    # must carry the stated sides, i.e. 6[Y(x;y),Y(z;w)] vs Y(..)+Y(..)
    from fractions import Fraction
    from maltsev import operator_commutator, sixfold_yamagutian, yamaguti
    report = check_builtin(nc3, "hidden-assoc-operator")
    assert not report.holds
    sub = dict(report.counterexample.substitution)
    x, y, z, w = sub["x"], sub["y"], sub["z"], sub["w"]
    lhs = Fraction(1, 6) * operator_commutator(
        sixfold_yamagutian(nc3, x, y), sixfold_yamagutian(nc3, z, w))
    rhs = Fraction(1, 6) * (
        sixfold_yamagutian(nc3, yamaguti(nc3, x, y, z), w)
        + sixfold_yamagutian(nc3, z, yamaguti(nc3, x, y, w)))
    assert report.counterexample.left == lhs
    assert report.counterexample.right == rhs
