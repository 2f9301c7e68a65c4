import math
import random
from concurrent.futures import Future

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
    substitution_stream,
)
from maltsev import checker, dsl
from maltsev.identities import BUILTIN_IDENTITIES, GLTS_AXIOM_IDS

from .support import RANDOM_VECTOR_SEED, random_vector


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
    assert sum(1 for _ in substitution_stream(dim, mults)) == count


@given(dim=st.integers(1, 6), mults=st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_substitution_count_formula(dim, mults):
    expected = math.prod(
        sum(math.comb(dim, k) for k in range(1, m + 1)) for m in mults)
    assert substitution_count(dim, mults) == expected
    assert len(substitution_options(dim, mults[0])) == sum(
        math.comb(dim, k) for k in range(1, mults[0] + 1))


def test_stream_is_product_order():
    subs = list(substitution_stream(2, [1, 1]))
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


def test_exhaustive_on_holding_identity(so3):
    report = check_builtin(so3, "jacobi", exhaustive=True)
    assert report.holds
    assert report.violations == 0


# ------------------------------------------------------------ parallelism

def test_worker_count_does_not_change_reports(m7, nc3):
    for A, ident in ((m7, "maltsev"), (m7, "jacobi"), (nc3, "sagle-yamaguti")):
        serial = check_builtin(A, ident, workers=1)
        parallel = check_builtin(A, ident, workers=4)
        assert serial == parallel


def test_worker_count_does_not_change_exhaustive_reports(nc3):
    # small job: exercises the serial fallback path on purpose
    assert (check_builtin(nc3, "maltsev", exhaustive=True, workers=4)
            == check_builtin(nc3, "maltsev", exhaustive=True, workers=1))


def test_invalid_worker_count(so3):
    with pytest.raises(ValueError):
        check_builtin(so3, "jacobi", workers=0)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers,cpus,expected", [
    (100000, 1000, 16),  # chunks bind: abelian(4) glts-f has 1024 subs, 16 chunks
    (100000, 3, 3),      # the CPU count binds
    (2, 1000, 2),        # the request binds
    (4, None, 1),        # cpu_count() may be unknown
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    A = builtin("abelian(4)")
    report = check_builtin(A, "glts-f", workers=workers)
    assert _InlinePool.sizes == [expected]
    assert report == check_builtin(A, "glts-f")


def test_serial_dsl_check_parses_once(monkeypatch, nc3):
    calls = []
    parse = dsl.parse_identity

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    ast = parse(BUILTIN_IDENTITIES["sagle-yamaguti"].dsl_text)
    monkeypatch.setattr(dsl, "parse_identity", counting_parse)
    report = check_identity(nc3, ast)
    assert not report.holds
    assert len(calls) == 1


# -------------------------------------------------------------- aggregates

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
