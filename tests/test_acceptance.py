"""Acceptance suite: one test per criterion, zero tolerance throughout.

Every check is exact rational arithmetic; a criterion passes only if the
relevant identities agree on every polarization substitution.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.
"""
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from maltsev import (
    builtin,
    check_builtin,
    check_equivalence,
    check_glts,
    yamagutian,
    yamaguti,
)
from maltsev.catalog import full_catalog, maltsev_catalog
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .support import RANDOM_ALGEBRA_SEED, random_dim3_algebras


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_glts_theorem():
    t0 = time.time()
    ok = True
    biggest = 0
    for A in maltsev_catalog():
        for report in check_glts(A):
            biggest = max(biggest, report.substitutions_checked)
            if not report.holds:
                ok = False
    elapsed = time.time() - t0
    ok = ok and biggest == 16807 and elapsed < 10.0
    _verdict(1, "GLTS axioms (a)-(f) on abelian(3), so3, sl2, m7", ok,
             f"largest job {biggest} substitutions, {elapsed:.1f}s")


def test_criterion_2_reductivity():
    ok = True
    for A in maltsev_catalog():
        report = check_builtin(A, "reductivity")
        if not (report.holds and report.substitutions_checked == A.dim ** 3):
            ok = False
    _verdict(2, "reductivity on all basis triples", ok, "343 triples on m7")


def test_criterion_3_derivation_theorems():
    ok = True
    for A in maltsev_catalog():
        d4 = check_builtin(A, "derivation")
        d5 = check_builtin(A, "ternary-derivation")
        if not (d4.holds and d4.substitutions_checked == A.dim ** 4):
            ok = False
        if not (d5.holds and d5.substitutions_checked == A.dim ** 5):
            ok = False
    _verdict(3, "derivation of both brackets on all basis tuples", ok)


def test_criterion_4_hidden_associativity_both_forms():
    ok = True
    for A in maltsev_catalog():
        if not check_builtin(A, "hidden-assoc-operator").holds:
            ok = False
        if not check_builtin(A, "glts-f").holds:
            ok = False
    nc3 = builtin("nc3")
    op_form = check_builtin(nc3, "hidden-assoc-operator")
    vec_form = check_builtin(nc3, "glts-f")
    ok = ok and not op_form.holds and not vec_form.holds
    _verdict(4, "hidden associativity: operator and 5-variable forms", ok,
             "both pass on Mal'tsev catalog, both fail on nc3")


def test_criterion_5_yamagutian_consistency():
    ok = True
    sixth = Fraction(1, 6)
    for A in full_catalog():
        for i, j in product(range(A.dim), repeat=2):
            x, y = A.basis_vector(i), A.basis_vector(j)
            Y = yamagutian(A, x, y)
            for k in range(A.dim):
                if Y.apply(A.basis_vector(k)) != sixth * yamaguti(A, x, y, A.basis_vector(k)):
                    ok = False
    for A in maltsev_catalog():
        if not check_builtin(A, "yamagutian-antisymmetry").holds:
            ok = False
        if not check_builtin(A, "yamagutian-constraint").holds:
            ok = False
    _verdict(5, "Yamagutian operator formula vs pointwise ternary bracket", ok)


def test_criterion_6_equivalence_experiment():
    algebras = list(full_catalog()) + random_dim3_algebras(100, RANDOM_ALGEBRA_SEED)
    disagreements = [A.name for A in algebras if not check_equivalence(A).agree]
    _verdict(6, "sagle-yamaguti and maltsev verdicts agree", not disagreements,
             f"{len(algebras)} algebras" + (f"; disagreements: {disagreements}"
                                            if disagreements else ""))


def test_criterion_7_negative_controls():
    nc3 = builtin("nc3")
    m7 = builtin("m7")
    ok = True
    for ident in ("sagle-yamaguti", "maltsev", "jacobi"):
        report = check_builtin(nc3, ident)
        if report.holds or report.counterexample is None:
            ok = False
    m7_jacobi = check_builtin(m7, "jacobi")
    if m7_jacobi.holds or m7_jacobi.counterexample is None:
        ok = False
    if not check_builtin(m7, "maltsev").holds:
        ok = False
    _verdict(7, "nc3 fails SY/maltsev/jacobi; m7 is non-Lie Mal'tsev", ok)


def test_criterion_8_dsl_oracle_equivalence():
    # every builtin runs as compiled DSL text; the oracle evaluates the same
    # identities by hand-written functions, one substitution at a time
    algebras = list(full_catalog()) + random_dim3_algebras(100, RANDOM_ALGEBRA_SEED)
    mismatches = [f"{ident} on {A.name}"
                  for ident in BUILTIN_IDENTITIES for A in algebras
                  if check_builtin(A, ident) != oracle.check(A, ident)]
    _verdict(8, "builtin checks match the reference evaluators exactly", not mismatches,
             "; ".join(mismatches) if mismatches
             else f"{len(BUILTIN_IDENTITIES)} identities x {len(algebras)} algebras")


def test_criterion_9_worker_determinism():
    argv = [sys.executable, "-m", "maltsev", "check", "m7",
            "--identity", "maltsev", "--identity", "jacobi", "--json"]
    runs = {}
    for workers in (1, 4):
        proc = subprocess.run(argv + ["--workers", str(workers)],
                              capture_output=True)
        runs[workers] = proc
    ok = (runs[1].stdout == runs[4].stdout
          and runs[1].returncode == runs[4].returncode == 1
          and json.loads(runs[1].stdout))
    _verdict(9, "byte-identical JSON reports for workers 1 and 4", bool(ok))
