"""Identities that vanish in the free anticommutative algebra need no scan.

``IdentityAst.vanishes`` holds when the key's polynomial is 0: LHS - RHS
with ternary brackets expanded by their definition, then reduced modulo
``[a,a] = 0`` and ``[a,b] = -[b,a]``.  Every algebra is anticommutative and
computes ``[x,y,z]`` by that definition, so such an identity holds at every
substitution, and ``run_check`` reports it without compiling or scanning.
These tests pin which identities vanish, build random ones that must, and
compare every such report with the one a forced scan gives.
"""
import json
import multiprocessing
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from maltsev import Algebra, Vector, builtin, check_identity, checker, cli, dsl, parse_identity
from maltsev.catalog import full_catalog
from maltsev.core import bracket
from maltsev.dsl import Bracket, IdentityAst, Scale, Sum, _infer_variables
from maltsev.identities import BUILTIN_IDENTITIES

from .support import (RANDOM_ALGEBRA_SEED, fresh, random_algebra, random_dim3_algebras,
                      random_vector)
from .test_checker import _InlinePool
from .test_cli import started_pools  # noqa: F401 (a fixture)
from .test_dsl import _expr_strategy

VANISHING = ("anticommutativity", "ternary-antisymmetry", "glts-c", "yamagutian-antisymmetry")

# DSL texts that vanish: renamed, rescaled, expanded or flipped forms
VANISHING_TEXTS = (
    "[a,b] = -1*[b,a]",
    "[x,y,z] = [x,[y,z]] - [y,[x,z]] + [[x,y],z]",
    "2*[x,y,[z,w]] + 2*[y,x,[z,w]] = 0",
    "1/3*[x,y,_] = 1/3*[x,[y,_]] - 1/3*[y,[x,_]] - 1/3*[[y,x],_]",
    "[x,x] + [[y,z],[y,z]] = 0",
)


def _dense_m7(seed: int = 1) -> Algebra:
    """m7 in a seeded unimodular integer basis ``f_i = sum_a P[i][a] e_a``."""
    m7 = builtin("m7")
    n, rng = m7.dim, random.Random(seed)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]  # P^-1
    for _ in range(12):  # P <- (1 + s E_ij) P, Q <- Q (1 - s E_ij)
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
        for row in Q:
            row[j] -= s * row[i]
    f = [Vector(row) for row in P]
    brackets = {(i, j): [sum(v * Q[a][k] for a, v in enumerate(bracket(m7, f[i], f[j]).coords))
                         for k in range(n)]
                for i in range(n) for j in range(i + 1, n)}
    return Algebra("m7-dense", tuple(f"f{i + 1}" for i in range(n)), brackets)


def test_the_vanishing_builtins():
    assert tuple(i for i, b in BUILTIN_IDENTITIES.items() if b.ast.vanishes) == VANISHING
    for text in ("[x,y,z] - [y,x,z] = 0", "[x,[y,z]] + [y,[x,z]] = 0"):
        assert not parse_identity(text).vanishes, text
    for text in VANISHING_TEXTS:
        assert parse_identity(text).vanishes, text
    side = "x + y"
    for _ in range(12):  # 2**13 free monomials, but [x + y,x + y] is 0
        side = f"[{side},x + y]"
    assert parse_identity(f"{side} = 0").vanishes


def test_an_identity_too_large_to_expand_does_not_vanish():
    side = "x"
    for _ in range(8):  # 2 * 3**7 monomials, past MAX_MONOMIALS
        side = f"[{side},x + y + z]"
    ast = parse_identity(f"{side} = {side}")
    assert ast.key is ast and not ast.vanishes


def _rewritten(node, rng: random.Random, sign: int = -1):
    """``node`` with random binary brackets written ``sign*[b,a]`` and random
    ternary brackets expanded by their definition: equal in every
    anticommutative algebra for the default sign."""
    if isinstance(node, Scale):
        return Scale(node.coeff, _rewritten(node.child, rng, sign))
    if isinstance(node, Sum):
        return Sum(tuple(_rewritten(t, rng, sign) for t in node.terms))
    if not isinstance(node, Bracket):
        return node
    args = tuple(_rewritten(a, rng, sign) for a in node.args)
    if len(args) == 2:
        return Scale(sign, Bracket(args[::-1])) if rng.random() < 0.5 else Bracket(args)
    if rng.random() < 0.5:
        return Bracket(args)
    x, y, z = args
    return Sum((Bracket((x, Bracket((y, z)))), Scale(-1, Bracket((y, Bracket((x, z))))),
                Bracket((Bracket((x, y)), z))))


def _sides_agree(ast: IdentityAst, seed: int) -> bool:
    """Both sides of ``ast`` agree at random rational vectors on random algebras."""
    rng = random.Random(seed)
    for dim in (2, 3, 4):
        A = random_algebra(rng, dim)
        for _ in range(3):
            args = {name: random_vector(rng, dim) for name in ast.variables}
            left, right = dsl.eval_ast(A, ast, args)
            if left != right:
                return False
    return True


@given(side=_expr_strategy, seed=st.integers(0, 2 ** 16))
def test_a_rewritten_identity_vanishes_and_holds(side, seed):
    rewritten = _rewritten(side, random.Random(seed))
    ast = IdentityAst(*_infer_variables(side, rewritten), side, rewritten)
    assume(ast.key is not ast)
    assert ast.vanishes
    assert _sides_agree(ast, seed)


@given(side=_expr_strategy, seed=st.integers(0, 2 ** 16))
def test_a_rewritten_side_has_the_same_key(side, seed):
    # "S = 0" and "S' = 0", with the variables in the same order: rewriting
    # may raise a multiplicity or move the last variable out of its column
    zero = Sum(())
    rewritten = _rewritten(side, random.Random(seed))
    variables, multiplicities = _infer_variables(side, zero)
    counts = dict(zip(*_infer_variables(rewritten, zero)))
    ast = IdentityAst(variables, multiplicities, side, zero)
    twin = IdentityAst(variables, tuple(counts[v] for v in variables), rewritten, zero)
    assume(ast.key is not ast and twin.key is not twin)
    assume(ast.multiplicities == twin.multiplicities)
    assert ast.key[0] == twin.key[0]
    assert (ast.key == twin.key) == (ast.key[2] == twin.key[2])


@given(lhs=_expr_strategy, rhs=_expr_strategy, seed=st.integers(0, 2 ** 16))
def test_a_vanishing_random_identity_holds(lhs, rhs, seed):
    # "S = T", "S = -S" and "S = S'" with brackets flipped without their sign
    for right in (rhs, Scale(-1, lhs), _rewritten(lhs, random.Random(seed), sign=1)):
        ast = IdentityAst(*_infer_variables(lhs, right), lhs, right)
        if ast.vanishes:
            assert _sides_agree(ast, seed)


def _report_bytes(A, ast, exhaustive, workers) -> str:
    return json.dumps(check_identity(fresh(A), ast, exhaustive=exhaustive, workers=workers)
                      .to_dict())


@pytest.mark.parametrize("workers", [1, 2])
def test_vanishing_reports_equal_the_forced_scans(monkeypatch, workers):
    # the pool runs inline, and every forced scan with two workers pools
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    asts = [BUILTIN_IDENTITIES[i].ast for i in VANISHING]
    asts += [parse_identity(text) for text in VANISHING_TEXTS]
    algebras = [*full_catalog(), *random_dim3_algebras(100, RANDOM_ALGEBRA_SEED), _dense_m7()]
    reports = [_report_bytes(A, ast, e, workers)
               for A in algebras for ast in asts for e in (False, True)]
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(IdentityAst, "vanishes", property(lambda self: False))
    assert [_report_bytes(A, ast, e, workers)
            for A in algebras for ast in asts for e in (False, True)] == reports
    assert bool(_InlinePool.sizes) == (workers > 1)


def test_the_dense_basis_is_m7():
    D = _dense_m7()
    assert sum(1 for _, v in D.pairs() for c in v.coords if c) > 4 * 21  # m7 has 21
    assert check_identity(D, BUILTIN_IDENTITIES["maltsev"].ast).holds
    assert not check_identity(D, BUILTIN_IDENTITIES["jacobi"].ast).holds


def test_a_command_of_vanishing_identities_starts_no_worker(
        started_pools, monkeypatch, capsys):  # noqa: F811 (the imported fixture)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    argv = ["check", "m7", *(a for i in VANISHING for a in ("--identity", i)),
            "--workers", "2", "--json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert started_pools == []
    assert multiprocessing.active_children() == []
    serial = cli.main(argv[:-3] + ["--json"]), capsys.readouterr().out
    assert (0, out) == serial
