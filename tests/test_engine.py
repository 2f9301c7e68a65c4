"""The staged scan against a recursive evaluator, one substitution at a time.

``run_check`` drives each identity's compiled program over the stream,
rerunning only the steps whose variables changed and applying partial maps
``[a,.]``/``[a,b,.]``.  ``oracle.check_ast`` evaluates the AST afresh at
every substitution.  The two must agree on every report field, in both
modes.  The program scans only the canonical substitutions of its
antisymmetric blocks: on every chunk range a pool would use it must find
the oracle's canonical violations, down to the substitution it returns as
the first one, and over every partition into chunks its counts must add up
to the oracle's.
"""
import math
import random
from functools import lru_cache, partial

import pytest

from maltsev import Operator, Vector, builtin, check_builtin, check_identity, substitution_options
from maltsev import checker, dsl
from maltsev.catalog import full_catalog
from maltsev.cli import main
from maltsev.dsl import format_identity, parse_identity
from maltsev.identities import BUILTIN_IDENTITIES

from . import oracle
from .support import (RANDOM_ALGEBRA_SEED, RANDOM_VECTOR_SEED, fresh, random_algebra,
                      random_dim3_algebras, random_vector)
from .test_checker import _InlinePool

EDGE_TEXTS = (
    "0 = 0",                                           # no variables
    "[x,x] = 0",
    "[x,x,y] + [y,y,x] = 0",
    "[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = [x,y] - [x,y]",  # rhs constant in z
    "[[x,y],z] + [[y,z],x] = [z,[x,y]] - [[z,x],y]",
    "[z,x,y] = [x,z,y] + [y,x,z]",                     # fastest variable first, middle
    "[[y,z],x,w] = [x,[y,w]]",
    "[x + y,z] = [x,z] + [y,z]",                       # sums inside brackets
    "[x,y + z,z] = [x,y,z]",
    "-1/2*[x,y] = 1/2*[y,x]",
    "1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]",
    "[x,[y,_]] - [y,[x,_]] = [[x,y],_]",               # column-variable texts
    "[x,y,_] + [y,x,_] = 0",
    "1/6*[x,y,[z,_]] = 1/6*[z,[x,y,_]] + 1/6*[[x,y,z],_]",
    "0 = [x,_] - [x,_]",
    "[[x,y],z,_] = [x,[y,z],_]",
    # column scan in the last variable; the first text fails on nc3, rand3-0
    # and rand4-*, the second everywhere
    "[x,[y,z]] = [[x,y],z] + [y,[x,z]]",
    "[x,z] = z",
    "[x,y] - 0 = 2*[x,y]",
    "[x,y] - 0 = [x,2*y]",
    # column scan once oriented: binary brackets that hold the last variable
    # first, at depth, inside a scale, next to a ternary bracket; the first,
    # second and last hold in every anticommutative algebra
    "[x,z] + [z,x] = 0",
    "[x,-2*[z,y]] + 2*[[y,z],x] = 0",
    "[[z,x],y] = 2*[y,[x,z]]",
    "[z,x,y] + [[x,y],z] = 0",
    "[y,[x,[x,z]]] + [[[z,x],x],y] = 0",
    # vector scan: the last variable first in a ternary bracket, a term
    # without it, a 0 inside a bracket
    "[x,[y,z]] = [z,x,y]",
    "[x,y,z] = [x,y,z] + [x,y] - [x,y]",
    "[x,0] + [x,y] = [x,y]",
)

# the builtins whose last variable the compiler takes as the column variable;
# in the last three it stands first in binary brackets, which are oriented
COLUMN_BUILTINS = {"glts-f", "ternary-derivation", "sagle-yamaguti", "derivation",
                   "glts-d", "ternary-antisymmetry", "maltsev", "jacobi", "anticommutativity"}
# the builtins that use "_"; they compile into column programs too
OPERATOR_BUILTINS = {"yamagutian-antisymmetry", "yamagutian-constraint", "reductivity",
                     "hidden-assoc-operator"}


def _algebras():
    rng = random.Random(RANDOM_ALGEBRA_SEED)
    return ([A for A in full_catalog() if A.dim <= 4]
            + [random_algebra(rng, dim, i) for dim in (1, 2, 3, 4) for i in range(2)])


SMALL = _algebras()
DIM3 = random_dim3_algebras(100, RANDOM_ALGEBRA_SEED)


def _cases():
    """(check, ast, label) for every builtin and edge text.

    ``check(A, exhaustive=...)`` runs the case through its public entry point.
    """
    out = []
    for ident in BUILTIN_IDENTITIES.values():
        out.append((partial(check_builtin, identity_id=ident.id), ident.ast, ident.id))
    for text in EDGE_TEXTS:
        ast = parse_identity(text)
        out.append((partial(check_identity, ast=ast), ast, format_identity(ast)))
    return out


CASES = _cases()


@lru_cache(maxsize=None)
def _scanned(A, ast):
    """The oracle's exhaustive scan, shared by the tests below."""
    return oracle.violations(A, ast)


def _mismatches(algebras, exhaustive):
    bad = []
    for A in algebras:
        for check, ast, label in CASES:
            scanned = _scanned(A, ast) if exhaustive else None
            want = oracle.check_ast(A, ast, label, exhaustive=exhaustive, scanned=scanned)
            if check(A, exhaustive=exhaustive) != want:
                bad.append(f"{label} on {A.name}")
    return bad


@pytest.mark.parametrize("exhaustive", [False, True], ids=["first", "exhaustive"])
def test_reports_match_the_recursive_oracle_small_algebras(exhaustive):
    assert _mismatches(SMALL, exhaustive) == []


def test_reports_match_the_recursive_oracle_dim3_algebras():
    # every algebra in first-violation mode; exhaustive scans on a quarter
    # of them keep the run short
    assert _mismatches(DIM3, False) == []
    assert _mismatches(DIM3[::4], True) == []


def test_m7_first_violation_matches_the_oracle():
    # jacobi fails on m7; the staged scan must stop at the oracle's index,
    # and its reduced exhaustive count must be the oracle's
    m7 = builtin("m7")
    ident = BUILTIN_IDENTITIES["jacobi"]
    assert check_builtin(m7, "jacobi") == oracle.check_ast(m7, ident.ast, "jacobi")
    assert (check_builtin(m7, "jacobi", exhaustive=True)
            == oracle.check_ast(m7, ident.ast, "jacobi", exhaustive=True))


@pytest.mark.parametrize("ident_id", ["maltsev", "anticommutativity"])
def test_m7_oriented_builtins_match_the_oracle(ident_id):
    # oriented column programs, on the one non-Lie algebra of the catalog
    ast = BUILTIN_IDENTITIES[ident_id].ast
    scanned = oracle.violations(builtin("m7"), ast)
    for exhaustive in (False, True):
        assert (check_builtin(builtin("m7"), ident_id, exhaustive=exhaustive)
                == oracle.check_ast(builtin("m7"), ast, ident_id, exhaustive=exhaustive,
                                    scanned=scanned))


def _index_of(options, idx):
    """The stream index of the substitution with option indices ``idx``."""
    index = 0
    for o, i in zip(options, idx):
        index = index * len(o) + i
    return index


def _even_chunks(total, workers, unit=1):
    """Chunks of equal stream length, at least 64, that start at multiples of
    ``unit``: ranges cut inside prefixes, where the pool cuts at entries."""
    chunk = max(64, -(-total // (workers * checker._CHUNKS_PER_WORKER)))
    chunk = -(-chunk // unit) * unit
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def _ranges(options):
    """Every chunk range of workers 2-4, the same ranges started mid-prefix,
    some ranges that end mid-prefix, and ranges that start off the
    canonical substitutions: one slot at option 1 and the others at 0 (a
    slot past the next one of its block), the first k slots at option 1
    (equal slots mid-block), and every slot at its last option."""
    total, fastest = math.prod(map(len, options)), len(options[-1])
    out = set()
    for workers in (2, 3, 4):
        for start, stop in _even_chunks(total, workers):
            out.add((start, stop))
            for shift in (1, fastest // 2, fastest + 1):
                if start + shift < stop:
                    out.add((start + shift, stop))
    out |= {(total // 3 + 1, 2 * total // 3 + 2), (1, total - 1), (0, total)}
    n = len(options)
    starts = [[1] * n, [len(o) - 1 for o in options]]
    for k in range(n):
        starts += [[int(j == k) for j in range(n)], [int(j <= k) for j in range(n)]]
    for idx in starts:
        start = _index_of(options, [min(i, len(o) - 1) for i, o in zip(idx, options)])
        out |= {(start, total), (start, start + 2 * fastest)}
    return sorted((s, min(e, total)) for s, e in out if s < min(e, total))


def _canonical(plan, options, index):
    """Whether the option indices at ``index`` increase along each block."""
    idx = []
    for o in reversed(options):
        index, i = divmod(index, len(o))
        idx.append(i)
    idx.reverse()
    return all(idx[a] < idx[b] for block in plan.blocks for a, b in zip(block, block[1:]))


def _stream(A, ast):
    """The oracle's violations ({index: args}) on the stream ``ast``'s program
    scans, and that program's option lists.  An operator identity's program
    scans the stream of its column twin."""
    stream_ast = oracle.column_twin(ast) if ast.level == "operator" else ast
    bad = {v[0]: v[1] for v in _scanned(A, stream_ast)[0]}
    return bad, [substitution_options(A.dim, m) for m in ast.plan.multiplicities]


CHUNK_ALGEBRAS = [A for A in SMALL if A.name in ("so3", "nc3", "rand3-0", "rand4-1")]


@lru_cache(maxsize=None)
def _chunk_scans(ast):
    """For every chunk range on four small algebras: the algebra, the range,
    the oracle's canonical violating substitutions in it ({index: args}), the
    number of prefixes whose first canonical violation is in it and the
    scan's results in exhaustive and first-violation mode."""
    out = []
    plan = ast.plan
    for A in CHUNK_ALGEBRAS:
        bad, options = _stream(A, ast)
        width = len(options[-1]) if options else 1
        heads = {}
        for i in sorted(bad):
            if _canonical(plan, options, i):
                heads.setdefault(i // width, i)
        for start, stop in _ranges(options) if options else [(0, 1)]:
            inside = {i: args for i, args in bad.items()
                      if start <= i < stop and _canonical(plan, options, i)}
            out.append((A, start, stop, inside,
                        sum(start <= i < stop for i in heads.values()),
                        plan.scan(A, options, start, stop, True),
                        plan.scan(A, options, start, stop, False)))
    return out


@pytest.mark.parametrize("case", CASES, ids=[c[2] for c in CASES])
def test_scan_matches_the_oracle_on_every_chunk_range(case):
    orbit = case[1].plan.orbit
    for _, start, stop, inside, prefixes, exhaustive, short in _chunk_scans(case[1]):
        first = min(inside, default=None)
        assert exhaustive == (first, orbit * len(inside), orbit * prefixes), (start, stop)
        assert short == (first, min(1, len(inside)), min(1, len(inside))), (start, stop)


@pytest.mark.parametrize("case", CASES, ids=[c[2] for c in CASES])
def test_scan_returns_the_oracle_substitution_at_first(case):
    # the report decodes the scan's first index into the oracle's substitution
    plan = case[1].plan
    for A, start, stop, inside, _, exhaustive, short in _chunk_scans(case[1]):
        if inside:
            witness = inside[min(inside)]
            assert checker._substitution(A, plan, exhaustive[0]) == witness, (start, stop)
            assert checker._substitution(A, plan, short[0]) == witness, (start, stop)


@pytest.mark.parametrize("case", CASES, ids=[c[2] for c in CASES])
def test_chunk_partitions_add_up_to_the_oracle_stream(case):
    # unreduced oracle totals over chunks cut inside prefixes: every
    # violation and, where the last slot is in no block, every prefix
    # holding one
    plan = case[1].plan
    for A in CHUNK_ALGEBRAS:
        bad, options = _stream(A, case[1])
        total = math.prod(map(len, options))
        width = len(options[-1]) if options else 1
        first = min(bad, default=None)
        for workers in (1, 2, 3, 4):
            bounds = _even_chunks(total, workers)
            scans = [plan.scan(A, options, s, e, True) for s, e in bounds]
            assert sum(scan[1] for scan in scans) == len(bad), (A.name, workers)
            if not (plan.nvars and plan.prev[-1] >= 0):
                assert sum(scan[2] for scan in scans) == len({i // width for i in bad})
            for mode in (True, False):
                found = next((f for s, e in bounds
                              if (f := plan.scan(A, options, s, e, mode)[0]) is not None),
                             None)
                assert found == first, (A.name, workers)
                if found is not None:
                    assert checker._substitution(A, plan, found) == bad[found], (A.name, workers)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_pooled_reports_match_the_oracle(monkeypatch, workers):
    # each check runs on a fresh copy, so no stored scan stands in for the pool
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)  # glts-d has 10 scan units
    dim4 = [A for A in SMALL if A.dim == 4]
    for A in dim4:
        for ident_id in ("glts-f", "ternary-derivation", "hidden-assoc-operator", "glts-d"):
            ident = BUILTIN_IDENTITIES[ident_id]
            for exhaustive in (False, True):
                want = oracle.check_ast(A, ident.ast, ident_id, exhaustive=exhaustive,
                                        scanned=_scanned(A, ident.ast))
                monkeypatch.setattr(_InlinePool, "sizes", [])
                got = check_builtin(fresh(A), ident_id, exhaustive=exhaustive, workers=workers)
                assert got == want
                assert _InlinePool.sizes  # the pooled path ran


# operator builtin -> its vector twin
POOLED_TWINS = {"hidden-assoc-operator": "glts-f", "reductivity": "sagle-yamaguti",
                "yamagutian-constraint": "glts-d"}


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_pooled_operator_twin_counts_match_the_oracle(monkeypatch, workers):
    # whichever twin is checked first runs the pool, even on fewer than
    # _PARALLEL_MIN substitutions; the other reads its scan
    monkeypatch.setattr(checker, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(checker, "_PARALLEL_MIN", 1)
    for A in [A for A in SMALL if A.dim == 4]:
        for pair in POOLED_TWINS.items():
            for order in (pair, pair[::-1]):
                B = fresh(A)
                monkeypatch.setattr(_InlinePool, "sizes", [])
                for ident_id in order:
                    ident = BUILTIN_IDENTITIES[ident_id]
                    want = oracle.check_ast(A, ident.ast, ident_id, exhaustive=True,
                                            scanned=_scanned(A, ident.ast))
                    assert check_builtin(B, ident_id, exhaustive=True, workers=workers) == want
                assert len(_InlinePool.sizes) == 1, order


def test_column_scan_is_taken_by_exactly_the_linear_builtins():
    # vector builtins linear in their last variable, and every operator builtin;
    # glts-c's z stands first in a ternary bracket, which is not reordered
    column = {i.id for i in BUILTIN_IDENTITIES.values() if i.ast.plan.column}
    assert column == COLUMN_BUILTINS | OPERATOR_BUILTINS
    assert not BUILTIN_IDENTITIES["glts-c"].ast.plan.column
    assert {i.id for i in BUILTIN_IDENTITIES.values() if i.level == "operator"} \
        == OPERATOR_BUILTINS
    assert all((i.ast.plan.inner == ()) == (i.id in column)
               for i in BUILTIN_IDENTITIES.values())


@pytest.mark.parametrize("text,column", [
    ("[x,[y,z]] = [[x,y],z] + [y,[x,z]]", True),
    ("[x,z] = z", True),
    ("[x,y] - 0 = [x,2*y]", True),
    ("[x,z] + [z,x] = 0", True),
    ("[y,[x,[x,z]]] + [[[z,x],x],y] = 0", True),
    ("[x,[y,z]] = [z,x,y]", False),
    ("[x,y,z] = [x,y,z] + [x,y] - [x,y]", False),
    ("[x,0] + [x,y] = [x,y]", False),
    ("0 = 0", False),
])
def test_column_scan_eligibility_at_the_boundary(text, column):
    assert parse_identity(text).plan.column == column


def _sides(program, A, args):
    """``program``'s sides at ``args``: a column-compiled vector identity's
    operator sides are applied to its last vector."""
    left, right = program.evaluate(A, args)
    if program.column and len(args) == program.nvars:
        return left.apply(args[-1]), right.apply(args[-1])
    return left, right


def test_column_programs_evaluate_like_the_oracle_at_random_vectors():
    # the sides are operators in the last variable, applied to it: exact at
    # any rational vector, not only at the basis vectors the scan compares.
    # The one-substitution program, which reports every counterexample,
    # evaluates every case, in both levels, on m7 too
    asts = [case[1] for case in CASES if case[1].plan.column and case[1].level == "vector"]
    assert len(asts) == len(COLUMN_BUILTINS) + 14
    column = set(map(id, asts))
    rng = random.Random(RANDOM_VECTOR_SEED)
    for A in [*SMALL, builtin("m7")]:
        for _, ast, label in CASES:
            zero = Operator if ast.level == "operator" else Vector
            programs = [ast.evaluator, ast.plan] if id(ast) in column else [ast.evaluator]
            for _ in range(3):
                env = {name: random_vector(rng, A.dim) for name in ast.variables}
                want = tuple(oracle.eval_side(A, side, env, zero) for side in (ast.lhs, ast.rhs))
                for program in programs:
                    assert _sides(program, A, list(env.values())) == want, (A.name, label)
                assert dsl.eval_ast(A, ast, env) == want, (A.name, label)


# memo steps: a linear map that leaves out a slower slot than its level is
# built once per option indices of its own slots, from the first advance of
# a slot it does not read (before that no indices repeat)
@pytest.mark.parametrize("ident_id,primitive,builds", [
    # 6Y(x,y) per canonical (x,y); 6Y([x,y,z],w) and 6Y(z,[x,y,w]) per
    # canonical prefix; 6Y(z,w) per canonical (z,w) before y first advances,
    # and once more in its memo
    ("glts-f", "sixfold_yamagutian", 21 + 2 * 441 + 2 * 21),
    ("hidden-assoc-operator", "sixfold_yamagutian", 21 + 2 * 441 + 2 * 21),
    # l+_[x,y,z] per canonical prefix; l+_z for each z before y first
    # advances, and once more in its memo
    ("sagle-yamaguti", "left_translation", 147 + 2 * 7),
    # l+_x per x, and l+_[x,y] per prefix but the 7 with x = y, which the
    # diagonal pair (x,y) skips; l+_y for y = e1 ... e6 before x advances
    # (x = y = e0 is skipped), and for every y once more in its memo
    ("maltsev", "left_translation", 28 + (196 - 7) + 6 + 7),
])
def test_memo_steps_are_built_once_per_own_option_indices(monkeypatch, ident_id, primitive,
                                                           builds):
    calls = []
    original = getattr(dsl, primitive)
    monkeypatch.setattr(dsl, primitive, lambda *a: calls.append(1) or original(*a))
    m7, plan = builtin("m7"), BUILTIN_IDENTITIES[ident_id].ast.plan
    options = [checker._options(7, m) for m in plan.multiplicities]
    for _ in range(2):  # the memo lives in one scan: the next one builds as many
        calls.clear()
        assert plan.scan(m7, options, 0, math.prod(map(len, options)), True)[0] is None
        assert len(calls) == builds


def test_memo_tables_hold_at_most_the_product_of_their_slots_option_counts(monkeypatch):
    tables = []
    original = dsl._memoized
    monkeypatch.setattr(dsl, "_memoized", lambda step, slots, idx, table: (
        tables.append((slots, table)) or original(step, slots, idx, table)))
    peak = {}
    for A in [builtin("m7"), *CHUNK_ALGEBRAS]:
        for ident in BUILTIN_IDENTITIES.values():
            plan = ident.ast.plan
            options = [checker._options(A.dim, m) for m in plan.multiplicities]
            total = math.prod(map(len, options))
            for start, stop in [(0, total), *_even_chunks(total, 3)]:
                tables.clear()
                plan.scan(A, options, start, stop, True)
                for slots, table in tables:
                    assert 0 < len(table) <= math.prod(len(options[k]) for k in slots)
                    if A.name == "m7" and start == 0:
                        peak[ident.id] = max(peak.get(ident.id, 0), len(table))
    # on m7, [z,w,.] is kept for the 21 canonical (z, w), [z,.] and [y,.] for 7
    assert peak["glts-f"] == peak["hidden-assoc-operator"] == 21
    assert peak["sagle-yamaguti"] == peak["maltsev"] == 7


def test_evaluate_runs_no_memo(monkeypatch):
    monkeypatch.setattr(dsl, "_memoized", None)
    m7 = builtin("m7")
    for ident_id in ("glts-f", "hidden-assoc-operator", "maltsev"):
        ast = BUILTIN_IDENTITIES[ident_id].ast
        assert ast.plan.memos and not ast.evaluator.memos and not ast.evaluator.blocks
        zero = Operator if ast.level == "operator" else Vector
        args = [Vector.basis(7, k) + Vector.basis(7, 6 - k) for k in range(len(ast.variables))]
        env = dict(zip(ast.variables, args))
        want = tuple(oracle.eval_side(m7, side, env, zero) for side in (ast.lhs, ast.rhs))
        for program in (ast.plan, ast.evaluator):
            assert _sides(program, m7, args) == want, ident_id


def test_a_column_compiled_counterexample_report_composes_no_operator(monkeypatch):
    # the scan of sagle-yamaguti or maltsev composes operators; the report
    # built from the stored scan evaluates its substitution one bracket per node
    nc3 = fresh(builtin("nc3"))
    dim3 = next(A for A in map(fresh, DIM3) if not oracle.check(A, "maltsev").holds)
    composed = []
    matmul = Operator.__matmul__
    for A, ident_id in ((nc3, "sagle-yamaguti"), (dim3, "maltsev")):
        assert BUILTIN_IDENTITIES[ident_id].ast.plan.column
        with monkeypatch.context() as patch:
            patch.setattr(Operator, "__matmul__", lambda P, Q: composed.append(1) or matmul(P, Q))
            want = check_builtin(A, ident_id)
        assert composed and not want.holds
        assert want == oracle.check(A, ident_id)

        def refuse(P, Q):
            raise AssertionError("the report composed two operators")
        with monkeypatch.context() as patch:
            patch.setattr(Operator, "__matmul__", refuse)
            assert check_builtin(A, ident_id) == want


def test_identity_without_variables_holds_once(tmp_path, capsys):
    ident_file = tmp_path / "constant.txt"
    ident_file.write_text("0 = 0\n", encoding="utf-8")
    assert main(["check", "so3", "--dsl", str(ident_file), "--json"]) == 0
    out = capsys.readouterr().out
    assert '"substitutions_checked": 1' in out and '"holds": true' in out
