"""The benchmark's workloads: seeded inputs, one pass of checks, and the
correctness gate for every report a pass produces.

A pass is one closed-loop caller running a workload's checks back to back:

* ``m7-suite``: ``maltsev check m7 --identity all --json`` through
  ``maltsev.cli.main`` with one worker.  All 13 identities hold, so the whole
  stream of 46 060 substitutions is scanned by the builtin evaluators and the
  core primitives; neither the DSL nor the process pool runs.
* ``m7-dense-dsl``: m7 rewritten in a random unimodular integer basis (about
  four times as many nonzero structure constants, |c| up to 8), saved as
  ``.alg.json`` and checked against a DSL file holding the builtin
  identities' DSL forms with ``--workers 2``.  The DSL interpreter, the
  file loader and the pool do the work; jacobi fails early, so chunks are
  cancelled.
* ``equivalence-sweep``: ``check_equivalence`` (maltsev and sagle-yamaguti,
  first violation) over the catalog plus thousands of random dim-3
  algebras.  Most checks stop after a few substitutions, so the fixed cost
  of each check dominates.

Inputs depend only on the seed.  Isomorphism fixes every m7 verdict and
the substitution counts depend only on the dimension, so those are checked
for every seed; the report bytes are also compared with golden sha256
digests recorded at the default seed.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("m7-suite", "m7-dense-dsl", "equivalence-sweep")
DEFAULT_SEED = 1
DENSE_WORKERS = 2

# Substitution counts of the `--identity all` suite on a 7-dimensional
# algebra: 7**arity, and (7 + 21) * 7 * 7 for maltsev's doubled x.
M7_SUITE_SUBS = {
    "anticommutativity": 49,
    "derivation": 2401,
    "glts-c": 343,
    "glts-d": 2401,
    "glts-f": 16807,
    "hidden-assoc-operator": 2401,
    "maltsev": 1372,
    "reductivity": 343,
    "sagle-yamaguti": 2401,
    "ternary-antisymmetry": 343,
    "ternary-derivation": 16807,
    "yamagutian-antisymmetry": 49,
    "yamagutian-constraint": 343,
}
M7_TINY_IDS = ("anticommutativity", "maltsev")

# (DSL text, substitution count on dim 7, holds on every algebra isomorphic
# to m7).  These are the builtin identities' DSL forms, in registry order.
DENSE_LINES = (
    ("[x,y] + [y,x] = 0", 49, True),
    ("[x,y,z] + [y,x,z] = 0", 343, True),
    ("[x,y,z] + [y,z,x] + [z,x,y] + [[x,y],z] + [[y,z],x] + [[z,x],y] = 0", 343, True),
    ("[[x,y],z,u] + [[y,z],x,u] + [[z,x],y,u] = 0", 2401, True),
    ("[x,y,[z,w]] = [[x,y,z],w] + [z,[x,y,w]]", 2401, True),
    ("[x,y,[z,w,v]] = [[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]]", 16807, True),
    ("1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]", 2401, True),
    ("1/6*[x,y,[z,w,v]] = 1/6*[[x,y,z],w,v] + 1/6*[z,[x,y,w],v] + 1/6*[z,w,[x,y,v]]",
     16807, True),
    ("[[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]", 1372, True),
    ("[[x,y],z] + [[y,z],x] + [[z,x],y] = 0", 343, False),
)
DENSE_TINY_LINES = (0, 8, 9)  # anticommutativity, maltsev (pooled), jacobi

# The dense basis is redrawn until the table has this many nonzero
# constants, none above the magnitude limit, so every seed costs about the
# same (m7 itself has 21 nonzero constants, all +-1).
DENSE_NONZEROS = range(80, 86)
DENSE_MAX_ABS = 8
DENSE_BASIS_OPS = 6

SWEEP_RANDOM = {"full": 2000, "tiny": 20}
SWEEP_SUBS = {"maltsev": (2, 1, 1), "sagle-yamaguti": (1, 1, 1, 1)}
CATALOG_VERDICTS = {"abelian(3)": True, "so3": True, "sl2": True, "m7": True, "nc3": False}

# sha256 of the report bytes at DEFAULT_SEED (m7-suite has no seeded input,
# so its digests hold for every seed).
GOLDEN = {
    ("m7-suite", "full"):
        "68c018a30625595fc3e7c84b5fb0d17d01a47533ac4e507f138461908ada4152",
    ("m7-suite", "tiny"):
        "9895d9206092d0e88fe7f3cb2351357c7875c5589fb9969410aae86bf332660d",
    ("m7-dense-dsl", "full"):
        "37bbf5ab96b5d8dccfd01814b90d38aacecc9ec901add23b03aa5cbdf076adb0",
    ("m7-dense-dsl", "tiny"):
        "34d8f9aff339e646dc1f427000de0bafa2d52088585534286922bd549ff9621c",
    ("equivalence-sweep", "full"):
        "2e7d7b526002d81549f8f0f7259deffc3c36023df35c929af954802e60f2928a",
    ("equivalence-sweep", "tiny"):
        "4aac4a73b29bc6bac37230f6ffbbc813b51d28a6c30f870a4fedc2fb9a629261",
}


# --- the package under test, imported afresh ------------------------------

@dataclass
class Modules:
    core: object
    identities: object
    dsl: object
    checker: object
    catalog: object
    cli: object
    support: object
    check_s: list = field(default_factory=list)  # seconds per check, in call order


def fresh_import() -> Modules:
    """Import maltsev (and the test generators) from this checkout, anew.

    Earlier imports are dropped first, so each call pays the whole import
    and starts from module state no earlier pass has touched.
    """
    if not (SRC / "maltsev" / "__init__.py").is_file():
        raise FileNotFoundError(f"no maltsev package under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in list(sys.modules):
        if name in ("maltsev", "tests", "tests.support") or name.startswith("maltsev."):
            del sys.modules[name]
    mods = Modules(*(importlib.import_module(f"maltsev.{n}") for n in
                     ("core", "identities", "dsl", "checker", "catalog", "cli")),
                   support=importlib.import_module("tests.support"))
    if Path(mods.core.__file__).resolve().parent != SRC / "maltsev":
        raise ImportError(f"maltsev imported from {mods.core.__file__}, not {SRC}")
    _time_checks(mods)
    return mods


def _time_checks(m: Modules) -> None:
    """Record the duration of every check the public entry points run."""
    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                m.check_s.append(time.perf_counter() - start)
        return wrapper

    m.checker.check_builtin = timed(m.checker.check_builtin)
    m.dsl.check_identity = timed(m.dsl.check_identity)


# --- inputs --------------------------------------------------------------

def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Product of random elementary integer row operations (det 1)."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(DENSE_BASIS_OPS):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return P


def _inverse(P: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix; it must be integral."""
    n = len(P)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(P)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    inv = [row[n:] for row in M]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ArithmeticError("basis change is not unimodular")
    return [[int(x) for x in row] for row in inv]


def _bracket(table, x, y):
    """[x, y] from a full table table[i][j] = coords of [e_i, e_j]."""
    acc = [0] * len(x)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, c in enumerate(table[i][j]):
                        acc[k] += xi * yj * c
    return acc


def dense_m7_constants(m7, rng: random.Random) -> dict:
    """m7's structure constants in a random unimodular integer basis.

    The new basis is f_i = sum_a P[i][a] e_a.  Its table is checked to
    satisfy [f_i, f_j] = sum_k c_ijk f_k against m7's own brackets, and P
    has an integral inverse, so the result is isomorphic to m7.
    """
    n = m7.dim
    table = [[list(m7.structure_constant(i, j).coords) for j in range(n)]
             for i in range(n)]
    for _attempt in range(10_000):
        P = _unimodular(rng, n)
        Q = _inverse(P)
        constants = {}
        for i in range(n):
            for j in range(i + 1, n):
                v = _bracket(table, P[i], P[j])
                constants[(i, j)] = [sum(v[a] * Q[a][k] for a in range(n)) for k in range(n)]
        values = [c for v in constants.values() for c in v]
        nonzeros = sum(1 for c in values if c)
        if nonzeros in DENSE_NONZEROS and max(map(abs, values)) <= DENSE_MAX_ABS:
            break
    else:
        raise RuntimeError("no dense basis found")
    for (i, j), c in constants.items():
        image = [sum(c[k] * P[k][a] for k in range(n)) for a in range(n)]
        if image != _bracket(table, P[i], P[j]):
            raise ArithmeticError(f"dense m7 table wrong at ({i}, {j})")
    return constants


@dataclass
class Inputs:
    workload: str
    seed: int
    size: str
    argv: list[str] = field(default_factory=list)
    algebras: list = field(default_factory=list)


def set_up(workload: str, seed: int, size: str, m: Modules) -> Inputs:
    """Build one workload's inputs from the seed with freshly imported ``m``."""
    inputs = Inputs(workload, seed, size)
    if workload == "m7-suite":
        m.catalog.builtin("m7")  # the CLI builds it again in every pass
        ids = ["all"] if size == "full" else list(M7_TINY_IDS)
        inputs.argv = ["check", "m7", *(a for i in ids for a in ("--identity", i)), "--json"]
    elif workload == "m7-dense-dsl":
        constants = dense_m7_constants(m.catalog.builtin("m7"), random.Random(seed))
        dense = m.core.Algebra("m7-dense", tuple(f"f{i}" for i in range(1, 8)), constants)
        OUT.mkdir(exist_ok=True)
        alg_path = OUT / f"m7-dense-{seed}-{size}{m.catalog.FILE_SUFFIX}"
        dsl_path = OUT / f"m7-dense-{seed}-{size}.txt"
        m.catalog.save_algebra(dense, alg_path)
        dsl_path.write_text("".join(text + "\n" for text, _, _ in _dense_lines(size)),
                            encoding="utf-8")
        if m.catalog.load_algebra(alg_path) != dense:
            raise RuntimeError(f"{alg_path} does not load back")
        m.dsl.parse_identity_file(dsl_path.read_text(encoding="utf-8"))
        inputs.argv = ["check", str(alg_path), "--dsl", str(dsl_path), "--json",
                       "--workers", str(DENSE_WORKERS)]
    elif workload == "equivalence-sweep":
        inputs.algebras = (list(m.catalog.full_catalog())
                           + m.support.random_dim3_algebras(SWEEP_RANDOM[size], seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return inputs


def _dense_lines(size: str):
    if size == "full":
        return DENSE_LINES
    return tuple(DENSE_LINES[i] for i in DENSE_TINY_LINES)


# --- one pass --------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    check_s: list[float]  # seconds per check (per equivalence check in the sweep)
    subs: int  # sum of substitutions_checked over the pass's reports
    attempted: int
    failed: int


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(inputs: Inputs, m: Modules, golden: dict, *, workers: int | None = None) -> Pass:
    """Run the workload's checks once, timed, then verify every report."""
    gc.collect()  # leave the previous pass's garbage out of this one
    m.check_s.clear()
    argv = list(inputs.argv)
    if workers is not None:
        argv[argv.index("--workers") + 1] = str(workers)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    if inputs.workload == "equivalence-sweep":
        # One sample per equivalence check: its two identity checks take
        # about 0.3 and 0.9 ms, and a median taken over both would fall in
        # the gap between them.
        reports, check_s = [], []
        for A in inputs.algebras:
            check_start = time.perf_counter()
            eq = m.checker.check_equivalence(A)
            check_s.append(time.perf_counter() - check_start)
            reports += [eq.maltsev, eq.sagle_yamaguti]
        # Serialised as the CLI does it, through its json module, so a traced
        # pass times this as cli.report.
        out = m.cli.json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
        code = 0
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = m.cli.main(argv)
        out = buf.getvalue()
        check_s = list(m.check_s)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    attempted, failed, subs = verify(inputs, code, out.encode("utf-8"), golden)
    return Pass(wall, cpu, check_s, subs, attempted, failed)


# --- correctness -----------------------------------------------------------

def golden_applies(inputs: Inputs) -> bool:
    return inputs.workload == "m7-suite" or inputs.seed == DEFAULT_SEED


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expected(inputs: Inputs) -> tuple[int, list[tuple]]:
    """Exit code and (identity, algebra, subs, holds or None) per report."""
    if inputs.workload == "m7-suite":
        ids = sorted(M7_SUITE_SUBS if inputs.size == "full" else M7_TINY_IDS)
        return 0, [(i, "m7", M7_SUITE_SUBS[i], True) for i in ids]
    if inputs.workload == "m7-dense-dsl":
        return 1, [(text, "m7-dense", subs, holds)
                   for text, subs, holds in _dense_lines(inputs.size)]
    rows = []
    for A in inputs.algebras:
        holds = CATALOG_VERDICTS.get(A.name)  # None: random, verdict unknown
        for ident, mults in SWEEP_SUBS.items():
            total = 1
            for mult in mults:
                total *= A.dim if mult == 1 else A.dim + A.dim * (A.dim - 1) // 2
            rows.append((ident, A.name, total, holds))
    return 0, rows


def _report_ok(report: dict, identity: str, algebra: str, total: int, holds) -> bool:
    if (report.get("identity") != identity or report.get("algebra") != algebra
            or not isinstance(report.get("holds"), bool)
            or (holds is not None and report["holds"] != holds)):
        return False
    count = report.get("substitutions_checked")
    ce = report.get("counterexample")
    if report["holds"]:
        return count == total and ce is None
    return (isinstance(ce, dict) and ce.get("left") != ce.get("right")
            and isinstance(count, int) and 1 <= count <= total)


def verify(inputs: Inputs, code: int, out: bytes, golden: dict) -> tuple[int, int, int]:
    """Return (checks attempted, checks failed, substitutions checked).

    A wrong exit code, unreadable output or a golden-digest mismatch fails
    every check of the pass; otherwise each report is judged on its own.
    """
    want_code, rows = _expected(inputs)
    try:
        reports = json.loads(out)
    except ValueError:
        return len(rows), len(rows), 0
    if not isinstance(reports, list):
        return len(rows), len(rows), 0
    subs = sum(r.get("substitutions_checked") or 0 for r in reports if isinstance(r, dict))
    if code != want_code or len(reports) != len(rows):
        return len(rows), len(rows), subs
    if golden_applies(inputs) and golden.get((inputs.workload, inputs.size)) != digest(out):
        return len(rows), len(rows), subs
    bad = {i for i, (report, row) in enumerate(zip(reports, rows))
           if not isinstance(report, dict) or not _report_ok(report, *row)}
    if inputs.workload == "equivalence-sweep":
        # maltsev and sagle-yamaguti are equivalent, so their verdicts agree
        for i in range(0, len(reports), 2):
            if i not in bad and i + 1 not in bad and \
                    reports[i]["holds"] != reports[i + 1]["holds"]:
                bad |= {i, i + 1}
    return len(rows), len(bad), subs
