"""Exhaustive identity checking over polarization substitutions.

For a variable occurring at most m times in any additive term of an
identity, it suffices (over a field of characteristic 0) to substitute all
sums of up to m distinct basis vectors; the cartesian product of these
option lists over all variables is the substitution stream.  A check holds
iff both sides agree exactly on every substitution; the reported
counterexample is always the first one in stream order, independent of the
worker count.

:func:`run_check` takes a parsed identity and scans with its compiled
program, which hands back stream positions only: the first violating index
and the violation counts.  The program visits only the canonical
substitutions of its antisymmetric blocks (see :mod:`.dsl`), and from
``_PARALLEL_MIN`` scan units on, of the blocks and the algebra's
basis-permutation automorphisms too (see :func:`_orbits`).  Pool chunks are
still ranges of the whole stream, cut at equal counts of orbit-table
entries where there is a table, and the chunk holding the first violation
finds it.  Every report decodes the first index into its substitution and
evaluates both sides there with :func:`dsl.eval_ast`, which runs the
identity's one-substitution program: a column program's operator sides are
never built for a report.

A scan pools only when its program has ``_PARALLEL_MIN`` scan units or
more.  A unit is one canonical substitution of a vector program or one
canonical prefix of a column program; the blocks' units are counted as the
stream length divided by the orbit, and by the dimension for a column
program, and those of an orbit table one by one.
The decision depends on the program alone, so labels that share a scan,
such as an operator identity and its vector twin, are judged alike.

One :class:`WorkerPool` serves every check of a command on its algebra: its
processes start at the first check that pools and receive the algebra once;
each chunk carries the identity as text, and a worker parses each text once
and keeps its program for the later chunks.  A check given no pool opens a
pool of its own, which closes when the check returns.

Each algebra keeps the result of every scan run on it, by the identity's
key and mode.  The key (``IdentityAst.key``) is LHS - RHS in the free
anticommutative algebra (see :mod:`.dsl`), so identities that are the same
polynomial there share one scan: a check whose key was scanned before
builds its report from the stored result as from a fresh scan, with its own
identity's sides.  An operator identity and its vector twin scan the same stream, every
prefix followed by ``e_0 ... e_{d-1}``; the vector label reports its index
and the violating columns, the operator label the prefix's index and the
violating prefixes.  A key that is 0 (``IdentityAst.vanishes``) holds at
every substitution, so it is stored as a scan with no violation over its
whole stream, with no program compiled and no pool started.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import dsl
from .core import Algebra, Operator, Vector, format_rational
from .identities import BUILTIN_IDENTITIES, GLTS_AXIOM_IDS

# below this many scan units a pooled scan is slower than a serial one
_PARALLEL_MIN = 128
_CHUNKS_PER_WORKER = 8


class UnknownIdentityError(ValueError):
    """An identity id that is not in the builtin registry."""


def substitution_options(dim: int, multiplicity: int) -> list[Vector]:
    """All sums of up to ``multiplicity`` distinct basis vectors.

    Ordered by subset size, then lexicographically by indices; this order
    fixes which counterexample is "first".
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    out = []
    for k in range(1, multiplicity + 1):
        for subset in combinations(range(dim), k):
            coords = [0] * dim
            for i in subset:
                coords[i] = 1
            out.append(Vector._raw(tuple(coords)))
    return out


def substitution_count(dim: int, multiplicities: Sequence[int]) -> int:
    per_var = [sum(math.comb(dim, k) for k in range(1, m + 1)) for m in multiplicities]
    return math.prod(per_var)


@lru_cache(maxsize=8)
def _options(dim: int, multiplicity: int) -> tuple[Vector, ...]:
    """:func:`substitution_options`, built once per (dim, multiplicity)."""
    return tuple(substitution_options(dim, multiplicity))


@dataclass(frozen=True)
class Counterexample:
    substitution: tuple[tuple[str, Vector], ...]
    left: Vector | Operator
    right: Vector | Operator


@dataclass(frozen=True)
class CheckReport:
    identity: str
    algebra: str
    holds: bool
    substitutions_checked: int
    counterexample: Counterexample | None = None
    violations: int | None = None  # populated in exhaustive mode

    def to_dict(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {
                "substitution": [
                    {"var": name, "coords": [format_rational(c) for c in v.coords]}
                    for name, v in self.counterexample.substitution
                ],
                "left": _value_to_dict(self.counterexample.left),
                "right": _value_to_dict(self.counterexample.right),
            }
        return {
            "identity": self.identity,
            "algebra": self.algebra,
            "holds": self.holds,
            "substitutions_checked": self.substitutions_checked,
            "counterexample": ce,
            "violations": self.violations,
        }


def _value_to_dict(value: Vector | Operator) -> dict:
    if isinstance(value, Vector):
        return {"kind": "vector",
                "coords": [format_rational(c) for c in value.coords]}
    return {"kind": "operator",
            "entries": [[format_rational(c) for c in row] for row in value.rows]}


@dataclass(frozen=True)
class EquivalenceReport:
    algebra: str
    maltsev: CheckReport
    sagle_yamaguti: CheckReport

    @property
    def agree(self) -> bool:
        return self.maltsev.holds == self.sagle_yamaguti.holds


_worker: tuple = ()  # (algebra, {identity text: (program, option lists)}), set by _init_worker


def _init_worker(A: Algebra) -> None:
    global _worker
    _worker = (A, {})


def _scan_chunk(start: int, stop: int, exhaustive: bool, text: str):
    """Pool entry point: :meth:`dsl.Program.scan` of the identity ``text``,
    which each worker parses once."""
    A, plans = _worker
    if text not in plans:
        plan = dsl.parse_identity(text).plan
        options = [_options(A.dim, m) for m in plan.multiplicities]
        plans[text] = plan, options, _orbits(A, plan, options)
    plan, options, orbits = plans[text]
    return plan.scan(A, options, start, stop, exhaustive, orbits)


class WorkerPool:
    """The worker processes that every pooled check on one algebra shares.

    They start at the first check that pools, as many as ``workers``, that
    check's chunks and ``os.cpu_count()`` allow, and each receives the
    algebra once.  :meth:`close`, also on leaving a ``with`` block, cancels
    the chunks still queued and joins the processes.  With one worker none
    ever starts.
    """

    def __init__(self, A: Algebra, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.algebra = A
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None

    def executor(self, chunks: int) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.workers, chunks, os.cpu_count() or 1),
                initializer=_init_worker, initargs=(self.algebra,))
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _chunk_bounds(total: int, workers: int, unit: int = 1,
                  bases: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """The [start, stop) ranges a pool of ``workers`` scans, in stream order.

    Every range starts at a multiple of ``unit``: a column program's prefix
    of ``dim`` columns is never split, so no chunk counts it twice.  Given
    ``bases``, the stream indices of an orbit table's entries, the ranges
    start at entries and hold as equal counts of them as they can, since
    the canonical prefixes crowd the start of the stream.
    """
    if bases:
        n = min(len(bases), workers * _CHUNKS_PER_WORKER)
        starts = [0, *(bases[e * len(bases) // n] for e in range(1, n))]
        return list(zip(starts, [*starts[1:], total]))
    chunk = max(64, -(-total // (workers * _CHUNKS_PER_WORKER)))
    chunk = -(-chunk // unit) * unit
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def _orbits(A: Algebra, plan: dsl.Program, options: list) -> tuple | None:
    """The orbit table (:meth:`dsl.Program.orbits`) of ``plan``'s stream under
    its blocks and ``A``'s basis-permutation automorphisms, kept in
    ``A._orbits``; None where the last slot is in a block, or where the group
    is trivial or has more elements than the blocks leave scan units (the
    table would then hold more images than the scan has units).  The search
    stops after as many trials as those units have stream positions."""
    if not plan.nvars or plan.prev[-1] >= 0:
        return None
    units = math.prod(map(len, options)) // (plan.orbit * (A.dim if plan.column else 1))
    group = A.automorphisms(units * A.dim)
    if group is None or not 1 < len(group) <= units:
        return None
    key = plan.multiplicities, plan.blocks
    if key not in A._orbits:
        A._orbits[key] = plan.orbits(options, group)
    return A._orbits[key]


def _scan(A: Algebra, ast: dsl.IdentityAst, exhaustive: bool,
          pool: WorkerPool | None) -> tuple:
    """:meth:`dsl.Program.scan` of ``ast`` over its whole stream, serial or
    in ``pool``, and the stream's length."""
    plan = ast.plan
    options = [_options(A.dim, m) for m in plan.multiplicities]
    total = math.prod(map(len, options))
    width = A.dim if plan.column else 1  # stream positions per prefix
    # scan units: canonical substitutions, or canonical prefixes of dim
    # columns each; the group is sought, before any pool starts (forked
    # workers inherit it), from _PARALLEL_MIN of the blocks' units on, and
    # the pool serves programs of _PARALLEL_MIN units or more
    units = total // (plan.orbit * width)
    orbits = _orbits(A, plan, options) if units >= _PARALLEL_MIN else None
    if orbits is not None:
        units = sum(1 if plan.column else len(options[-1]) if cols is None else len(cols)
                    for _, _, cols in orbits[1])
    if pool is None or pool.workers == 1 or units < _PARALLEL_MIN:
        return (*plan.scan(A, options, 0, total, exhaustive, orbits), total)
    bounds = _chunk_bounds(total, pool.workers, width, orbits and orbits[0])
    executor = pool.executor(len(bounds))
    text = dsl.format_identity(ast)
    first, nviol, nprefixes = None, 0, 0
    futures = [executor.submit(_scan_chunk, s, e, exhaustive, text) for s, e in bounds]
    for fut in futures:  # submission order == stream order
        f, n, p = fut.result()
        nviol += n
        nprefixes += p
        if f is not None and first is None:
            first = f
            if not exhaustive:
                for later in futures:
                    later.cancel()
                break
    return first, nviol, nprefixes, total


def _substitution(A: Algebra, plan: dsl.Program, index: int) -> tuple[Vector, ...]:
    """The substitution at ``index`` of ``plan``'s stream."""
    args = []
    for m in reversed(plan.multiplicities):
        options = _options(A.dim, m)
        index, i = divmod(index, len(options))
        args.append(options[i])
    args.reverse()
    return tuple(args)


def run_check(A: Algebra, label: str, ast: dsl.IdentityAst, *,
              exhaustive: bool = False, workers: int = 1,
              pool: WorkerPool | None = None) -> CheckReport:
    """Drive one check of ``ast``, reported as ``label``, over the full stream.

    The report is a pure function of (algebra, identity, exhaustive): with
    several workers the stream is scanned in order-preserving chunks and
    ``substitutions_checked`` keeps its serial meaning.  ``pool``, a
    :class:`WorkerPool` on ``A``, scans in place of ``workers``; without
    one, a pooled check opens and closes a pool of its own.  A key that was
    scanned on ``A`` before, in the same mode, or that vanishes, is not scanned.  The
    counterexample is the substitution at the scan's first index, evaluated
    with :func:`dsl.eval_ast` (the identity's one-substitution program, not
    the staged program that scanned), for fresh and stored scans alike.
    """
    if pool is None and workers != 1:
        with WorkerPool(A, workers) as pool:  # refuses workers < 1
            return run_check(A, label, ast, exhaustive=exhaustive, pool=pool)
    if pool is not None and pool.algebra is not A:
        raise ValueError(f"the pool serves {pool.algebra.name!r}, not {A.name!r}")
    key = (ast.key, exhaustive)
    if key not in A._scans:
        # integers only, so that the stored scans add nothing for the
        # cyclic garbage collector to traverse; a vanishing key holds at
        # every substitution, so it needs no scan
        A._scans[key] = ((None, 0, 0, substitution_count(A.dim, ast.slots[1])) if ast.vanishes
                         else _scan(A, ast, exhaustive, pool))
    first, nviol, nprefixes, total = A._scans[key]
    operator = ast.level == "operator"  # one substitution per prefix; "_" is no variable
    if operator:
        total //= A.dim
    if first is None:
        return CheckReport(identity=label, algebra=A.name, holds=True,
                           substitutions_checked=total,
                           violations=0 if exhaustive else None)
    args = dict(zip(ast.variables, _substitution(A, ast.plan, first)))
    if operator:
        first, nviol = first // A.dim, nprefixes
    lhs, rhs = dsl.eval_ast(A, ast, args)
    ce = Counterexample(substitution=tuple(args.items()), left=lhs, right=rhs)
    return CheckReport(identity=label, algebra=A.name, holds=False,
                       substitutions_checked=total if exhaustive else first + 1,
                       counterexample=ce,
                       violations=nviol if exhaustive else None)


def check_builtin(A: Algebra, identity_id: str, *, exhaustive: bool = False,
                  workers: int = 1, pool: WorkerPool | None = None) -> CheckReport:
    """Exhaustively check one builtin identity on an algebra."""
    try:
        ident = BUILTIN_IDENTITIES[identity_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(BUILTIN_IDENTITIES)}"
        ) from None
    return run_check(A, ident.id, ident.ast,
                     exhaustive=exhaustive, workers=workers, pool=pool)


def check_glts(A: Algebra, *, exhaustive: bool = False,
               workers: int = 1) -> list[CheckReport]:
    """Check the six general-Lie-triple-system axioms, in (a)-(f) order,
    sharing one pool."""
    with WorkerPool(A, workers) as pool:
        return [check_builtin(A, i, exhaustive=exhaustive, pool=pool)
                for i in GLTS_AXIOM_IDS]


def check_equivalence(A: Algebra, *, workers: int = 1) -> EquivalenceReport:
    """Check maltsev and sagle-yamaguti side by side, sharing one pool.

    The two identities are classically equivalent for anticommutative
    algebras; a disagreement would be a finding, so callers should surface
    ``agree`` rather than assume it.
    """
    with WorkerPool(A, workers) as pool:
        return EquivalenceReport(
            algebra=A.name,
            maltsev=check_builtin(A, "maltsev", pool=pool),
            sagle_yamaguti=check_builtin(A, "sagle-yamaguti", pool=pool),
        )
