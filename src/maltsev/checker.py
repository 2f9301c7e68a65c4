"""Exhaustive identity checking over polarization substitutions.

For a variable occurring at most m times in any additive term of an
identity, it suffices (over a field of characteristic 0) to substitute all
sums of up to m distinct basis vectors; the cartesian product of these
option lists over all variables is the substitution stream.  A check holds
iff both sides agree exactly on every substitution; the reported
counterexample is always the first one in stream order, independent of the
worker count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

from .core import Algebra, Operator, Vector, format_rational
from .identities import BUILTIN_IDENTITIES, GLTS_AXIOM_IDS

# A task names what is being checked in a picklable way so that worker
# processes can re-resolve it: ("builtin", id) or ("dsl", identity text).
Task = tuple[str, str]

_PARALLEL_MIN = 256  # below this many substitutions, workers are pure overhead
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


def substitution_stream(dim: int, multiplicities: Sequence[int]) -> Iterator[tuple[Vector, ...]]:
    """Cartesian product of per-variable options, last variable fastest."""
    return product(*[substitution_options(dim, m) for m in multiplicities])


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


def _resolve_task(task: Task):
    """Return (label, variables, multiplicities, evaluate, report_scale)."""
    kind, payload = task
    if kind == "builtin":
        try:
            ident = BUILTIN_IDENTITIES[payload]
        except KeyError:
            raise UnknownIdentityError(
                f"unknown identity {payload!r}; known: {', '.join(BUILTIN_IDENTITIES)}"
            ) from None
        return ident.id, ident.variables, ident.multiplicities, ident.evaluate, ident.report_scale
    if kind == "dsl":
        from . import dsl  # local import: dsl depends on this module

        ast = dsl.parse_identity(payload)
        label = dsl.format_identity(ast)

        def evaluate(A, args):
            return dsl.eval_ast(A, ast, dict(zip(ast.variables, args)))

        return label, ast.variables, ast.multiplicities, evaluate, 1
    raise ValueError(f"unknown task kind {kind!r}")


def _decode_substitution(option_lists, index):
    args = []
    for opts in reversed(option_lists):
        index, r = divmod(index, len(opts))
        args.append(opts[r])
    return tuple(reversed(args))


def _scan_chunk(A: Algebra, task: Task, start: int, stop: int,
                exhaustive: bool) -> tuple[int | None, int]:
    """Pool entry point: resolve ``task`` in the worker, then :func:`_scan`."""
    return _scan(A, _resolve_task(task), start, stop, exhaustive)


def _scan(A: Algebra, resolved, start: int, stop: int,
          exhaustive: bool) -> tuple[int | None, int]:
    """Scan substitutions [start, stop); return (first violating index, count)."""
    _, _, multiplicities, evaluate, _ = resolved
    option_lists = [substitution_options(A.dim, m) for m in multiplicities]
    first = None
    nviol = 0
    for idx in range(start, stop):
        args = _decode_substitution(option_lists, idx)
        lhs, rhs = evaluate(A, args)
        if lhs != rhs:
            if first is None:
                first = idx
            nviol += 1
            if not exhaustive:
                break
    return first, nviol


def _report_for(A: Algebra, resolved, first: int | None, nviol: int,
                total: int, exhaustive: bool) -> CheckReport:
    label, variables, multiplicities, evaluate, report_scale = resolved
    if first is None:
        return CheckReport(identity=label, algebra=A.name, holds=True,
                           substitutions_checked=total,
                           violations=0 if exhaustive else None)
    option_lists = [substitution_options(A.dim, m) for m in multiplicities]
    args = _decode_substitution(option_lists, first)
    lhs, rhs = evaluate(A, args)
    if report_scale != 1:
        lhs = report_scale * lhs
        rhs = report_scale * rhs
    ce = Counterexample(substitution=tuple(zip(variables, args)), left=lhs, right=rhs)
    return CheckReport(identity=label, algebra=A.name, holds=False,
                       substitutions_checked=total if exhaustive else first + 1,
                       counterexample=ce,
                       violations=nviol if exhaustive else None)


def run_check(A: Algebra, task: Task, *, exhaustive: bool = False,
              workers: int = 1) -> CheckReport:
    """Drive one identity check over the full substitution stream.

    The report is a pure function of (algebra, task, exhaustive): with
    several workers the stream is scanned in order-preserving chunks and
    ``substitutions_checked`` keeps its serial meaning.  The pool never has
    more processes than chunks or than ``os.cpu_count()``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    resolved = _resolve_task(task)
    _, _, multiplicities, _, _ = resolved
    total = substitution_count(A.dim, multiplicities)
    if workers == 1 or total < _PARALLEL_MIN:
        first, nviol = _scan(A, resolved, 0, total, exhaustive)
        return _report_for(A, resolved, first, nviol, total, exhaustive)

    chunk = max(64, -(-total // (workers * _CHUNKS_PER_WORKER)))
    bounds = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    first = None
    nviol = 0
    processes = min(workers, len(bounds), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [pool.submit(_scan_chunk, A, task, s, e, exhaustive)
                   for s, e in bounds]
        for fut in futures:  # submission order == stream order
            f, n = fut.result()
            nviol += n
            if f is not None and first is None:
                first = f
                if not exhaustive:
                    for later in futures:
                        later.cancel()
                    break
    return _report_for(A, resolved, first, nviol, total, exhaustive)


def check_builtin(A: Algebra, identity_id: str, *, exhaustive: bool = False,
                  workers: int = 1) -> CheckReport:
    """Exhaustively check one builtin identity on an algebra."""
    if identity_id not in BUILTIN_IDENTITIES:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(BUILTIN_IDENTITIES)}")
    return run_check(A, ("builtin", identity_id), exhaustive=exhaustive, workers=workers)


def check_glts(A: Algebra, *, exhaustive: bool = False,
               workers: int = 1) -> list[CheckReport]:
    """Check the six general-Lie-triple-system axioms, in (a)-(f) order."""
    return [check_builtin(A, i, exhaustive=exhaustive, workers=workers)
            for i in GLTS_AXIOM_IDS]


def check_equivalence(A: Algebra, *, workers: int = 1) -> EquivalenceReport:
    """Check maltsev and sagle-yamaguti side by side.

    The two identities are classically equivalent for anticommutative
    algebras; a disagreement would be a finding, so callers should surface
    ``agree`` rather than assume it.
    """
    return EquivalenceReport(
        algebra=A.name,
        maltsev=check_builtin(A, "maltsev", workers=workers),
        sagle_yamaguti=check_builtin(A, "sagle-yamaguti", workers=workers),
    )
