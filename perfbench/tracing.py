"""Spans around calls into the maltsev layers, installed from outside.

Each maltsev module binds its own reference to the functions it calls
(``maltsev.core.bracket``, ``maltsev.identities.bracket``,
``maltsev.dsl.bracket``, ...), so a function is wrapped once and the wrapper
is written into every module namespace that holds the original object.
Builtin identity evaluators are replaced through ``dataclasses.replace``,
``Algebra`` construction through ``Algebra.__init__``, and the checker's
process pool through ``maltsev.checker.ProcessPoolExecutor``.

Hot spans (the core primitives, evaluators and option lists run millions
of times on m7) are folded into per-name totals as they close, so memory
stays bounded; the coarse spans (checks, parses, loads, pool waits) are also
kept as records with their parent.  Self time is a span's duration minus the
time its child spans cover.  Pool workers are forked with the wrappers in
place, but their spans stay in the worker and are lost.
"""
from __future__ import annotations

import dataclasses
import functools
import time
import types

CORE_PRIMITIVES = ("bracket", "yamaguti", "left_translation",
                    "sixfold_yamagutian", "operator_commutator")
_COARSE = ("checker.run_check", "checker.pool.start", "checker.pool.wait",
           "dsl.parse", "catalog.load", "cli.report")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds, record index]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: list[dict] = []  # coarse spans, in start order
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so every call is a span called ``name``."""
        stack, totals, spans = self.stack, self.totals, self.spans
        coarse = name in _COARSE
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = None
            if coarse:
                record = len(spans)
                spans.append({"name": name,
                              "parent": stack[-1][2] if stack else None})
            frame = [name, 0.0, record]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record is not None:
                    spans[record]["start"] = start
                    spans[record]["end"] = end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def to_dict(self) -> dict:
        return {
            "totals": {n: {"calls": c, "inclusive_s": t, "self_s": s}
                       for n, (c, t, s) in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }


def _rebind(mods, original, wrapper) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer, m) -> None:
    """Wrap the public names of one freshly imported set of maltsev modules.

    ``m`` holds the modules as attributes: core, identities, dsl, checker,
    catalog and cli.
    """
    mods = (m.core, m.identities, m.dsl, m.checker, m.catalog, m.cli)
    for name in CORE_PRIMITIVES:
        original = getattr(m.core, name)
        _rebind(mods, original, tracer.span(f"core.{name}", original))
    wrapped = [
        (m.dsl, "eval_ast", "dsl.eval"),
        (m.dsl, "parse_identity", "dsl.parse"),
        (m.checker, "substitution_options", "checker.options"),
        (m.catalog, "load_algebra", "catalog.load"),
    ]
    for home, attr, span_name in wrapped:
        original = getattr(home, attr)
        _rebind(mods, original, tracer.span(span_name, original))

    def count_subs(report):
        tracer.count("checker.subs", report.substitutions_checked)

    original = m.checker.run_check
    _rebind(mods, original, tracer.span("checker.run_check", original, count_subs))

    m.core.Algebra.__init__ = tracer.span("core.algebra", m.core.Algebra.__init__)
    m.checker.CheckReport.to_dict = tracer.span(
        "cli.report", m.checker.CheckReport.to_dict)

    registry = m.identities.BUILTIN_IDENTITIES
    for ident_id, ident in list(registry.items()):
        registry[ident_id] = dataclasses.replace(
            ident, evaluate=tracer.span(f"identities.eval:{ident_id}", ident.evaluate))

    m.cli.json = _traced_json(tracer, m.cli.json)
    m.checker.ProcessPoolExecutor = _traced_pool(tracer, m.checker.ProcessPoolExecutor)


def _traced_json(tracer: Tracer, json_module):
    """A stand-in for the ``json`` module that times and sizes ``dumps``."""
    def count_bytes(text):
        tracer.count("cli.report_bytes", len(text.encode("utf-8")))

    namespace = types.SimpleNamespace(**vars(json_module))
    namespace.dumps = tracer.span("cli.report", json_module.dumps, count_bytes)
    return namespace


def _traced_pool(tracer: Tracer, base):
    """``base`` with pool creation, chunk submission and result waits timed.

    ``checker.pool.start`` covers creating the pool and submitting chunks;
    ``checker.pool.wait`` covers blocking on results and on shutdown.
    """

    class TracedFuture:
        def __init__(self, future):
            self._future = future
            self.result = tracer.span("checker.pool.wait", future.result)

        def cancel(self):
            cancelled = self._future.cancel()
            if cancelled:
                tracer.count("checker.pool.cancelled")
            return cancelled

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.span("checker.pool.start", super().__init__)(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.count("checker.pool.chunks")
            submit = tracer.span("checker.pool.start", super().submit)
            return TracedFuture(submit(fn, *args, **kwargs))

        def shutdown(self, *args, **kwargs):
            return tracer.span("checker.pool.wait", super().shutdown)(*args, **kwargs)

    return TracedPool
