#!/usr/bin/env python3
"""Benchmark for maltsev: end-to-end check timings or a traced per-layer run.

    python3 perfbench/run.py --workload m7-suite --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one caller: the next check starts when the
previous one returns, and whole passes over the workload repeat until
``--seconds`` have elapsed (at least one pass).  Set-up (a fresh import of
maltsev plus building the workload's inputs) is repeated before and between
the passes and its median reported.  Every report is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` the untraced passes run first, then one
traced set-up and pass gives the per-layer metrics (see ``tracing.py``); on
m7-dense-dsl the pool metrics come from the parent side of the 2-worker pass
and every other count from a 1-worker traced pass, because forked workers
keep their spans.  Each traced run writes its spans to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing, workloads  # noqa: E402

SETUP_REPEATS = 3  # before the first pass; one more follows every pass
HOT_IDENTITIES = ("glts-f", "ternary-derivation", "hidden-assoc-operator")


def _set_up(workload: str, seed: int, size: str, setup_s: list[float]):
    gc.collect()  # the previous set-up's modules are garbage now
    start = time.perf_counter()
    m = workloads.fresh_import()
    inputs = workloads.set_up(workload, seed, size, m)
    setup_s.append(time.perf_counter() - start)
    return m, inputs


def _measure(workload: str, seed: int, size: str, seconds: float, golden: dict):
    """Set up and run passes until ``seconds`` have elapsed.

    A warm-up set-up comes first: it leaves compiled bytecode behind, which
    users do not pay for on every run.  Then set-ups are timed before the
    first pass and after every pass, so that their median samples the whole
    run rather than one moment of the host's load.  Each pass uses the
    modules and inputs of the set-up just before it.
    """
    setup_s: list[float] = []
    _set_up(workload, seed, size, [])
    for _ in range(SETUP_REPEATS):
        m, inputs = _set_up(workload, seed, size, setup_s)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(inputs, m, golden))
        m, inputs = _set_up(workload, seed, size, setup_s)
    return statistics.median(setup_s), passes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(passes, setup_s: float) -> dict:
    # A check is short next to the spells in which other tenants of a shared
    # host slow the machine, and they only ever add time, so each check
    # counts with its fastest run (every pass runs the same checks in order).
    check_ms = [min(times) * 1e3 for times in zip(*(p.check_s for p in passes))]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "subs_per_s": _metric(sum(p.subs for p in passes)
                              / sum(p.wall_s for p in passes), "1/s"),
        "check_ms.p50": _metric(statistics.median(check_ms), "ms"),
        "cpu_s": _metric(statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mib": _metric(max(own, children) / 1024, "MiB"),
    }


def _traced_pass(workload: str, seed: int, size: str, golden: dict,
                 workers: int | None = None):
    tracer = tracing.Tracer()
    m = workloads.fresh_import()
    tracing.install(tracer, m)
    inputs = workloads.set_up(workload, seed, size, m)
    return tracer, workloads.run_pass(inputs, m, golden, workers=workers)


def _per_layer(layers: tracing.Tracer, pool: tracing.Tracer, overhead: float) -> dict:
    out = {}
    for name in tracing.CORE_PRIMITIVES:
        out[f"core.{name}.calls"] = _metric(layers.calls(f"core.{name}"), "count")
        out[f"core.{name}.self_s"] = _metric(layers.self_s(f"core.{name}"), "s")
    evals = [n for n in layers.totals if n.startswith("identities.eval:")]
    out["identities.eval.calls"] = _metric(sum(layers.calls(n) for n in evals), "count")
    out["identities.eval.self_s"] = _metric(sum(layers.self_s(n) for n in evals), "s")
    for ident in HOT_IDENTITIES:
        name = f"identities.eval:{ident}"
        calls = layers.calls(name)
        out[f"identities.{ident}.us_per_sub"] = _metric(
            layers.inclusive_s(name) / calls * 1e6 if calls else 0.0, "us")
    out["dsl.eval.calls"] = _metric(layers.calls("dsl.eval"), "count")
    out["dsl.eval.self_s"] = _metric(layers.self_s("dsl.eval"), "s")
    out["dsl.parse.calls"] = _metric(layers.calls("dsl.parse"), "count")
    out["dsl.parse_s"] = _metric(layers.inclusive_s("dsl.parse"), "s")
    out["checker.run_check.calls"] = _metric(layers.calls("checker.run_check"), "count")
    out["checker.self_s"] = _metric(layers.self_s("checker.run_check"), "s")
    out["checker.options.calls"] = _metric(layers.calls("checker.options"), "count")
    out["checker.options_s"] = _metric(layers.inclusive_s("checker.options"), "s")
    out["core.algebra.calls"] = _metric(layers.calls("core.algebra"), "count")
    out["core.algebra_s"] = _metric(layers.inclusive_s("core.algebra"), "s")
    subs = int(layers.counters.get("checker.subs", 0))
    evaluated = out["identities.eval.calls"]["value"] + out["dsl.eval.calls"]["value"]
    out["checker.subs"] = _metric(subs, "count")
    out["checker.evals_per_sub"] = _metric(evaluated / subs if subs else 0.0, "ratio")
    out["checker.pool.chunks"] = _metric(int(pool.counters.get("checker.pool.chunks", 0)),
                                         "count")
    out["checker.pool.cancelled"] = _metric(
        int(pool.counters.get("checker.pool.cancelled", 0)), "count")
    out["checker.pool.wait_s"] = _metric(pool.inclusive_s("checker.pool.wait"), "s")
    out["checker.pool.start_s"] = _metric(pool.inclusive_s("checker.pool.start"), "s")
    out["catalog.load.calls"] = _metric(layers.calls("catalog.load"), "count")
    out["catalog.load_s"] = _metric(layers.inclusive_s("catalog.load"), "s")
    out["cli.report_s"] = _metric(layers.inclusive_s("cli.report"), "s")
    out["cli.report_bytes"] = _metric(int(layers.counters.get("cli.report_bytes", 0)), "B")
    out["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        size: str = "full", golden: dict | None = None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    golden = workloads.GOLDEN if golden is None else golden
    setup_s, passes = _measure(workload, seed, size, seconds, golden)
    untraced_wall = statistics.median(p.wall_s for p in passes)
    if not trace:
        metrics = _end_to_end(passes, setup_s)
    else:
        tracer, traced = _traced_pass(workload, seed, size, golden)
        passes.append(traced)
        pool_tracer = tracer
        sources = {"all": "the traced pass"}
        if workload == "m7-dense-dsl":
            tracer, serial = _traced_pass(workload, seed, size, golden, workers=1)
            passes.append(serial)
            sources = {"checker.pool.*": f"{workloads.DENSE_WORKERS}-worker traced pass, "
                                         "parent process only",
                       "all others": "1-worker traced pass"}
        metrics = _per_layer(tracer, pool_tracer, traced.wall_s / untraced_wall)
        workloads.OUT.mkdir(exist_ok=True)
        path = workloads.OUT / f"trace-{workload}-{seed}-{size}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed, "sources": sources,
                                    "layers": tracer.to_dict(), "pool": pool_tracer.to_dict(),
                                    "metrics": metrics}, indent=1), encoding="utf-8")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
