"""Set-up, the timed closed loop, and the metrics computed from it.

A run sets the program up (import, graph construction, warm-up), makes its
inputs from the seed, then runs passes over the workload's fixed case list
until ``seconds`` of measured time are used. Only the calls into the
program are timed; input generation and checks are not. Every case is
checked on the first pass; later passes must give the same digest.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from tracer import Tracer

_clock = time.perf_counter_ns
MAX_REPORTED_PROBLEMS = 5


@dataclass
class Program:
    """The imported pebblekit modules; every call goes through these
    attributes so the tracer can wrap them."""

    package: object
    graphs: object
    engine: object
    strategies: object
    registry: object


def import_program() -> Program:
    """Import pebblekit afresh (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "pebblekit" or m.startswith("pebblekit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pebblekit")
    mods = [importlib.import_module(f"pebblekit.{m}")
            for m in ("graphs", "engine", "strategies", "registry")]
    return Program(pkg, *mods)


def set_up(workload, tracer: Tracer | None = None):
    """Import, build the graphs and warm up; returns (env, ctx, seconds)."""
    t0 = _clock()
    env = import_program()
    if tracer is not None:
        tracer.install(env)
    ctx = workload.build(env)
    return env, ctx, (_clock() - t0) / 1e9


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    plain: list[np.ndarray] = field(default_factory=list)   # per-case ns, untraced passes
    traced: list[int] = field(default_factory=list)         # pass ns, traced passes
    windows: list[tuple] = field(default_factory=list)      # (self_ns, counts, sweeps) per traced pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(message)


def run_loop(workload, env, cases: list, seconds: float,
             tracer: Tracer | None, between=None) -> Loop:
    """Closed loop, one client: passes over ``cases`` until the measured
    time would exceed ``seconds``. With a tracer, untraced and traced
    passes alternate (at least one of each). ``between`` runs untimed
    after every pass."""
    loop = Loop()
    digests: list = [None] * len(cases)
    bad = [False] * len(cases)
    budget = seconds * 1e9
    measured = 0
    last = {False: 0, True: 0}
    run, check, digest = workload.run, workload.check, workload.digest
    while True:
        traced = tracer is not None and len(loop.plain) > len(loop.traced)
        if traced:
            tracer.reset(record=not loop.traced)
            tracer.install(env)
        times = np.zeros(len(cases), dtype=np.int64)
        first = not loop.plain and not traced
        for i, case in enumerate(cases):
            t0 = _clock()
            try:
                if traced:
                    out = tracer.span("bench.case", "bench", run, (env, case), {})
                else:
                    out = run(env, case)
            except Exception:
                times[i] = _clock() - t0
                loop.fail(f"case {i}: {traceback.format_exc(limit=3)}")
                bad[i] = True
                continue
            times[i] = _clock() - t0
            if first:
                digests[i] = digest(case, out)
                ok, message = check(case, out)
                if not ok:
                    bad[i] = True
                    loop.fail(f"case {i}: {message}")
            elif bad[i]:
                loop.fail(f"case {i}: failed on the first pass")
            elif digest(case, out) != digests[i]:
                loop.fail(f"case {i}: answer differs from the first pass")
        loop.attempted += len(cases)
        total = int(times.sum())
        measured += total
        if traced:
            tracer.uninstall()
            loop.traced.append(total)
            loop.windows.append((tracer.self_ns, tracer.counts, tracer.sweeps))
        else:
            loop.plain.append(times)
        last[traced] = total
        if between is not None:
            between()
        enough = loop.plain and (tracer is None or loop.traced)
        upcoming = tracer is not None and len(loop.plain) > len(loop.traced)
        if enough and measured + (last[upcoming] or total) > budget:
            return loop


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(loop: Loop, setup_times: list[float]) -> tuple[dict, dict]:
    """Metrics of the untraced run, and the sample counts behind them.

    A case's time is the median of its repeats (one per pass, spread over
    the run); ``case_p50_us`` and ``case_p99_us`` are taken over the cases.
    ``wall_s`` is the median time of one pass over the whole case list."""
    stack = np.vstack(loop.plain)
    per_case = np.median(stack, axis=0)
    p50, p99 = np.percentile(per_case, [50, 99])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (float(np.median(stack.sum(axis=1))) / 1e9, "s"),
        "case_p50_us": (float(p50) / 1e3, "us"),
        "case_p99_us": (float(p99) / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"setup_repeats": len(setup_times),
               "case_samples": stack.size,
               "cases_beyond_p99": int((per_case > p99).sum())}
    return metrics, samples


def per_layer(tracer: Tracer, setup_window: Counter, loop: Loop) -> dict:
    """Per-layer metrics of the traced passes: times are medians over the
    traced passes, counts are those of one pass (they must repeat)."""
    def med(layer: str) -> float:
        return statistics.median(w[0][layer] for w in loop.windows) / 1e9

    c = loop.windows[0][1]
    for w in loop.windows[1:]:
        if w[1] != c:
            loop.fail("count metrics differ between traced passes")
    rows, calls, strat = c["engine.sweep.rows"], c["engine.search.calls"], c["strategies.calls"]
    m = {
        "graphs.build_s": (setup_window["graphs"] / 1e9 + med("graphs"), "s"),
        "registry.self_s": (med("registry"), "s"),
        "registry.records": (c["registry.records"], "count"),
        "engine.sweep.levels": (c["engine.sweep.levels"], "count"),
        "engine.sweep.rows": (rows, "count"),
        "engine.sweep.enum_s": (med("engine.sweep.enum"), "s"),
        "engine.sweep.self_s": (med("engine.sweep"), "s"),
        "engine.sweep.prefilter_settled_ratio": (
            1 - c["engine.sweep.solver_calls"] / rows if rows else 0.0, "ratio"),
        "engine.search.calls": (calls, "count"),
        "engine.search.s": (med("engine.search"), "s"),
        "engine.search.dfs_nodes": (c["engine.search.dfs_nodes"], "count"),
        "engine.search.dfs_reached_ratio": (
            c["engine.search.dfs_reached"] / calls if calls else 0.0, "ratio"),
        "engine.search.unsolvable": (c["engine.search.unsolvable"], "count"),
        "engine.boundary.distribution_s": (med("engine.boundary.distribution"), "s"),
        "engine.boundary.replay_s": (med("engine.boundary.replay"), "s"),
        "engine.boundary.replay_moves": (c["engine.boundary.replay_moves"], "count"),
        "strategies.s": (med("strategies"), "s"),
        "strategies.calls": (strat, "count"),
        "strategies.moves": (c["strategies.moves"], "count"),
        "strategies.success_ratio": (c["strategies.succeeded"] / strat if strat else 0.0, "ratio"),
        "trace.overhead_s": ((statistics.median(loop.traced) - statistics.median(
            int(p.sum()) for p in loop.plain)) / 1e9, "s"),
    }
    # entry points a later version no longer has are reported as absent
    if "engine._compositions_array" not in tracer.present:
        del m["engine.sweep.enum_s"]
    if "engine._solve_counts" not in tracer.present:
        for name in ("engine.sweep.prefilter_settled_ratio", "engine.search.calls",
                     "engine.search.dfs_nodes", "engine.search.dfs_reached_ratio",
                     "engine.search.unsolvable"):
            del m[name]
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


# ---------------------------------------------------------------------------
# One run


def run(workload, seed: int, seconds: float, trace: bool, spans_dir: str) -> dict:
    """Set up, generate inputs, loop, and collect metrics and facts."""
    tracer = Tracer() if trace else None
    env, ctx, secs = set_up(workload, tracer)
    setup_times = [secs]
    if trace:
        tracer.uninstall()
        setup_window = tracer.self_ns
        between = None
    else:
        # more set-ups, spread over the run so that a slow stretch of the
        # machine does not hit them all
        def between():
            setup_times.append(set_up(workload)[2])
    cases = workload.prepare(ctx, workload.inputs(ctx, seed))
    loop = run_loop(workload, env, cases, seconds, tracer, between)

    facts = machine_facts()
    facts.update({"pebblekit": env.package.__version__, "workload": workload.name,
                  "seed": seed if workload.seeded else f"{seed} (unused)",
                  "cases_per_pass": len(cases), "untraced_passes": len(loop.plain),
                  "traced_passes": len(loop.traced)})
    sweeps = []
    if trace:
        metrics = per_layer(tracer, setup_window, loop)
        sweeps = loop.windows[0][2]
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"spans-{workload.name}-seed{seed}.tsv")
        tracer.write_spans(path)
        facts["spans"] = f"{len(tracer.spans)} written to {os.path.relpath(path)}"
    else:
        metrics, samples = end_to_end(loop, setup_times)
        facts.update(samples)
    return {"metrics": metrics, "facts": facts, "sweeps": sweeps, "loop": loop}
