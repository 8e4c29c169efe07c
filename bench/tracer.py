"""Spans around the calls into each pebblekit layer, recorded from outside.

The tracer replaces module attributes of the imported program with
wrappers (and puts the originals back on ``uninstall``), so nothing under
``src/`` changes. Every wrapper records a span (id, parent id, name, start,
end) in memory, charges the span's self time (its duration minus the time
its child spans cover) to its layer, and updates exact counters from the
call's arguments and result. The spans are written out once, when the run
ends.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Optional

_clock = time.perf_counter_ns

_GRAPH_BUILDERS = ("path", "cycle", "complete", "middle_graph", "delete_vertices",
                   "cartesian_product", "middle_cycle", "trimmed_middle_path")
_STRATEGIES = ("middle_cycle_t_strategy", "middle_path_strategy",
               "product_collection_strategy")
# Entry points without a public form; a later version may remove them, in
# which case they are skipped and their metrics are reported as absent.
_OPTIONAL = {("engine", "_compositions_array"), ("engine", "_solve_counts")}


class Tracer:
    """In-memory spans, per-layer self time and exact counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.record = True
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.sweeps: list[tuple[str, Counter]] = []
        self.present: set[str] = set()
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def reset(self, record: bool) -> None:
        """Start a new measurement window (one set-up or one pass). Spans
        are kept only while ``record`` is set."""
        self.self_ns = Counter()
        self.counts = Counter()
        self.sweeps = []
        self.record = record

    def span(self, name: str, layer: str, fn: Callable, args, kwargs,
             hook: Optional[Callable] = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0]
        self._stack.append(frame)
        before = Counter(self.counts) if name == "engine.compute_pebbling" else None
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            dur = end - start
            self.self_ns[layer] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if self.record:
                self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        if hook is not None:
            hook(self, args, kwargs, result, parent[1] if parent else None)
        if before is not None:
            # per-call counts, so single computations can be compared
            # against their published baselines
            self.sweeps.append((_describe_sweep(args, kwargs, result),
                                self.counts - before))
        return result

    def _wrap(self, name: str, layer: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, args, kwargs, hook)
        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, module.__dict__[attr]))
        setattr(module, attr, value)

    def install(self, env) -> None:
        """Wrap the layer entry points of the imported program ``env``. A
        function is replaced in every module that imported it by name,
        because calls resolve through the caller's module globals."""
        mods = {"graphs": env.graphs, "engine": env.engine,
                "strategies": env.strategies, "registry": env.registry}

        def wrap(layer: str, home: str, attr: str, hook=None, also=()) -> None:
            if attr not in mods[home].__dict__:
                if (home, attr) in _OPTIONAL:
                    return
                raise AttributeError(f"pebblekit.{home} has no {attr}")
            self.present.add(f"{home}.{attr}")
            fn = self._wrap(f"{home}.{attr}", layer, mods[home].__dict__[attr], hook)
            for name in (home,) + tuple(also):
                if attr in mods[name].__dict__:
                    self._patch(mods[name], attr, fn)

        for attr in _GRAPH_BUILDERS:
            wrap("graphs", "graphs", attr, also=("registry", "strategies"))
        wrap("registry", "registry", "check_claim", _count_records)
        wrap("registry", "registry", "check_graham", _count_records)
        wrap("engine.sweep", "engine", "compute_pebbling", also=("registry",))
        wrap("engine.sweep", "engine", "sweep_level", _count_level)
        wrap("engine.sweep.enum", "engine", "_compositions_array")
        wrap("engine.search", "engine", "_solve_counts", _count_solve)
        wrap("engine.search", "engine", "is_solvable")
        wrap("engine.boundary.replay", "engine", "replay", _count_replay)
        for attr in _STRATEGIES:
            wrap("strategies", "strategies", attr, _count_strategy)

        cls = env.engine.Distribution
        original = cls.__dict__["from_vector"]
        inner = self._wrap("engine.Distribution.from_vector",
                           "engine.boundary.distribution", original.__func__, None)
        self._patch(cls, "from_vector", classmethod(inner))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, value = self._patched.pop()
            setattr(obj, attr, value)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def _describe_sweep(args, kwargs, result) -> str:
    g = args[0]
    targets = args[1] if len(args) > 1 else kwargs.get("targets")
    t = args[2] if len(args) > 2 else kwargs.get("t", 1)
    where = "all" if targets is None else ",".join(str(x) for x in targets)
    return f"|V|={g.n} |E|={g.m} t={t} targets={where} value={result.value}"


# -- counter hooks ------------------------------------------------------------
# Each receives (tracer, args, kwargs, result, name of the parent span).


def _count_records(tr, args, kwargs, result, parent):
    tr.counts["registry.records"] += len(result) if isinstance(result, list) else 1


def _count_level(tr, args, kwargs, result, parent):
    tr.counts["engine.sweep.levels"] += 1
    tr.counts["engine.sweep.rows"] += result.checked


def _count_solve(tr, args, kwargs, result, parent):
    ok, _, nodes = result
    c = tr.counts
    c["engine.search.calls"] += 1
    c["engine.search.dfs_nodes"] += nodes
    c["engine.search.dfs_reached"] += nodes > 0
    c["engine.search.unsolvable"] += not ok
    if parent == "engine.sweep_level":
        c["engine.sweep.solver_calls"] += 1


def _count_replay(tr, args, kwargs, result, parent):
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    tr.counts["engine.boundary.replay_moves"] += len(seq)


def _count_strategy(tr, args, kwargs, result, parent):
    # nested calls (the product strategy solving inside fibers) re-emit
    # their moves in the outer sequence, so only calls made by the
    # benchmark itself are counted
    if parent is not None and parent.startswith("strategies."):
        return
    c = tr.counts
    c["strategies.calls"] += 1
    c["strategies.moves"] += len(result.sequence)
    c["strategies.succeeded"] += bool(result.succeeded)
