"""Pebble distributions, moves, and the exact solvability search.

The solver decides t-solvability by depth-first search over distributions
with a transposition table, after a stack of cheap checks: target already
covered, a single vertex rich enough to pay the full 2^d toll, a greedy
run, and the exact-rational potential cutoff. The search runs on an
explicit stack, so no input can exhaust Python's recursion limit. States
are count vectors packed into ints, and every move carries precomputed
changes to the packed key and to the potential, so a search node costs a
few integer operations instead of rebuilding either from the vector.

Pebbling and t-pebbling numbers come from a dynamic program over the
unsolvable distributions, not from the solver. They form a down-set
(removing a pebble never makes a distribution solvable), so for every
unsolvable c of size k, c minus one pebble on top(c), its highest-index
vertex holding a pebble, is unsolvable of size k-1. Level k's candidates
are therefore u + e_v for u in U_{k-1} and v >= top(u): each is generated
exactly once, from that one parent, with no set to deduplicate. A
candidate is unsolvable iff it holds fewer than t pebbles on the target
and every legal move, including moves out of the target, lands in
U_{k-1}. The first empty level is f_t(G, target), and the colex-first
member of the last non-empty level is the witness. The work, and what a
``Budget`` is charged (one node per candidate; ``distributions_checked``
counts the candidates), scales with the unsolvable set rather than with
the C(k+n-1, n-1) distributions of a level. Over several targets, the DP
runs once per orbit under the graph's automorphisms, and only when a
vertex permutation taking one target to another has been found and
checked against the edge set are the two merged; the count of candidates
and the budget then cover the representatives only. ``sweep_level`` still
classifies a single level by enumeration and the solver; tests use it as
the reference.

All arithmetic that feeds a pruning decision is exact integer arithmetic;
no floating point is involved anywhere in the search.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import (BudgetExceeded, DisconnectedGraph, InsufficientPebbles,
                     InvalidParameter, NotAdjacent, UnknownVertex)
from .graphs import Graph, VertexLabel, parse_label, target_orbits

# ---------------------------------------------------------------------------
# Distributions and moves


class Distribution:
    """Non-negative pebble counts on vertices; zero counts are omitted."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: dict[VertexLabel, int] | None = None):
        clean: dict[VertexLabel, int] = {}
        for lab, c in (counts or {}).items():
            if c < 0:
                raise InvalidParameter(f"negative pebble count on {lab}")
            if c > 0:
                clean[lab] = c
        self.counts = clean
        self.total = sum(clean.values())

    def get(self, lab: VertexLabel) -> int:
        return self.counts.get(lab, 0)

    def vector(self, g: Graph) -> list[int]:
        vec = [0] * g.n
        for lab, c in self.counts.items():
            vec[g.index_of(lab)] = c
        return vec

    @classmethod
    def from_vector(cls, g: Graph, vec: Sequence[int]) -> "Distribution":
        return cls({g.vertices[i]: int(c) for i, c in enumerate(vec) if c})

    def adding(self, lab: VertexLabel, k: int = 1) -> "Distribution":
        new = dict(self.counts)
        new[lab] = new.get(lab, 0) + k
        return Distribution(new)

    def to_json_dict(self) -> dict:
        return {"counts": {str(lab): c for lab, c in sorted(
            self.counts.items(), key=lambda kv: str(kv[0]))}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Distribution":
        return cls({parse_label(s): int(c) for s, c in data["counts"].items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.counts == other.counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab}:{c}" for lab, c in sorted(
            self.counts.items(), key=lambda kv: str(kv[0])))
        return f"Distribution({{{inner}}}, total={self.total})"


@dataclass(frozen=True)
class Move:
    """One pebbling move: two pebbles leave ``src``, one lands on ``dst``."""

    src: VertexLabel
    dst: VertexLabel

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst}"


class MoveSequence:
    """An ordered, replayable list of pebbling moves."""

    __slots__ = ("moves",)

    def __init__(self, moves: Sequence[Move] = ()):
        self.moves = tuple(moves)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __eq__(self, other) -> bool:
        return isinstance(other, MoveSequence) and self.moves == other.moves

    def to_json_list(self) -> list:
        return [[str(m.src), str(m.dst)] for m in self.moves]

    @classmethod
    def from_json_list(cls, data: list) -> "MoveSequence":
        return cls([Move(parse_label(a), parse_label(b)) for a, b in data])

    def __repr__(self) -> str:
        return f"MoveSequence({len(self.moves)} moves)"


def apply_move(g: Graph, d: Distribution, m: Move) -> Distribution:
    """Apply one move: src loses 2, dst gains 1, total drops by exactly 1."""
    a, b = g.index_of(m.src), g.index_of(m.dst)
    if not g.has_edge(a, b):
        raise NotAdjacent(f"{m.src} and {m.dst} are not adjacent")
    if d.get(m.src) < 2:
        raise InsufficientPebbles(f"{m.src} holds {d.get(m.src)} pebbles, need 2")
    new = dict(d.counts)
    new[m.src] -= 2
    new[m.dst] = new.get(m.dst, 0) + 1
    return Distribution(new)


def replay(g: Graph, d: Distribution, seq: MoveSequence) -> Distribution:
    """Replay a move sequence from d, validating every step."""
    cur = d
    for m in seq:
        cur = apply_move(g, cur, m)
    return cur


# ---------------------------------------------------------------------------
# Potential


def potential(g: Graph, d: Distribution, target: VertexLabel) -> Fraction:
    """Sum of p(v) * 2^-dist(v, target), exactly.

    Non-increasing under pebbling moves, so a value below t certifies that
    the distribution is not t-solvable for the target.
    """
    ti = g.index_of(target)
    dist = g.distances_from(ti)
    ecc = max(dist)
    num = 0
    for lab, c in d.counts.items():
        num += c << (ecc - dist[g.index_of(lab)])
    return Fraction(num, 1 << ecc)


# ---------------------------------------------------------------------------
# Budgets


DEFAULT_NODE_BUDGET = 5_000_000
NODE_BUDGET_ENV = "PEBBLEKIT_NODE_BUDGET"
TIME_BUDGET_ENV = "PEBBLEKIT_TIME_BUDGET"


class Budget:
    """Caps on explored nodes and wall time; exhaustion raises, never guesses."""

    __slots__ = ("node_cap", "deadline", "nodes", "t0")

    def __init__(self, node_cap: Optional[int] = None, seconds: Optional[float] = None):
        self.node_cap = node_cap
        self.t0 = time.monotonic()
        self.deadline = self.t0 + seconds if seconds else None
        self.nodes = 0

    @classmethod
    def from_env(cls) -> "Budget":
        nodes = int(os.environ.get(NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET))
        seconds = os.environ.get(TIME_BUDGET_ENV)
        return cls(nodes, float(seconds) if seconds else None)

    def charge(self, n: int = 1) -> None:
        self.nodes += n
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise BudgetExceeded(f"node budget of {self.node_cap} exhausted",
                                 nodes_explored=self.nodes,
                                 elapsed=time.monotonic() - self.t0)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted",
                                 nodes_explored=self.nodes,
                                 elapsed=time.monotonic() - self.t0)


# ---------------------------------------------------------------------------
# Core solver (index/array form)


@dataclass
class SolveOutcome:
    solvable: bool
    witness: Optional[MoveSequence]
    nodes_explored: int


def _next_hop(g: Graph, dist: Sequence[int], v: int) -> int:
    # deterministic: smallest-index neighbor strictly closer to the target
    for w in g.neighbors[v]:
        if dist[w] == dist[v] - 1:
            return w
    raise AssertionError("BFS distances inconsistent")


def _push_half(counts: list[int], a: int, b: int,
               moves: list[tuple[int, int]]) -> int:
    """Move the floor-half of a's pile one step to b: floor(p/2) moves a -> b.
    Mutates counts and moves; returns the number of pebbles that arrive."""
    k = counts[a] // 2
    if k:
        counts[a] -= 2 * k
        counts[b] += k
        moves.extend([(a, b)] * k)
    return k


def _drain_route(g: Graph, counts: list[int], dist: Sequence[int],
                 v: int, moves: list[tuple[int, int]]) -> None:
    """Push floor-halves of v's pile step by step toward the target,
    absorbing whatever lies on the route. Mutates counts and moves."""
    cur = v
    while dist[cur] > 0:
        nxt = _next_hop(g, dist, cur)
        if not _push_half(counts, cur, nxt, moves):
            return
        cur = nxt


def _greedy_counts(g: Graph, counts: list[int], target: int, t: int,
                   dist: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Richest-vertex-first greedy; mutates counts. None means inconclusive."""
    moves: list[tuple[int, int]] = []
    while counts[target] < t:
        best = -1
        best_key = None
        for v in range(len(counts)):
            if v != target and counts[v] >= 2:
                key = (counts[v], -dist[v], -v)
                if best_key is None or key > best_key:
                    best_key = key
                    best = v
        if best < 0:
            return None
        nxt = _next_hop(g, dist, best)
        counts[best] -= 2
        counts[nxt] += 1
        moves.append((best, nxt))
    return moves


def _solve_counts(g: Graph, counts: list[int], target: int, t: int,
                  budget: Optional[Budget]) -> tuple[bool, Optional[list[tuple[int, int]]], int]:
    """Exact t-solvability on a count vector. Returns (solvable, moves, nodes)."""
    if counts[target] >= t:
        return True, [], 0
    dist = g.distances_from(target)
    ecc = max(dist)
    goal = t << ecc
    weights = [1 << (ecc - d) for d in dist]

    # single rich vertex
    for v, c in enumerate(counts):
        if v != target and c >> dist[v] >= t - counts[target]:
            work = list(counts)
            moves: list[tuple[int, int]] = []
            _drain_route(g, work, dist, v, moves)
            if work[target] >= t:
                return True, moves, 0

    # greedy
    work = list(counts)
    greedy = _greedy_counts(g, work, target, t, dist)
    if greedy is not None:
        return True, greedy, 0

    # potential cutoff: below t means provably unsolvable
    pot = sum(c * w for c, w in zip(counts, weights))
    if pot < goal:
        return False, None, 0

    # memoized depth-first search with an explicit stack, so its depth (the
    # length of a witness) is not bounded by Python's recursion limit. A
    # state is its count vector packed into an int, with bits per vertex
    # enough for the total, which no move increases. Each move a -> b
    # carries its change to the key and to the potential, so a child costs
    # one subtraction each. A child that covers the target ends the search,
    # a child known to fail is skipped, and every other child is one node,
    # charged to the budget before its potential is checked.
    n = len(counts)
    bits = sum(counts).bit_length()
    out: list[Optional[list[tuple]]] = [None] * n  # moves from each vertex

    def moves_from(a: int) -> list[tuple]:
        """Moves a -> b in the order (dist[b]-dist[a], b), built on first use.
        Each starts with its rank, which orders the moves of all sources by
        (dist[b]-dist[a], a, b)."""
        da, ka, pa = dist[a] - 1, 2 << bits * a, 2 * weights[a]
        out[a] = [(((dist[b] - da) * n + a) * n + b, a, b, b == target,
                   ka - (1 << bits * b), pa - weights[b])
                  for b in sorted(g.neighbors[a], key=dist.__getitem__)]
        return out[a]

    sources = [a for a in range(n) if a != target]
    cnt = list(counts)
    count_of = cnt.__getitem__

    def children() -> Iterator[tuple]:
        """Legal moves in the order (-cnt[a], dist[b]-dist[a], a, b): richer
        sources first, and moves from equally rich sources by rank."""
        srcs = [a for a in sources if cnt[a] >= 2]
        if len(srcs) == 1:
            return iter(out[srcs[0]] or moves_from(srcs[0]))
        srcs.sort(key=count_of, reverse=True)
        cand: list[tuple] = []
        for _, tied in groupby(srcs, count_of):
            tied = [out[a] or moves_from(a) for a in tied]
            cand += tied[0] if len(tied) == 1 else sorted([m for ms in tied for m in ms])
        return iter(cand)

    key = sum(c << bits * v for v, c in enumerate(counts))  # the root: node 1
    failed: set[int] = set()
    nodes = 1
    if budget is not None:
        budget.charge()
    path: list[tuple[int, int]] = []
    stack = [(key, pot, children())]
    while stack:
        key, pot, todo = stack[-1]
        for _, a, b, hit, dkey, dpot in todo:
            if hit and cnt[target] + 1 >= t:
                path.append((a, b))
                return True, path, nodes
            child = key - dkey
            if child in failed:
                continue
            nodes += 1
            if budget is not None:
                budget.charge()
            if pot - dpot < goal:
                failed.add(child)
                continue
            cnt[a] -= 2
            cnt[b] += 1
            path.append((a, b))
            stack.append((child, pot - dpot, children()))
            break
        else:
            failed.add(key)
            stack.pop()
            if path:
                a, b = path.pop()
                cnt[a] += 2
                cnt[b] -= 1
    return False, None, nodes


def _reach(g: Graph, ti: int) -> tuple[int, ...]:
    """Distances from the target. Raises DisconnectedGraph when some vertex
    is out of its reach: the search's shortcuts and the pebbling-number
    bound both read a distance for every vertex."""
    dist = g.distances_from(ti)
    if min(dist) < 0:
        raise DisconnectedGraph(f"target {g.vertices[ti]} does not reach every vertex")
    return dist


def _moves_to_sequence(g: Graph, moves: list[tuple[int, int]]) -> MoveSequence:
    verts = g.vertices
    return MoveSequence([Move(verts[a], verts[b]) for a, b in moves])


def is_solvable(g: Graph, d: Distribution, target: VertexLabel, t: int = 1,
                budget: Optional[Budget] = None) -> SolveOutcome:
    """Decide whether some move sequence leaves >= t pebbles on the target."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    ti = g.index_of(target)
    for lab in d.counts:
        if lab not in g:
            raise UnknownVertex(f"distribution mentions unknown vertex {lab}")
    _reach(g, ti)
    ok, moves, nodes = _solve_counts(g, d.vector(g), ti, t, budget)
    witness = _moves_to_sequence(g, moves) if ok else None
    return SolveOutcome(ok, witness, nodes)


# ---------------------------------------------------------------------------
# Enumeration of distributions (weak compositions, colexicographic)


def weak_compositions(k: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of k into ``parts`` parts, in colexicographic
    order: tuples sort by their highest-index differing coordinate, so the
    last coordinate rises slowest.

    Iterative, so any number of parts is fine. The successor of a row whose
    lowest nonzero coordinate h < parts-1 holds s: one of those s pebbles
    moves up to h+1 and the other s-1 drop to coordinate 0."""
    if k < 0:
        raise InvalidParameter(f"k must be >= 0, got {k}")
    if parts < 1:
        raise InvalidParameter(f"parts must be >= 1, got {parts}")
    row = [k] + [0] * (parts - 1)
    h = 0 if k else parts - 1
    while True:
        yield tuple(row)
        if h == parts - 1:
            return
        s = row[h]
        row[h] = 0
        row[h + 1] += 1
        row[0] = s - 1
        h = 0 if s > 1 else h + 1


def enumerate_distributions(g: Graph, k: int) -> Iterator[Distribution]:
    """Every distribution of exactly k pebbles on V(g), colex order, lazily."""
    for vec in weak_compositions(k, g.n):
        yield Distribution.from_vector(g, vec)


# The benchmark's tracer times the enumeration under this name; it can go
# once the benchmark reads DP counters instead (ROADMAP item 2).
_compositions_array = weak_compositions


# ---------------------------------------------------------------------------
# Level sweeps


@dataclass
class SweepResult:
    all_solvable: bool
    counterexample: Optional[Distribution]
    checked: int


def sweep_level(g: Graph, k: int, target: VertexLabel, t: int = 1,
                budget: Optional[Budget] = None) -> SweepResult:
    """Decide whether every distribution of size k is t-solvable for target.

    Walks the level's weak compositions in colex order and solves each row.
    The first unsolvable row is the counterexample, and ``checked`` is its
    1-based position (the level size when every row is solvable). The
    budget is charged the whole level up front, and the solver's nodes on
    top. Pebbling numbers come from the down-set DP; this is its reference.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    if k < 0:
        raise InvalidParameter(f"k must be >= 0, got {k}")
    ti = g.index_of(target)
    _reach(g, ti)
    count = comb(k + g.n - 1, g.n - 1)
    if budget is not None:
        budget.charge(count)
    for checked, vec in enumerate(weak_compositions(k, g.n), 1):
        if not _solve_counts(g, list(vec), ti, t, budget)[0]:
            return SweepResult(False, Distribution.from_vector(g, vec), checked)
    return SweepResult(True, None, count)


class SweepCheckpoint:
    """Resumable progress of ``compute_pebbling``, persisted as one JSON
    file: per graph hash, target and t, the last completed non-empty level
    of unsolvable distributions, so a resumed run continues from there.
    """

    def __init__(self, path: str):
        self.path = path
        self._data: dict | None = None

    def _load(self) -> dict:
        if self._data is None:
            self._data = {}
            if os.path.exists(self.path):
                with open(self.path) as fh:
                    self._data = json.load(fh)
        return self._data

    def _store(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._load(), fh)
        os.replace(tmp, self.path)

    def load_level(self, key: str, bits: int) -> Optional[tuple[int, set[int], int, int]]:
        """(k, packed U_k, candidates checked so far, largest level so far)
        saved under key, if any."""
        entry = self._load().get("levels", {}).get(key)
        if entry is None or entry["bits"] != bits or "max_level" not in entry:
            return None
        return entry["k"], set(entry["unsolvable"]), entry["candidates"], entry["max_level"]

    def save_level(self, key: str, bits: int, k: int, level: set[int],
                   candidates: int, max_level: int) -> None:
        self._load().setdefault("levels", {})[key] = {
            "bits": bits, "k": k, "candidates": candidates, "max_level": max_level,
            "unsolvable": sorted(level)}
        self._store()


def graph_hash(g: Graph) -> str:
    return hashlib.sha256(g.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Pebbling numbers


@dataclass
class PebblingReport:
    value: int
    t: int
    per_target: dict[VertexLabel, int]
    witness: Optional[tuple[Distribution, VertexLabel]]  # unsolvable at size value-1
    distributions_checked: int = 0
    restricted_targets: bool = False
    dp_targets: list[VertexLabel] = field(default_factory=list)  # one per orbit
    max_level: int = 0  # largest |U_k| over the dp_targets' DPs


def pebbling_number_vertex(g: Graph, v: VertexLabel, t: int = 1,
                           budget: Optional[Budget] = None) -> int:
    """f_t(g, v): least k such that every size-k distribution is t-solvable."""
    return compute_pebbling(g, targets=[v], t=t, budget=budget).value


def pebbling_number(g: Graph, targets: Optional[Sequence[VertexLabel]] = None,
                    budget: Optional[Budget] = None) -> int:
    """f(g), optionally restricted to a user-asserted representative list."""
    return compute_pebbling(g, targets=targets, t=1, budget=budget).value


def t_pebbling_number(g: Graph, t: int,
                      targets: Optional[Sequence[VertexLabel]] = None,
                      budget: Optional[Budget] = None) -> int:
    """f_t(g): least k making every size-k distribution t-solvable everywhere."""
    return compute_pebbling(g, targets=targets, t=t, budget=budget).value


def _field_bits(g: Graph, ti: int, t: int) -> int:
    """Bits per vertex in a packed distribution, enough for every count the
    DP meets. With fewer than t pebbles on the target, a vertex holding
    t*2^ecc pebbles solves alone, so by pigeonhole every distribution of
    (n-1)(t*2^ecc - 1) + t pebbles is t-solvable and no level gets larger."""
    dist = _reach(g, ti)
    return ((g.n - 1) * ((t << max(dist)) - 1) + t).bit_length()


def _downset_dp(g: Graph, ti: int, t: int, budget: Optional[Budget],
                checkpoint: Optional[SweepCheckpoint]) -> tuple[int, list[int], int, int]:
    """f_t(g, target) by the down-set DP over unsolvable distributions.

    Returns the value, the colex-first unsolvable distribution of size
    value-1 as a count vector, the number of candidates checked, and the
    largest level |U_k|. Distributions are packed into ints, vertex v in
    bits [v*b, (v+1)*b), so the last vertex is the most significant and
    integer order is colex order.

    Each candidate of level k is generated once, from its one parent
    c - e_top(c), where top(c) = (c.bit_length() - 1) // b is the highest
    vertex holding a pebble: u in U_{k-1} is extended only by e_v for
    v >= top(u). Since U is a down-set, every c in U_k has that parent in
    U_{k-1}, so U_k is the same as when every u is extended by every e_v,
    and no set is needed to deduplicate. Fields are read through
    precomputed masks: v holds at least 2 pebbles iff c & field_v >= 2e_v.
    """
    bits = _field_bits(g, ti, t)
    n = g.n
    units = [1 << bits * v for v in range(n)]
    fields = [((1 << bits) - 1) * e for e in units]
    # per source vertex: its field, the packed count 2 in it, and the packed
    # effect of each move out
    moves = [(fields[a], 2 * units[a], [2 * units[a] - units[b] for b in g.neighbors[a]])
             for a in range(n)]
    tfield, tcap = fields[ti], t * units[ti]
    key = f"{graph_hash(g)}:{ti}:{t}"
    k, prev, checked, widest = 0, {0}, 0, 1  # U_0: the empty distribution
    if checkpoint is not None:
        k, prev, checked, widest = (checkpoint.load_level(key, bits)
                                    or (k, prev, checked, widest))

    def stuck(c: int) -> bool:
        for f, two, deltas in moves:
            if c & f >= two:
                for d in deltas:
                    if c - d not in prev:
                        return False
        return True

    while True:
        cur = set()
        for u in prev:
            top = (u.bit_length() - 1) // bits if u else 0
            checked += n - top
            for e in units[top:]:
                if budget is not None:
                    budget.charge()
                c = u + e
                if c & tfield < tcap and stuck(c):
                    cur.add(c)
        if not cur:
            break
        k, prev = k + 1, cur
        widest = max(widest, len(cur))
        if checkpoint is not None:
            checkpoint.save_level(key, bits, k, prev, checked, widest)
    first = min(prev)
    return k + 1, [(first & f) >> bits * v for v, f in enumerate(fields)], checked, widest


def compute_pebbling(g: Graph, targets: Optional[Sequence[VertexLabel]] = None,
                     t: int = 1, budget: Optional[Budget] = None,
                     checkpoint: Optional[SweepCheckpoint] = None) -> PebblingReport:
    """Exact (t-)pebbling number by the down-set DP, run once per orbit of
    the targets under the automorphisms of g.

    An automorphism carries every distribution for one target to one for
    its image, so f_t is constant on an orbit. ``graphs.target_orbits``
    merges a target into an earlier one only with an edge-checked
    permutation taking the earlier to it; the DP runs on the first target
    of each class in list order (``dp_targets``), and the others take its
    value. The first target reaching the maximum is such a representative,
    so the witness is the one a DP over every target would give.
    ``distributions_checked`` counts the representatives' DP candidates;
    the budget is charged one node per candidate. ``max_level`` is the
    largest level |U_k| any of those DPs held.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    if targets is not None and not targets:
        raise InvalidParameter("targets is empty; pass None for all vertices")
    restricted = targets is not None
    target_list = list(targets) if targets is not None else list(g.vertices)
    indices = [g.index_of(lab) for lab in target_list]
    orbits = target_orbits(g, indices)
    per_target: dict[VertexLabel, int] = {}
    dp_targets: list[VertexLabel] = []
    values: dict[int, int] = {}  # representative index -> f_t
    best_witness: Optional[tuple[Distribution, VertexLabel]] = None
    best_value = 0
    checked = max_level = 0
    for lab, i in zip(target_list, indices):
        rep = orbits[i][0]
        if rep not in values:
            value, vec, cands, widest = _downset_dp(g, rep, t, budget, checkpoint)
            checked += cands
            max_level = max(max_level, widest)
            values[rep] = value
            dp_targets.append(lab)
            if value > best_value:
                best_value = value
                best_witness = (Distribution.from_vector(g, vec), lab)
        per_target[lab] = values[rep]
    return PebblingReport(best_value, t, per_target, best_witness, checked, restricted,
                          dp_targets, max_level)


# ---------------------------------------------------------------------------
# Generic lower bound with certified witnesses


def lower_bound(g: Graph) -> tuple[int, list[tuple[Distribution, VertexLabel]]]:
    """max(|V|, 2^D) with two unsolvable witness distributions, both
    re-certified by the exact solver."""
    diam = g.diameter()
    value = max(g.n, 1 << diam)
    far_from = 0
    dist = g.distances_from(0)
    for v in range(g.n):
        dv = g.distances_from(v)
        if max(dv) == diam:
            far_from = v
            dist = dv
            break
    target = g.vertices[far_from]
    far = g.vertices[dist.index(diam)]
    witnesses = []
    if g.n >= 2:
        ones = Distribution({lab: 1 for lab in g.vertices if lab != target})
        witnesses.append((ones, target))
    if diam >= 1:
        pile = Distribution({far: (1 << diam) - 1})
        witnesses.append((pile, target))
    for d, tgt in witnesses:
        outcome = is_solvable(g, d, tgt, 1)
        if outcome.solvable:
            raise AssertionError("lower-bound witness unexpectedly solvable")
    return value, witnesses
