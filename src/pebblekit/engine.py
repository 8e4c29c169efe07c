"""Pebble distributions, moves, and the exact solvability search.

The solver decides t-solvability by depth-first search over distributions
with a transposition table, after a stack of cheap checks. The first
three, ``_quick_moves``, are shared with ``strategies.greedy_solver``:
target already covered, a single vertex rich enough to pay the full 2^d
toll alone (it sends just the toll), and a greedy run; the last is the
exact-rational potential cutoff. The search runs on an
explicit stack, so no input can exhaust Python's recursion limit. States
are count vectors packed into ints, and every move carries precomputed
changes to the packed key and to the potential, so a search node costs a
few integer operations instead of rebuilding either from the vector.
Beside the search runs a refutation, ``_closure``, that grows the states
reachable from the root level by level, skipping a state dominated by one
of the level before or of the level being expanded, and so can end an
unsolvable search early. It is an iterator that paces itself: the search
calls next() on it first at its ``CLOSURE_FIRST``-th node and then every
``CLOSURE_EVERY`` nodes, and each call generates ``CLOSURE_RATIO`` times
``CLOSURE_EVERY`` more closure nodes (``_solve_counts`` says what it does
with the answer). Verdicts, witnesses and budget stops are the search's
alone; an unsolvable verdict the closure settles counts the larger of the
search's nodes so far and the closure's, which is at most the search's own
count.

Pebbling and t-pebbling numbers come from a dynamic program over the
unsolvable distributions (``_downset_dp``), not from the solver, so the
work, and what a ``Budget`` is charged, scales with the unsolvable set
rather than with the C(k+n-1, n-1) distributions of a level. Over several
targets it runs once per orbit under the graph's automorphisms
(``compute_pebbling``). ``sweep_level`` still classifies a single level by
enumeration and the solver; tests use it as the reference.

The DP and the closure pack count vectors by ``_layout``, each vertex's
field only as wide as the toll lemma needs, so the keys of small graphs
fit one 30-bit digit of a Python int and no field ever carries. The
search keeps fields wide enough for the total, since its states can pile
pebbles past a toll.

All arithmetic that feeds a pruning decision is exact integer arithmetic;
no floating point is involved anywhere in the search.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, groupby

from .errors import (BudgetExceeded, InsufficientPebbles, InvalidParameter,
                     NotAdjacent, read_int, read_json, read_seconds)
from .graphs import Graph, VertexLabel, _Frozen, _Record, parse_label, target_orbits

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

    def to_json_dict(self) -> dict:
        return {"counts": {str(lab): c for lab, c in sorted(
            self.counts.items(), key=lambda kv: str(kv[0]))}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Distribution":
        counts, spelled = data["counts"], {}
        if not all(type(c) is int for c in counts.values()):  # not 1.7, "2", true
            raise InvalidParameter(f"pebble counts must be integers: {json.dumps(counts)}")
        for s in counts:
            first = spelled.setdefault(parse_label(s), s)  # "v01" is v1, "u(2,1)" is u(1,2)
            if first != s:
                raise InvalidParameter(f"{first!r} and {s!r} name one vertex")
        return cls({lab: counts[s] for lab, s in spelled.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.counts == other.counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab}:{c}" for lab, c in sorted(
            self.counts.items(), key=lambda kv: str(kv[0])))
        return f"Distribution({{{inner}}}, total={self.total})"


class Move(_Frozen):
    """One pebbling move: two pebbles leave ``src``, one lands on ``dst``."""

    _fields = ("src", "dst")

    def __init__(self, src: VertexLabel, dst: VertexLabel):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_key", (src, dst))

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
        if type(data) is not list or any(type(m) is not list or len(m) != 2 for m in data):
            raise InvalidParameter("moves must be a list of [source, target] label pairs")
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
    from fractions import Fraction  # here, so importing pebblekit loads no decimal

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
    """Caps on explored nodes and wall time; exhaustion raises, never guesses.

    A cap of 0 nodes or 0 seconds is spent at the first node; None is no
    cap. A negative cap, or seconds that are NaN, is an InvalidParameter.
    """

    __slots__ = ("node_cap", "deadline", "nodes", "t0")

    def __init__(self, node_cap: int | None = None, seconds: float | None = None):
        if node_cap is not None and node_cap < 0:
            raise InvalidParameter(f"node budget must be >= 0, got {node_cap}")
        if seconds is not None and not seconds >= 0:  # negative, or NaN
            raise InvalidParameter(f"time budget must be >= 0 seconds, got {seconds}")
        self.node_cap = node_cap
        self.t0 = time.monotonic()
        self.deadline = None if seconds is None else self.t0 + seconds
        self.nodes = 0

    @classmethod
    def from_env(cls, nodes: str | None = None, seconds: str | None = None) -> "Budget":
        """Each cap from its flag's text (``nodes``, ``seconds``), else its environment
        variable's (empty counts as unset), else its default (DEFAULT_NODE_BUDGET nodes,
        no time cap). A bad or negative text is an InvalidParameter naming its source."""
        caps = []
        for text, flag, var, read, default in (
                (nodes, "--budget-nodes", NODE_BUDGET_ENV, read_int, DEFAULT_NODE_BUDGET),
                (seconds, "--budget-seconds", TIME_BUDGET_ENV, read_seconds, None)):
            if text is None:
                text, flag = os.environ.get(var) or None, var
            caps.append(cap := default if text is None else read(text, flag))
            if cap is not None and cap < 0:  # only an integer has a sign
                raise InvalidParameter(f"{flag} must be >= 0, got {text!r}")
        return cls(*caps)

    def charge(self, n: int = 1) -> None:
        self.nodes += n
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise BudgetExceeded(f"node budget of {self.node_cap} exhausted",
                                 nodes_explored=self.nodes,
                                 elapsed=time.monotonic() - self.t0)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded("time budget exhausted",
                                 nodes_explored=self.nodes,
                                 elapsed=time.monotonic() - self.t0)


# ---------------------------------------------------------------------------
# Core solver (index/array form)


class SolveOutcome(_Record):
    _fields = ("solvable", "witness", "nodes_explored")

    def __init__(self, solvable: bool, witness: MoveSequence | None, nodes_explored: int):
        self.solvable, self.witness, self.nodes_explored = solvable, witness, nodes_explored


def _next_hop(g: Graph, dist: Sequence[int], v: int) -> int:
    # deterministic: smallest-index neighbor strictly closer to the target
    for w in g.neighbors[v]:
        if dist[w] == dist[v] - 1:
            return w
    raise AssertionError("BFS distances inconsistent")


def _push_half(counts: list[int], a: int, b: int,
               moves: list[tuple[int, int]]) -> None:
    """Move the floor-half of a's pile one step to b: floor(p/2) moves a -> b.
    Mutates counts and moves."""
    k = counts[a] // 2
    if k:
        counts[a] -= 2 * k
        counts[b] += k
        moves.extend([(a, b)] * k)


def _quick_moves(g: Graph, counts: Sequence[int], target: int, t: int,
                 dist: Sequence[int]) -> list[tuple[int, int]] | None:
    """The solver's cheap stages, in order, without mutating counts: no
    moves when the target holds t already; else the first vertex v that can
    pay the toll alone sends just the toll, need*2^dist(v) pebbles, along a
    shortest path, each hop passing on half of what it received and leaving
    the piles on the route where they are; else the richest-vertex-first
    greedy. None means the greedy got stuck: inconclusive."""
    need = t - counts[target]
    if need <= 0:
        return []
    moves: list[tuple[int, int]] = []
    for v, c in enumerate(counts):
        if v != target and c >> dist[v] >= need:
            while dist[v]:
                nxt = _next_hop(g, dist, v)
                moves += [(v, nxt)] * (need << (dist[v] - 1))
                v = nxt
            return moves
    work = list(counts)
    while work[target] < t:
        best, best_key = -1, None
        for v in range(len(work)):
            if v != target and work[v] >= 2:
                key = (work[v], -dist[v], -v)
                if best_key is None or key > best_key:
                    best_key, best = key, v
        if best < 0:
            return None
        nxt = _next_hop(g, dist, best)
        work[best] -= 2
        work[nxt] += 1
        moves.append((best, nxt))
    return moves


def _layout(dist: Sequence[int], t: int,
            root: Sequence[int] = ()) -> tuple[list[int], list[int]]:
    """Field widths and offsets of a distribution packed into an int by the
    down-set DP and the closure: vertex v in bits [shift_v, shift_v + width_v),
    in vertex order, so the last vertex is the most significant and integer
    order is colex order.

    Field v gets ((t << dist(v)) + 1).bit_length() bits, enough for
    t*2^dist(v) + 1; the target, at distance 0, gets (t + 1).bit_length().
    No key either forms carries out of a field, by the toll lemma: a vertex
    v holding t*2^dist(v) pebbles pays the toll of t pebbles on the target
    alone (for the target, t pebbles already there), so a distribution the DP
    keeps (unsolvable) or the closure expands (no rich vertex found) holds
    at most t*2^dist(v) - 1 on every v. A DP candidate adds one pebble to
    such a member and its stuck test's child one more; a closure child and
    its ``over`` key add one to an expanded distribution and its ``up`` key
    two. So no field a key forms exceeds t*2^dist(v) + 1, every key is the
    exact packing of its count vector, and no move needs an overflow test.
    A key past the members' range names a solvable distribution, so it is
    in no level, and a lookup answers as for any other non-member.

    A closure ``root`` passed in directly may hold more than that on a
    vertex (the solver's rich-vertex shortcut settles such roots first);
    its field then widens to hold the root's count plus 2, all that keys
    formed before the closure finds that vertex rich add to it.
    """
    widths = [((t << d) + 1).bit_length() for d in dist]
    for v, c in enumerate(root):
        widths[v] = max(widths[v], (c + 2).bit_length())
    return widths, list(accumulate(widths[:-1], initial=0))


# The search resumes the closure first at its CLOSURE_FIRST-th node and then
# every CLOSURE_EVERY nodes, and the p-th resume runs the closure to
# p * CLOSURE_RATIO * CLOSURE_EVERY nodes.
CLOSURE_FIRST = 32
CLOSURE_EVERY = 256
CLOSURE_RATIO = 8


def _closure(g: Graph, counts: list[int], target: int, t: int, dist: Sequence[int],
             weights: Sequence[int], goal: int) -> Iterator[tuple[int | None, bool]]:
    """Refute t-solvability by growing the distributions reachable from
    counts one level at a time, level j being those j moves away.

    Every move removes exactly one pebble, so each distribution sits in one
    level. Keys are packed by ``_layout`` with fields widened for the
    root, and the rich vertices of a distribution are walked with a
    ``high`` mask, as in ``_downset_dp``, the target's field left out
    because the target is never a source. Every distinct child of an
    expanded distribution is a node, children below the potential goal
    included, and only those at or above the goal are expanded.

    A child is pruned when a distribution kept in the level before,
    ``before``, or in the level being expanded, ``level``, dominates it.
    Solvability is monotone: a distribution at least as large at every
    vertex can make every move sequence the smaller one can, so it is
    solvable whenever the smaller one is. The move a -> b takes key to
    c = key - 2e_a + e_b, and two distributions near key dominate c:

    - key - e_a + 2e_b = c + e_a + e_b, the distribution whose move b -> a
      gives key. If it is in ``before`` it has been expanded already.
    - key - e_a + e_b = c + e_a, key with one pebble moved from a to b. If
      it is in ``level``, this same pass expands it.

    Either way c is skipped; if the dominator lies below the potential
    goal, so does c, and c would not be expanded either. Each dominator
    holds more pebbles than c and sits in the level of key or the level
    before, both kept already, so induction along a solving sequence finds
    every distribution on it dominated by one that is expanded: the
    closure still meets a rich vertex on every solvable root, and a
    verdict is exact. A new child costs one lookup in ``before`` and one
    in ``level``, each after one subtraction, with u_a - 2u_b and
    u_a - u_b stored per move beside its changes to the key and to the
    potential. Three levels are held: ``before``, ``level`` and the next.
    The count, the root and every child kept, is at most the search's on
    an unsolvable root, where the unpruned closure's count equals it.

    It paces itself: the p-th next() runs until it has generated at least
    p * CLOSURE_RATIO * CLOSURE_EVERY nodes and yields (nodes, False). Its
    last yield is (nodes, True) when no level is left (unsolvable), or
    (None, True) when a rich vertex can pay the whole toll alone,
    c >> dist[v] >= t - c_target, which also covers every move that brings
    the target to t; then it ends. It knows no budget: the search that
    resumes it checks caps and deadlines.
    """
    n = len(counts)
    widths, shifts = _layout(dist, t, counts)
    units = [1 << s for s in shifts]
    fields = [((1 << w) - 1) << s for w, s in zip(widths, shifts)]
    high = sum(f - e for v, (f, e) in enumerate(zip(fields, units)) if v != target)
    # per bit length of key & high: the field of the vertex holding that bit,
    # where its pile starts paying the toll alone, its moves as changes to
    # the key, to the potential and to the keys of the two dominating
    # distributions (up, looked up in before; over, in level), and the mask
    # of the fields below it
    rich: list = [None]
    for v in range(n):
        out = [(2 * units[v] - units[b], 2 * weights[v] - weights[b],
                units[v] - 2 * units[b], units[v] - units[b])
               for b in g.neighbors[v]]
        rich += [(fields[v], shifts[v] + dist[v], out, units[v] - 1)] * widths[v]
    tfield, tshift = fields[target], shifts[target]
    before: dict[int, int] = {}
    level = {sum(c << s for c, s in zip(counts, shifts)):
             sum(c * w for c, w in zip(counts, weights))}
    nodes = 1  # the root
    limit = step = CLOSURE_RATIO * CLOSURE_EVERY
    while level:
        nxt: dict[int, int] = {}
        for key, pot in level.items():
            if pot < goal:
                continue
            need = t - ((key & tfield) >> tshift)
            r = key & high
            while r:
                field_v, shift, out, below = rich[r.bit_length()]
                if key & field_v >= need << shift:
                    yield None, True
                    return
                for dkey, dpot, up, over in out:
                    child = key - dkey
                    if child not in nxt and key - over not in level and key - up not in before:
                        nxt[child] = pot - dpot
                r &= below
            while nodes + len(nxt) >= limit:
                yield nodes + len(nxt), False
                limit += step
        nodes += len(nxt)
        before, level = level, nxt
    yield nodes, True


def _solve_counts(g: Graph, counts: list[int], target: int, t: int,
                  budget: Budget | None) -> tuple[bool, list[tuple[int, int]] | None, int]:
    """Exact t-solvability on a count vector. Returns (solvable, moves, nodes)."""
    dist = g.distances_from(target)
    quick = _quick_moves(g, counts, target, t, dist)
    if quick is not None:
        return True, quick, 0
    ecc = max(dist)
    goal = t << ecc
    weights = [1 << (ecc - d) for d in dist]

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
    out: list[list[tuple] | None] = [None] * n  # moves from each vertex

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

    # Beside the search runs the closure, resumed with one next() at the
    # search's CLOSURE_FIRST-th node and then every CLOSURE_EVERY nodes, so
    # between two of the search's budget charges it generates at most
    # CLOSURE_RATIO * CLOSURE_EVERY nodes and the moves of one distribution.
    # On an unsolvable root it may end first with (N, True); the search then
    # returns (False, None, max(N, nodes)) at once and charges the budget
    # the difference. Neither count is more than the search's own final
    # count: the search has not finished, and the closure counts a subset
    # of its states. The closure is dropped when it finds the target reachable or
    # its count passes room, the most nodes the search can reach within a
    # node cap; the search, the only source of witnesses, then finishes
    # alone.
    key = sum(c << bits * v for v, c in enumerate(counts))  # the root: node 1
    failed: set[int] = set()
    nodes = 1
    if budget is not None:
        budget.charge()
    room = (budget.node_cap - budget.nodes + nodes
            if budget is not None and budget.node_cap is not None else math.inf)
    closure = _closure(g, counts, target, t, dist, weights, goal)  # runs at its first next()
    probe = CLOSURE_FIRST
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
            if nodes == probe:
                probe += CLOSURE_EVERY
                reached, done = next(closure)
                if reached is None or reached > room:
                    probe, closure = 0, None  # never again
                elif done:
                    reached = max(reached, nodes)
                    if budget is not None:
                        budget.charge(reached - nodes)
                    return False, None, reached
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


def _moves_to_sequence(g: Graph, moves: list[tuple[int, int]]) -> MoveSequence:
    verts = g.vertices
    return MoveSequence([Move(verts[a], verts[b]) for a, b in moves])


def is_solvable(g: Graph, d: Distribution, target: VertexLabel, t: int = 1,
                budget: Budget | None = None) -> SolveOutcome:
    """Decide whether some move sequence leaves >= t pebbles on the target."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    ti = g.index_of(target)
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


# The benchmark's tracer times the enumeration under this name; it can go
# once the benchmark reads DP counters instead (ROADMAP item 4).
_compositions_array = weak_compositions


# ---------------------------------------------------------------------------
# Level sweeps


class SweepResult(_Record):
    _fields = ("all_solvable", "counterexample", "checked")

    def __init__(self, all_solvable: bool, counterexample: Distribution | None, checked: int):
        self.all_solvable, self.counterexample = all_solvable, counterexample
        self.checked = checked


def sweep_level(g: Graph, k: int, target: VertexLabel, t: int = 1) -> SweepResult:
    """Decide whether every distribution of size k is t-solvable for target.

    Walks the level's weak compositions in colex order and solves each row.
    The first unsolvable row is the counterexample, and ``checked`` is its
    1-based position (the level size when every row is solvable).
    Pebbling numbers come from the down-set DP; this is its reference.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    if k < 0:
        raise InvalidParameter(f"k must be >= 0, got {k}")
    ti = g.index_of(target)
    for checked, vec in enumerate(weak_compositions(k, g.n), 1):
        if not _solve_counts(g, list(vec), ti, t, None)[0]:
            return SweepResult(False, Distribution.from_vector(g, vec), checked)
    return SweepResult(True, None, checked)


class SweepCheckpoint:
    """Resumable progress of ``compute_pebbling``, persisted as one JSON
    file: per graph hash, target and t, the last completed non-empty level
    of unsolvable distributions, so a resumed run continues from there.

    The file must be UTF-8 JSON, and a loaded level must be as
    ``save_level`` wrote it, in the DP's field widths (``_layout``), each
    member holding k pebbles and fewer than t*2^dist(v) on each vertex v,
    or an InvalidParameter names the file. A level with members deleted
    cannot be detected and may give too small a value: a resumed value
    rests on the file.
    """

    def __init__(self, path: str):
        self.path = path
        self._data: dict | None = None

    def _load(self) -> dict:
        if self._data is None:
            self._data = (read_json(self.path, lambda data: data, "checkpoint")
                          if os.path.exists(self.path) else {})
        return self._data

    def _store(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._load(), fh)
        os.replace(tmp, self.path)

    def load_level(self, key: str, dist: Sequence[int],
                   t: int) -> tuple[int, set[int], int, int] | None:
        """(k, packed U_k, candidates checked so far, largest level so far)
        saved under key for a target at distances dist, if any. Each member
        is read field by field: a field over t*2^dist(v) - 1 would break the
        no-carry bound the DP's keys rest on (``_layout``)."""
        data = self._load()
        levels = data.get("levels", {}) if isinstance(data, dict) else None
        if not isinstance(levels, dict):
            raise InvalidParameter(f"checkpoint {self.path} has no map of levels")
        entry = levels.get(key)
        if entry is None:
            return None
        widths, shifts = _layout(dist, t)
        if not (isinstance(entry, dict) and entry.get("widths") == widths
                and all(type(entry.get(f)) is int and entry[f] >= 0
                        for f in ("k", "candidates", "max_level"))
                and isinstance(entry.get("unsolvable"), list) and entry["unsolvable"]):
            raise InvalidParameter(f"checkpoint {self.path}: no saved level "
                                   f"of the expected shape under {key}")
        k, end = entry["k"], shifts[-1] + widths[-1]
        caps = [((1 << w) - 1, s, (t << d) - 1) for w, s, d in zip(widths, shifts, dist)]
        for c in entry["unsolvable"]:
            # c >> end is -1 for a negative c
            if not (type(c) is int and c >> end == 0
                    and all((c >> s) & mask <= cap for mask, s, cap in caps)
                    and sum((c >> s) & mask for mask, s, _ in caps) == k):
                raise InvalidParameter(
                    f"checkpoint {self.path}: entry {key} holds {c!r}, not a distribution "
                    f"of {k} pebbles with fewer than {t}*2^dist(v) on each vertex v")
        return k, set(entry["unsolvable"]), entry["candidates"], entry["max_level"]

    def save_level(self, key: str, widths: list[int], k: int, level: Iterable[int],
                   candidates: int, max_level: int) -> None:
        self._load().setdefault("levels", {})[key] = {
            "widths": widths, "k": k, "candidates": candidates, "max_level": max_level,
            "unsolvable": sorted(level)}
        self._store()


def graph_hash(g: Graph) -> str:
    import hashlib  # here, so importing pebblekit loads no OpenSSL

    return hashlib.sha256(g.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Pebbling numbers


class PebblingReport(_Record):
    """``witness`` is unsolvable at size value-1; ``dp_targets`` holds one
    target per orbit (a new list when None), and ``max_level`` is the
    largest |U_k| over their DPs."""

    _fields = ("value", "per_target", "witness", "distributions_checked",
               "dp_targets", "max_level")

    def __init__(self, value: int, per_target: dict[VertexLabel, int],
                 witness: tuple[Distribution, VertexLabel] | None,
                 distributions_checked: int = 0,
                 dp_targets: list[VertexLabel] | None = None, max_level: int = 0):
        self.value, self.per_target, self.witness = value, per_target, witness
        self.distributions_checked = distributions_checked
        self.dp_targets = [] if dp_targets is None else dp_targets
        self.max_level = max_level


def _downset_dp(g: Graph, ti: int, t: int, budget: Budget | None,
                checkpoint: SweepCheckpoint | None) -> tuple[int, list[int], int, int]:
    """f_t(g, target) by the down-set DP over unsolvable distributions.

    Returns the value, the colex-first unsolvable distribution of size
    value-1 as a count vector, the number of candidates checked, and the
    largest level |U_k|. Distributions are packed into ints by
    ``_layout``, each field as wide as the toll lemma allows, so the last
    vertex is the most significant, integer order is colex order, and no
    key the DP forms carries from one field into the next.

    Each candidate of level k is generated once, from its one parent
    c - e_top(c), where top(c), the vertex whose field holds c's top bit,
    is the highest vertex holding a pebble: u in U_{k-1} is extended only
    by e_v for v >= top(u). U is a down-set (removing a pebble never makes a
    distribution solvable), so every c in U_k has that parent in U_{k-1},
    U_k is the same as when every u is extended by every e_v, and no set is
    needed to deduplicate.

    A candidate is unsolvable iff it holds fewer than t pebbles on the
    target and every legal move, including moves out of the target, lands
    in U_{k-1}. A level maps each member to its scaled potential sum
    c_v*2^(ecc-dist(v)), so a candidate's potential is its parent's plus
    one weight. The potential never rises under a move (the basic case of
    Hurlbert's weight function lemma), so a candidate below t*2^ecc is
    unsolvable and joins U_k with no lookup. Any other candidate is tested
    only at its rich vertices, those holding at least 2 pebbles: c & high,
    where high holds every bit of each field but the lowest, is nonzero
    exactly in their fields, which are walked from the top down. A
    checkpoint keeps the members only; their potentials are recomputed
    when a level is loaded.
    """
    n = g.n
    dist = g.distances_from(ti)
    ecc = max(dist)
    goal = t << ecc
    weights = [1 << (ecc - d) for d in dist]
    widths, shifts = _layout(dist, t)
    units = [1 << s for s in shifts]
    fields = [((1 << w) - 1) << s for w, s in zip(widths, shifts)]
    high = sum(fields) - sum(units)
    # per bit length of a packed int: the extensions (unit, weight) of a
    # member whose top vertex is the one holding that bit, and, for the
    # rich-vertex walk, the packed effects of that vertex's moves out and
    # the mask of the fields below it
    ext, rich = [list(zip(units, weights))], [None]
    for v in range(n):
        out = [2 * units[v] - units[b] for b in g.neighbors[v]]
        ext += [list(zip(units[v:], weights[v:]))] * widths[v]
        rich += [(out, units[v] - 1)] * widths[v]
    tfield, tcap = fields[ti], t * units[ti]
    k, prev, checked, widest = 0, {0: 0}, 0, 1  # U_0: the empty distribution
    if checkpoint is not None:
        key = f"{graph_hash(g)}:{ti}:{t}"
        saved = checkpoint.load_level(key, dist, t)
        if saved is not None:
            k, level, checked, widest = saved
            prev = {c: sum(((c & f) >> s) * w for f, s, w in zip(fields, shifts, weights))
                    for c in level}

    while True:
        cur = {}
        for u, pot in prev.items():
            todo = ext[u.bit_length()]
            checked += len(todo)
            if budget is not None:
                budget.charge(len(todo))
            for e, w in todo:
                c, p = u + e, pot + w
                if p < goal:
                    cur[c] = p
                    continue
                if c & tfield >= tcap:
                    continue
                # stuck iff every move out of every rich vertex lands in prev
                r = c & high
                while r:
                    out, below = rich[r.bit_length()]
                    for d in out:
                        if c - d not in prev:
                            break
                    else:
                        r &= below
                        continue
                    break
                else:
                    cur[c] = p
        if not cur:
            break
        k, prev = k + 1, cur
        widest = max(widest, len(cur))
        if checkpoint is not None:
            checkpoint.save_level(key, widths, k, prev, checked, widest)
    first = min(prev)
    return k + 1, [(first & f) >> s for f, s in zip(fields, shifts)], checked, widest


def compute_pebbling(g: Graph, targets: Sequence[VertexLabel] | None = None,
                     t: int = 1, budget: Budget | None = None,
                     checkpoint: SweepCheckpoint | None = None) -> PebblingReport:
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
    the budget is charged one node per candidate, for all of a parent's
    candidates before the first is tested. ``max_level`` is the largest
    level |U_k| any of those DPs held.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    if targets is not None and not targets:
        raise InvalidParameter("targets is empty; pass None for all vertices")
    target_list = list(targets) if targets is not None else list(g.vertices)
    indices = [g.index_of(lab) for lab in target_list]
    orbits = target_orbits(g, indices)
    per_target: dict[VertexLabel, int] = {}
    dp_targets: list[VertexLabel] = []
    values: dict[int, int] = {}  # representative index -> f_t
    best_witness: tuple[Distribution, VertexLabel] | None = None
    best_value = 0
    checked = max_level = 0
    for lab, i in zip(target_list, indices):
        rep = orbits[i]
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
    return PebblingReport(best_value, per_target, best_witness, checked,
                          dp_targets, max_level)


# ---------------------------------------------------------------------------
# Generic lower bound with certified witnesses


def lower_bound(g: Graph) -> tuple[int, list[tuple[Distribution, VertexLabel]]]:
    """max(|V|, 2^D) with two unsolvable witness distributions, both
    re-certified by the exact solver."""
    diam = g.diameter()
    value = max(g.n, 1 << diam)
    far_from = next(v for v in range(g.n) if max(g.distances_from(v)) == diam)
    dist = g.distances_from(far_from)
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
