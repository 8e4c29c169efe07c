"""Constructive pebbling strategies as explicit, replayable move producers.

Each strategy mirrors a constructive argument: its precondition is the
argument's hypothesis, its output is a move sequence built the way the
argument routes pebbles, and its report records which case fired. The
strategies are sound (a returned sequence always replays legally and
delivers what it claims) but never claim unsolvability.

Weight bookkeeping convention for a path v_1..v_n with target v_k: a
pebble on v_i weighs 2^(i-1) on the left side and 2^(n-j) on v_j on the
right side; moving a pebble one step toward the target preserves at least
half its weight, so weight >= t * 2^(distance scale) pays for t arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .engine import (Distribution, Move, MoveSequence, _greedy_counts,
                     _moves_to_sequence)
from .errors import InvalidParameter, PreconditionNotMet, UnknownVertex
from .graphs import (EdgeVertex, Graph, Original, Pair, VertexLabel, cycle_u,
                     middle_cycle, path_u, trimmed_middle_path)

# ---------------------------------------------------------------------------
# Report and context types


@dataclass
class StrategyReport:
    succeeded: bool
    delivered: int
    sequence: MoveSequence
    rationale: str
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "succeeded": self.succeeded,
            "delivered": self.delivered,
            "case_tag": self.rationale,
            "moves": self.sequence.to_json_list(),
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass
class PathContext:
    """A path v_1..v_n inside an ambient graph, with pebbles on it and a
    1-based target index."""

    graph: Graph
    path: Sequence[VertexLabel]
    distribution: Distribution
    target_index: int

    def __post_init__(self):
        n = len(self.path)
        if not (1 <= self.target_index <= n):
            raise InvalidParameter(f"target index {self.target_index} outside 1..{n}")
        idx = [self.graph.index_of(lab) for lab in self.path]
        if len(set(idx)) != len(idx):
            raise InvalidParameter("path repeats a vertex")
        for a, b in zip(idx, idx[1:]):
            if not self.graph.has_edge(a, b):
                raise InvalidParameter(
                    f"{self.graph.vertices[a]} and {self.graph.vertices[b]} "
                    "are not adjacent in the ambient graph")
        on_path = set(self.path)
        for lab in self.distribution.counts:
            if lab not in on_path:
                raise InvalidParameter(f"distribution has pebbles off the path ({lab})")


# ---------------------------------------------------------------------------
# Path weight and collection


def path_weight(ctx: PathContext) -> int:
    """Two-sided distance-discounted pebble weight toward v_k; the one-sided
    k=n form is the special case with an empty right sum."""
    n = len(ctx.path)
    k = ctx.target_index
    p = [ctx.distribution.get(lab) for lab in ctx.path]
    left = sum(p[i - 1] << (i - 1) for i in range(1, k))
    right = sum(p[j - 1] << (n - j) for j in range(k + 1, n + 1))
    return left + right


def _cascade(g: Graph, counts: list[int], chain: Sequence[int],
             moves: list[tuple[int, int]]) -> int:
    """Push floor-halves down the chain (far end first), absorbing piles on
    the way. Returns the number of pebbles that arrive at the last vertex."""
    arrived = 0
    for a, b in zip(chain, chain[1:]):
        k = counts[a] // 2
        if k:
            counts[a] -= 2 * k
            counts[b] += k
            moves.extend([(a, b)] * k)
            if b == chain[-1]:
                arrived = k
    return arrived


def _collect_indices(g: Graph, counts: list[int], path_idx: Sequence[int],
                     k: int, t: int, moves: list[tuple[int, int]]) -> str:
    """Collection core on ambient-index arrays; mutates counts, appends
    moves, returns the case tag. Raises PreconditionNotMet (before touching
    counts) when the weight threshold fails."""
    n = len(path_idx)
    p = [counts[i] for i in path_idx]
    left_w = sum(p[i - 1] << (i - 1) for i in range(1, k))
    right_w = sum(p[j - 1] << (n - j) for j in range(k + 1, n + 1))
    left_long = 2 * k >= n + 1
    if left_long:
        long_w, long_exp = left_w, k - 1
        short_w, short_exp = right_w, n - k
    else:
        long_w, long_exp = right_w, n - k
        short_w, short_exp = left_w, k - 1
    threshold = (t << long_exp) + (1 << short_exp) - 1
    if left_w + right_w < threshold:
        raise PreconditionNotMet(
            f"path weight {left_w + right_w} below threshold {threshold} "
            f"for t={t} at index {k} of {n}")
    left_chain = [path_idx[i] for i in range(k)]              # v_1 .. v_k
    right_chain = [path_idx[j] for j in range(n - 1, k - 2, -1)]  # v_n .. v_k
    long_chain, short_chain = (left_chain, right_chain) if left_long \
        else (right_chain, left_chain)
    if long_w >= t << long_exp:
        _cascade(g, counts, long_chain, moves)
        return "case-1"
    # here short_w >= 2^short_exp is forced by the threshold
    _cascade(g, counts, short_chain, moves)
    _cascade(g, counts, long_chain, moves)
    return "case-2"


def collect_on_path(ctx: PathContext, t: int) -> StrategyReport:
    """Move at least t pebbles to v_k whenever the two-sided weight
    threshold holds."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    g = ctx.graph
    counts = ctx.distribution.vector(g)
    path_idx = [g.index_of(lab) for lab in ctx.path]
    moves: list[tuple[int, int]] = []
    tag = _collect_indices(g, counts, path_idx, ctx.target_index, t, moves)
    tk = path_idx[ctx.target_index - 1]
    return StrategyReport(counts[tk] >= t, counts[tk],
                          _moves_to_sequence(g, moves), tag)


# ---------------------------------------------------------------------------
# Trimmed middle path of P_n: spine u_1..u_{n-1}, originals v_2..v_{n-1}


@lru_cache(maxsize=32)
def _tmp_graph(n: int) -> Graph:
    return trimmed_middle_path(n)


@lru_cache(maxsize=32)
def _tmp_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u_index, v_index) lookup tables; v table is 1-based with -1 gaps."""
    g = _tmp_graph(n)
    u = tuple(g.index_of(path_u(i)) for i in range(1, n))
    v = tuple(-1 if m in (0, 1, n) else g.index_of(Original(m)) for m in range(n + 1))
    return (-1,) + u, v  # 1-based u table


@lru_cache(maxsize=64)
def _tmp_mirror(n: int) -> tuple[int, ...]:
    """Index permutation for the end-swapping symmetry: v_m <-> v_{n+1-m},
    u_i <-> u_{n-i}."""
    g = _tmp_graph(n)
    perm = [0] * g.n
    for idx, lab in enumerate(g.vertices):
        if isinstance(lab, Original):
            image: VertexLabel = Original(n + 1 - lab.index)
        else:
            image = path_u(n - lab.i)
        perm[idx] = g.index_of(image)
    return tuple(perm)


def _tmp_solve(n: int, counts: list[int], target: VertexLabel,
               moves: list[tuple[int, int]]) -> str:
    """Route one pebble to the target of M(P_n) - {v_1, v_n}; mutates
    counts, appends moves, returns a case tag."""
    g = _tmp_graph(n)
    u, v = _tmp_tables(n)

    if isinstance(target, EdgeVertex):
        k = target.i
        if counts[u[k]] >= 1:
            return "u-target:already"
        # every original donates its floor-half toward the target's side
        for m in range(2, n):
            dest = u[m] if m <= k else u[m - 1]
            d = counts[v[m]] // 2
            if d:
                counts[v[m]] -= 2 * d
                counts[dest] += d
                moves.extend([(v[m], dest)] * d)
        if counts[u[k]] >= 1:
            return "u-target:donated"
        spine = [u[i] for i in range(1, n)]
        _collect_indices(g, counts, spine, k, 1, moves)
        return "u-target:spine"

    k = target.index
    if counts[v[k]] >= 1:
        return "v-target:already"
    if 2 * k < n + 1:
        # mirror so the left side is the long one
        perm = _tmp_mirror(n)
        mirrored = [counts[perm[i]] for i in range(g.n)]
        sub: list[tuple[int, int]] = []
        tag = _tmp_solve(n, mirrored, Original(n + 1 - k), sub)
        for a, b in sub:
            counts[perm[a]] -= 2
            counts[perm[b]] += 1
            moves.append((perm[a], perm[b]))
        return tag
    for m in range(2, n):
        if m == k:
            continue
        dest = u[m] if m < k else u[m - 1]
        d = counts[v[m]] // 2
        if d:
            counts[v[m]] -= 2 * d
            counts[dest] += d
            moves.extend([(v[m], dest)] * d)
    # v_k is reachable from either spine neighbor; two pebbles on one of
    # them pay for the last hop. The written argument only considers
    # u_{k-1}, which leaves a one-pebble integrality gap at the midpoint
    # boundary (n=3), so both neighbors are tried.
    spine = [u[i] for i in range(1, n)]
    for aim in (k - 1, k):
        if counts[u[aim]] >= 2:
            counts[u[aim]] -= 2
            counts[v[k]] += 1
            moves.append((u[aim], v[k]))
            return f"v-target:direct-u{aim}"
    for aim in (k - 1, k):
        need = 2 - counts[u[aim]]
        try:
            _collect_indices(g, counts, spine, aim, need, moves)
        except PreconditionNotMet:
            continue
        counts[u[aim]] -= 2
        counts[v[k]] += 1
        moves.append((u[aim], v[k]))
        return f"v-target:collect-u{aim}"
    raise PreconditionNotMet(
        "spine weight too low for both neighbors of the target")


def middle_path_strategy(n: int, d: Distribution, target: VertexLabel) -> StrategyReport:
    """Deliver one pebble to any target of M(P_n) - {v_1, v_n} from any
    distribution of at least 2^(n-2) + n - 2 pebbles."""
    if n < 3:
        raise InvalidParameter(f"need n >= 3, got {n}")
    g = _tmp_graph(n)
    if target not in g:
        raise UnknownVertex(f"no vertex labelled {target}")
    floor = (1 << (n - 2)) + n - 2
    if d.total < floor:
        raise PreconditionNotMet(
            f"{d.total} pebbles, hypothesis needs {floor}")
    counts = d.vector(g)
    moves: list[tuple[int, int]] = []
    tag = _tmp_solve(n, counts, target, moves)
    final = counts[g.index_of(target)]
    return StrategyReport(final >= 1, final, _moves_to_sequence(g, moves), tag)


def cor24_witness(n: int) -> tuple[Distribution, VertexLabel]:
    """The tight unsolvable distribution for M(P_n) - {v_1, v_n}: one pebble
    on each inner original, 2^(n-2) - 1 on the far spine end, target u_1."""
    if n < 3:
        raise InvalidParameter(f"need n >= 3, got {n}")
    counts: dict[VertexLabel, int] = {Original(m): 1 for m in range(2, n)}
    counts[path_u(n - 1)] = (1 << (n - 2)) - 1
    return Distribution(counts), path_u(1)


# ---------------------------------------------------------------------------
# Middle graph of the even cycle C_{2n}


@lru_cache(maxsize=16)
def _mc_graph(n: int) -> Graph:
    return middle_cycle(n)


@lru_cache(maxsize=16)
def _mc_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    g = _mc_graph(n)
    two_n = 2 * n
    u = tuple(g.index_of(cycle_u(two_n, i)) for i in range(two_n))
    v = tuple(g.index_of(Original(i)) for i in range(two_n))
    return u, v


@lru_cache(maxsize=128)
def _mc_perm(n: int, rot: int, axis: str | None) -> tuple[int, ...]:
    """Index permutation for a dihedral symmetry of M(C_{2n}): optionally
    reflect, then rotate by ``rot``.

    axis "vertex" fixes v_0 and v_n (v_i -> v_{-i}, u_i -> u_{-1-i}); axis
    "edge" fixes u_0 and u_n (v_i -> v_{1-i}, u_i -> u_{-i}).
    """
    g = _mc_graph(n)
    two_n = 2 * n
    perm = [0] * g.n
    for idx, lab in enumerate(g.vertices):
        if isinstance(lab, Original):
            i = lab.index
            if axis == "vertex":
                i = -i
            elif axis == "edge":
                i = 1 - i
            image: VertexLabel = Original((i + rot) % two_n)
        else:
            i = _cycle_u_position(two_n, lab)
            if axis == "vertex":
                i = -1 - i
            elif axis == "edge":
                i = -i
            image = cycle_u(two_n, (i + rot) % two_n)
        perm[idx] = g.index_of(image)
    return tuple(perm)


def _cycle_u_position(two_n: int, lab: EdgeVertex) -> int:
    if lab.j == lab.i + 1:
        return lab.i
    if (lab.i, lab.j) == (0, two_n - 1):
        return two_n - 1
    raise UnknownVertex(f"{lab} is not an edge vertex of C_{two_n}")


def _apply_perm_moves(counts: list[int], perm: Sequence[int],
                      sub: list[tuple[int, int]], moves: list[tuple[int, int]]) -> None:
    """Replay moves computed in a permuted frame onto the real counts."""
    for a, b in sub:
        counts[perm[a]] -= 2
        counts[perm[b]] += 1
        moves.append((perm[a], perm[b]))


def _mc_u_spine(n: int, counts: list[int], t: int,
                moves: list[tuple[int, int]]) -> str:
    """Finish a u_0 target along the spine cycle of edge vertices: donate
    every original toward u_0, then harvest the heavier half-spine. The
    two half weights add to at least twice the spine pile, so the heavier
    one always pays for the remaining pebbles."""
    g = _mc_graph(n)
    u, v = _mc_tables(n)
    two_n = 2 * n
    for i in range(two_n):
        dest = u[0] if i in (0, 1) else (u[i - 1] if i <= n else u[i])
        d = counts[v[i]] // 2
        if d:
            counts[v[i]] -= 2 * d
            counts[dest] += d
            moves.extend([(v[i], dest)] * d)
    need = t - counts[u[0]]
    if need <= 0:
        return "u-target:donated"
    side_a = [u[i] for i in range(n, 0, -1)] + [u[0]]
    side_b = [u[i] for i in range(n, two_n)] + [u[0]]
    w_a = sum(counts[u[i]] << (n - i) for i in range(1, n + 1))
    w_b = sum(counts[u[i]] << (i - n) for i in range(n, two_n))
    # the two side weights sum to at least twice the spine pile, so the
    # heavier one always meets the collection threshold; the other is a
    # fallback in case of a tie broken the wrong way
    first, second = (side_a, side_b) if w_a >= w_b else (side_b, side_a)
    try:
        _collect_indices(g, counts, first, len(first), need, moves)
    except PreconditionNotMet:
        _collect_indices(g, counts, second, len(second), need, moves)
    return "u-target:spine"


def _mc_half_round(n: int, counts: list[int], use_b: bool,
                   moves: list[tuple[int, int]]) -> None:
    """One induction round: route a single pebble to u_0 using at most
    2^n + n pebbles of the chosen half, which induces a trimmed middle
    path with u_0 at the spine's end."""
    g = _mc_graph(n)
    u, v = _mc_tables(n)
    m = n + 2
    tg = _tmp_graph(m)
    ut, vt = _tmp_tables(m)
    # the reflection fixing u_0 and u_n carries half B onto half A
    perm = _mc_perm(n, 0, "edge" if use_b else None)
    # half labels (in the possibly reflected frame) -> trimmed-path indices
    pairs = [(u[i], ut[i + 1]) for i in range(n + 1)]
    pairs += [(v[i], vt[i + 1]) for i in range(1, n + 1)]
    back = {tmp_idx: cyc_idx for cyc_idx, tmp_idx in pairs}
    budget = (1 << n) + n
    sub_counts = [0] * tg.n
    for cyc_idx, tmp_idx in pairs:
        if tmp_idx == ut[1]:
            # u_0's own pile stays put; the round must land a fresh pebble
            continue
        take = min(counts[perm[cyc_idx]], budget)
        sub_counts[tmp_idx] = take
        budget -= take
        if budget == 0:
            break
    sub: list[tuple[int, int]] = []
    _tmp_solve(m, sub_counts, path_u(1), sub)
    for a, b in sub:
        ra, rb = perm[back[a]], perm[back[b]]
        counts[ra] -= 2
        counts[rb] += 1
        moves.append((ra, rb))


def _mc_solve_u0(n: int, counts: list[int], t: int,
                 moves: list[tuple[int, int]]) -> str:
    """Deliver t pebbles to u_0 of M(C_{2n}). Rounds peel one pebble each
    from the heavier half while more than one pebble is owed; the last
    pebble goes through the spine harvest."""
    g = _mc_graph(n)
    u, v = _mc_tables(n)
    two_n = 2 * n
    tags = []
    while t - counts[u[0]] >= 2:
        half_a = sum(counts[u[i]] for i in range(1, n + 1)) \
            + sum(counts[v[i]] for i in range(1, n + 1))
        half_b = sum(counts[u[i]] for i in range(n, two_n)) \
            + sum(counts[v[i]] for i in range(n + 1, two_n)) + counts[v[0]]
        if max(half_a, half_b) < (1 << n) + n:
            break
        use_b = half_b > half_a
        _mc_half_round(n, counts, use_b, moves)
        tags.append("half-B" if use_b else "half-A")
    if counts[u[0]] < t:
        tags.append(_mc_u_spine(n, counts, t, moves))
    prefix = f"u-target:rounds[{','.join(tags[:-1])}]+" if len(tags) > 1 else ""
    return prefix + (tags[-1] if tags else "u-target:already")


def _mc_solve_v0(n: int, counts: list[int], t: int,
                 moves: list[tuple[int, int]]) -> str:
    """Deliver t pebbles to v_0 of M(C_{2n}) along the half-spine path
    L = v_n u_{n-1} .. u_0 v_0, topping the spine up from the originals
    when the opposite pile does not pay on its own."""
    g = _mc_graph(n)
    u, v = _mc_tables(n)
    need = t - counts[v[0]]
    if need <= 0:
        return "v-target:already"
    # work on the heavier of the two sides flanking the v_0..v_n axis
    side_a = sum(counts[u[i]] for i in range(n)) \
        + sum(counts[v[i]] for i in range(1, n))
    side_b = sum(counts[u[i]] for i in range(n, 2 * n)) \
        + sum(counts[v[i]] for i in range(n + 1, 2 * n))
    perm = _mc_perm(n, 0, "vertex" if side_b > side_a else None)
    work = [counts[perm[i]] for i in range(g.n)]
    sub: list[tuple[int, int]] = []
    tag = _mc_v0_oriented(n, work, need, sub)
    _apply_perm_moves(counts, perm, sub, moves)
    return tag


def _mc_v0_oriented(n: int, counts: list[int], need: int,
                    moves: list[tuple[int, int]]) -> str:
    g = _mc_graph(n)
    u, v = _mc_tables(n)
    spine_l = [v[n]] + [u[i] for i in range(n - 1, -1, -1)] + [v[0]]
    goal = need << (n + 1)
    if counts[v[n]] >= goal:
        _collect_indices(g, counts, spine_l, len(spine_l), need, moves)
        return "v-target:spine"
    h = goal - counts[v[n]]
    q = sum(counts[u[i]] for i in range(n))
    if 2 * q >= h:  # q >= ceil(h/2)
        _collect_indices(g, counts, spine_l, len(spine_l), need, moves)
        return "v-target:q-large"
    for j in range(1, n):
        d = counts[v[j]] // 2
        if d:
            counts[v[j]] -= 2 * d
            counts[u[j - 1]] += d
            moves.extend([(v[j], u[j - 1])] * d)
    _collect_indices(g, counts, spine_l, len(spine_l), need, moves)
    return "v-target:topup"


def _mc_canonical_target(n: int, target: VertexLabel) -> tuple[int, bool]:
    """(rotation, is_edge_vertex) bringing the target to u_0 or v_0."""
    two_n = 2 * n
    if isinstance(target, Original):
        if not 0 <= target.index < two_n:
            raise UnknownVertex(f"{target} is not a vertex of M(C_{two_n})")
        return target.index, False
    if isinstance(target, EdgeVertex):
        return _cycle_u_position(two_n, target), True
    raise UnknownVertex(f"{target} is not a vertex of M(C_{two_n})")


def middle_cycle_t_strategy(n: int, d: Distribution, target: VertexLabel,
                            t: int = 1) -> StrategyReport:
    """Deliver t pebbles to any target of M(C_{2n}) from any distribution
    of at least t * 2^(n+1) + 2n - 2 pebbles. Non-canonical targets are
    handled by rotating labels and rotating the moves back."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    g = _mc_graph(n)
    floor = (t << (n + 1)) + 2 * n - 2
    if d.total < floor:
        raise PreconditionNotMet(f"{d.total} pebbles, hypothesis needs {floor}")
    rot, is_u = _mc_canonical_target(n, target)
    perm = _mc_perm(n, rot, None)  # canonical index -> actual index
    counts = [0] * g.n
    vec = d.vector(g)
    for i in range(g.n):
        counts[i] = vec[perm[i]]
    sub: list[tuple[int, int]] = []
    if is_u:
        tag = _mc_solve_u0(n, counts, t, sub)
    else:
        tag = _mc_solve_v0(n, counts, t, sub)
    verts = g.vertices
    moves = [Move(verts[perm[a]], verts[perm[b]]) for a, b in sub]
    u, v = _mc_tables(n)
    final = counts[u[0] if is_u else v[0]]
    return StrategyReport(final >= t, final, MoveSequence(moves), tag)


# ---------------------------------------------------------------------------
# Product collection (Cartesian product of two even-cycle middle graphs)


def _factor_labels(gp: Graph) -> tuple[list[VertexLabel], list[VertexLabel]]:
    left: list[VertexLabel] = []
    right: list[VertexLabel] = []
    seen_l, seen_r = set(), set()
    for lab in gp.vertices:
        if not isinstance(lab, Pair):
            raise InvalidParameter("product strategy expects Pair-labelled vertices")
        if lab.left not in seen_l:
            seen_l.add(lab.left)
            left.append(lab.left)
        if lab.right not in seen_r:
            seen_r.add(lab.right)
            right.append(lab.right)
    return left, right


def mc_pebbling_bound(n: int) -> int:
    """The exact pebbling number of M(C_{2n}), as a closed form."""
    return (1 << (n + 1)) + 2 * n - 2


def product_collection_strategy(gp: Graph, d: Distribution,
                                target: VertexLabel) -> StrategyReport:
    """Collect one pebble onto a product vertex of M(C_{2n}) x M(C_{2m}):
    solve inside an already-rich fiber if possible, otherwise extract t_k
    pebbles from every rich row fiber into the target's column and finish
    inside the column."""
    if not isinstance(target, Pair):
        raise InvalidParameter("target must be a Pair vertex")
    left, right = _factor_labels(gp)
    if len(left) % 4 or len(right) % 4:
        raise InvalidParameter("factors are not even-cycle middle graphs")
    n, m = len(left) // 4, len(right) // 4
    gl, gr = _mc_graph(n), _mc_graph(m)
    if set(left) != set(gl.vertices) or set(right) != set(gr.vertices):
        raise InvalidParameter("factors are not even-cycle middle graphs")
    fn, fm = mc_pebbling_bound(n), mc_pebbling_bound(m)
    if d.total < fn * fm:
        raise PreconditionNotMet(f"{d.total} pebbles, hypothesis needs {fn * fm}")
    notes = []
    if not (n >= 5 and m >= 5 and abs(n - m) >= 2):
        notes.append("guarantee-void: outside the proven regime "
                     "(needs both halves >= 5 and size gap >= 2)")
    a, b = target.left, target.right
    counts: dict[VertexLabel, int] = dict(d.counts)
    moves: list[Move] = []

    def fiber_counts(anchor: VertexLabel, row: bool) -> Distribution:
        if row:
            return Distribution({y: counts.get(Pair(anchor, y), 0) for y in right})
        return Distribution({x: counts.get(Pair(x, anchor), 0) for x in left})

    def apply_fiber(report: StrategyReport, anchor: VertexLabel, row: bool) -> None:
        for mv in report.sequence:
            src = Pair(anchor, mv.src) if row else Pair(mv.src, anchor)
            dst = Pair(anchor, mv.dst) if row else Pair(mv.dst, anchor)
            counts[src] = counts.get(src, 0) - 2
            counts[dst] = counts.get(dst, 0) + 1
            moves.append(Move(src, dst))

    row_d = fiber_counts(a, row=True)
    col_d = fiber_counts(b, row=False)
    if row_d.total >= fm:
        rep = middle_cycle_t_strategy(m, row_d, b, 1)
        apply_fiber(rep, a, row=True)
        final = counts.get(target, 0)
        return StrategyReport(final >= 1, final, MoveSequence(moves),
                              "fiber-direct:row", tuple(notes))
    if col_d.total >= fn:
        rep = middle_cycle_t_strategy(n, col_d, a, 1)
        apply_fiber(rep, b, row=False)
        final = counts.get(target, 0)
        return StrategyReport(final >= 1, final, MoveSequence(moves),
                              "fiber-direct:column", tuple(notes))

    rich = []
    for k in left:
        if k == a:
            continue
        fd = fiber_counts(k, row=True)
        if fd.total >= fm:
            rich.append((fd.total, str(k), k, fd))
    rich.sort(key=lambda item: (-item[0], item[1]))
    extracted = 0
    for total_k, _, k, fd in rich:
        t_k = (total_k - (2 * m - 2)) >> (m + 1)
        if t_k < 1:
            continue
        rep = middle_cycle_t_strategy(m, fd, b, t_k)
        apply_fiber(rep, k, row=True)
        extracted += rep.delivered
    col_d = fiber_counts(b, row=False)
    try:
        rep = middle_cycle_t_strategy(n, col_d, a, 1)
    except PreconditionNotMet:
        final = counts.get(target, 0)
        return StrategyReport(final >= 1, final, MoveSequence(moves),
                              f"column-short:{col_d.total}<{fn}", tuple(notes))
    apply_fiber(rep, b, row=False)
    final = counts.get(target, 0)
    return StrategyReport(final >= 1, final, MoveSequence(moves),
                          f"extract[{extracted}]+column", tuple(notes))


# ---------------------------------------------------------------------------
# Greedy (fast sufficient check; never claims unsolvability)


def greedy_solver(g: Graph, d: Distribution, target: VertexLabel,
                  t: int = 1) -> StrategyReport:
    """Repeatedly move from the richest vertex one step along a shortest
    path toward the target. Failure is inconclusive, never a proof."""
    ti = g.index_of(target)
    counts = d.vector(g)
    dist = g.distances_from(ti)
    moves = _greedy_counts(g, counts, ti, t, dist)
    if moves is None:
        return StrategyReport(False, counts[ti], MoveSequence(), "greedy:stuck")
    return StrategyReport(True, counts[ti], _moves_to_sequence(g, moves), "greedy")
