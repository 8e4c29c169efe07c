"""Constructive pebbling strategies as explicit, replayable move producers.

Each strategy mirrors a constructive argument: its precondition is the
argument's hypothesis, its output is a move sequence built the way the
argument routes pebbles, and its report records which case fired. The
strategies are sound (a returned sequence always replays legally and
delivers what it claims) but never claim unsolvability.

Strategies compute on count vectors indexed like their graph's vertices.
That graph is the one the ``graphs`` constructor shares per size, so a
caller that built its graph there gets moves named with its own labels.
A sub-argument (the mirrored trimmed path, a rotated or reflected half of
M(C_2n), a product fiber) runs on its own count vector in its own frame,
and its moves come back to the caller through one index map, frame index
to caller index; one runner, ``_in_frame``, does both. Each frame is
computed by index arithmetic on the family's u/v index tables
(``_tmp_tables``, ``_mc_tables``); a donation moves one hop toward the
target (``Graph.hops_toward``). Labels appear only where a public function
reads its distribution and target and builds its report.

Weight bookkeeping convention for a path v_1..v_n with target v_k: a
pebble on v_i weighs 2^(i-1) on the left side and 2^(n-j) on v_j on the
right side; moving a pebble one step toward the target preserves at least
half its weight, so weight >= t * 2^(distance scale) pays for t arrivals.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

from .engine import (Distribution, MoveSequence, _moves_to_sequence,
                     _push_half, _quick_moves)
from .errors import InvalidParameter, PreconditionNotMet
from .graphs import (EdgeVertex, Graph, Original, Pair, VertexLabel, _Record,
                     cartesian_product, cycle_u, middle_cycle, path_u,
                     trimmed_middle_path)

# ---------------------------------------------------------------------------
# Report and context types


class StrategyReport(_Record):
    _fields = ("succeeded", "delivered", "sequence", "rationale", "notes")

    def __init__(self, succeeded: bool, delivered: int, sequence: MoveSequence,
                 rationale: str, notes: tuple[str, ...] = ()):
        self.succeeded, self.delivered, self.sequence = succeeded, delivered, sequence
        self.rationale, self.notes = rationale, notes

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


class PathContext(_Record):
    """A path v_1..v_n inside an ambient graph, with pebbles on it and a
    1-based target index."""

    _fields = ("graph", "path", "distribution", "target_index")

    def __init__(self, graph: Graph, path: Sequence[VertexLabel],
                 distribution: Distribution, target_index: int):
        self.graph, self.path = graph, path
        self.distribution, self.target_index = distribution, target_index
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
# Frames: a sub-argument runs on its own count vector, and its moves come
# back to the caller through an index map (frame index -> caller index)


def _in_frame(counts: list[int], frame: Sequence[int], sub_counts: list[int],
              moves: list[tuple[int, int]], solve, n: int, *args):
    """Run solve(n, sub_counts, *args, sub) on the frame's own count vector,
    replay its moves sub onto the caller's counts and moves, and return what
    solve returns; frame[i] is the caller's index of frame index i."""
    sub: list[tuple[int, int]] = []
    out = solve(n, sub_counts, *args, sub)
    for a, b in sub:
        a, b = frame[a], frame[b]
        counts[a] -= 2
        counts[b] += 1
        moves.append((a, b))
    return out


# ---------------------------------------------------------------------------
# Path weight and collection


def _side_weights(p: Sequence[int], k: int) -> tuple[int, int]:
    """(left, right) weights toward v_k of the piles p, p[i-1] on v_i."""
    n = len(p)
    left = sum(p[i - 1] << (i - 1) for i in range(1, k))
    right = sum(p[j - 1] << (n - j) for j in range(k + 1, n + 1))
    return left, right


def path_weight(ctx: PathContext) -> int:
    """Two-sided distance-discounted pebble weight toward v_k; the one-sided
    k=n form is the special case with an empty right sum."""
    return sum(_side_weights([ctx.distribution.get(lab) for lab in ctx.path],
                             ctx.target_index))


def _cascade(counts: list[int], chain: Sequence[int],
             moves: list[tuple[int, int]]) -> None:
    """Push floor-halves down the chain (far end first), absorbing piles on
    the way."""
    for a, b in zip(chain, chain[1:]):
        _push_half(counts, a, b, moves)


def _collect_indices(counts: list[int], path_idx: Sequence[int],
                     k: int, t: int, moves: list[tuple[int, int]]) -> str:
    """Collection core on ambient-index arrays; mutates counts, appends
    moves, returns the case tag. Raises PreconditionNotMet (before touching
    counts) when the weight threshold fails."""
    n = len(path_idx)
    left_w, right_w = _side_weights([counts[i] for i in path_idx], k)
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
        _cascade(counts, long_chain, moves)
        return "case-1"
    # here short_w >= 2^short_exp is forced by the threshold
    _cascade(counts, short_chain, moves)
    _cascade(counts, long_chain, moves)
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
    tag = _collect_indices(counts, path_idx, ctx.target_index, t, moves)
    tk = path_idx[ctx.target_index - 1]
    return StrategyReport(counts[tk] >= t, counts[tk],
                          _moves_to_sequence(g, moves), tag)


# ---------------------------------------------------------------------------
# Trimmed middle path of P_n: spine u_1..u_{n-1}, originals v_2..v_{n-1}


@cache
def _tmp_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u_index, v_index) lookup tables; v table is 1-based with -1 gaps."""
    g = trimmed_middle_path(n)
    u = tuple(g.index_of(path_u(i)) for i in range(1, n))
    v = tuple(-1 if m in (0, 1, n) else g.index_of(Original(m)) for m in range(n + 1))
    return (-1,) + u, v  # 1-based u table


@cache
def _tmp_mirror(n: int) -> tuple[int, ...]:
    """Index map of the end-swapping symmetry: v_m <-> v_{n+1-m},
    u_i <-> u_{n-i}."""
    u, v = _tmp_tables(n)
    frame = [0] * trimmed_middle_path(n).n
    for i in range(1, n):
        frame[u[i]] = u[n - i]
    for m in range(2, n):
        frame[v[m]] = v[n + 1 - m]
    return tuple(frame)


def _tmp_solve(n: int, counts: list[int], target: int,
               moves: list[tuple[int, int]]) -> str:
    """Route one pebble to the target index of M(P_n) - {v_1, v_n}; mutates
    counts, appends moves, returns a case tag."""
    u, v = _tmp_tables(n)
    spine = u[1:]
    kind = "u-target" if target in u else "v-target"
    if counts[target] >= 1:
        return f"{kind}:already"
    k = v.index(target) if kind == "v-target" else u.index(target)
    if kind == "v-target" and 2 * k < n + 1:
        # mirror so the left side is the long one
        frame = _tmp_mirror(n)
        return _in_frame(counts, frame, [counts[i] for i in frame], moves,
                         _tmp_solve, n, v[n + 1 - k])
    # every other original donates its floor-half one hop toward the target
    hop = trimmed_middle_path(n).hops_toward(target)
    for x in v[2:n]:
        if x != target:
            _push_half(counts, x, hop[x], moves)
    if kind == "u-target":
        if counts[target] >= 1:
            return "u-target:donated"
        _collect_indices(counts, spine, k, 1, moves)
        return "u-target:spine"
    # v_k is reachable from either spine neighbor; two pebbles on one of
    # them pay for the last hop. The written argument only considers
    # u_{k-1}, which leaves a one-pebble integrality gap at the midpoint
    # boundary (n=3), so both neighbors are tried.
    for aim in (k - 1, k):
        if counts[u[aim]] >= 2:
            counts[u[aim]] -= 2
            counts[v[k]] += 1
            moves.append((u[aim], v[k]))
            return f"v-target:direct-u{aim}"
    for aim in (k - 1, k):
        need = 2 - counts[u[aim]]
        try:
            _collect_indices(counts, spine, aim, need, moves)
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
    g = trimmed_middle_path(n)
    ti = g.index_of(target)
    floor = tmp_pebbling_bound(n)
    if d.total < floor:
        raise PreconditionNotMet(
            f"{d.total} pebbles, hypothesis needs {floor}")
    counts = d.vector(g)
    moves: list[tuple[int, int]] = []
    tag = _tmp_solve(n, counts, ti, moves)
    return StrategyReport(counts[ti] >= 1, counts[ti], _moves_to_sequence(g, moves), tag)


def cor24_witness(n: int) -> tuple[Distribution, VertexLabel]:
    """The tight unsolvable distribution for M(P_n) - {v_1, v_n}: one pebble
    on each inner original, 2^(n-2) - 1 on the far spine end, target u_1."""
    if n < 3:
        raise InvalidParameter(f"need n >= 3, got {n}")
    g = trimmed_middle_path(n)

    def own(lab: VertexLabel) -> VertexLabel:  # the graph's own label object
        return g.vertices[g.index_of(lab)]

    counts: dict[VertexLabel, int] = {own(Original(m)): 1 for m in range(2, n)}
    counts[own(path_u(n - 1))] = tmp_pebbling_bound(n) - 1 - len(counts)
    return Distribution(counts), own(path_u(1))


def tmp_pebbling_bound(n: int) -> int:
    """The exact pebbling number of M(P_n) - {v_1, v_n} (Corollary 2.4). At
    n + 2 it is what a round of the M(C_{2n}) t-strategy spends (Corollary 3.1)."""
    return (1 << (n - 2)) + n - 2


# ---------------------------------------------------------------------------
# Middle graph of the even cycle C_{2n}


@cache
def _mc_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    g = middle_cycle(n)
    two_n = 2 * n
    u = tuple(g.index_of(cycle_u(two_n, i)) for i in range(two_n))
    v = tuple(g.index_of(Original(i)) for i in range(two_n))
    return u, v


@cache
def _mc_perm(n: int, s: int, a: int) -> tuple[int, ...]:
    """Index map of the dihedral symmetry v_i -> v_{s*i+a} of M(C_{2n}),
    s = +-1. It sends u_i -> u_{i+a}, or u_{a-1-i} when it reflects (the
    edge v_i v_{i+1} goes to v_{a-i} v_{a-i-1})."""
    u, v = _mc_tables(n)
    two_n = 2 * n
    frame = [0] * (2 * two_n)
    for i in range(two_n):
        frame[v[i]] = v[(s * i + a) % two_n]
        frame[u[i]] = u[(i + a if s == 1 else a - 1 - i) % two_n]
    return tuple(frame)


@cache
def _mc_half_frame(n: int, use_b: bool) -> tuple[int, ...]:
    """Index map from M(P_{n+2}) - {v_1, v_{n+2}} onto a half of M(C_{2n}):
    u_j -> u_{j-1} and v_j -> v_{j-1}, so the spine end u_1 lands on u_0.
    Half B is the image of half A under the reflection v_i -> v_{1-i},
    which fixes u_0 and u_n."""
    ut, vt = _tmp_tables(n + 2)
    u, v = _mc_tables(n)
    frame = [0] * trimmed_middle_path(n + 2).n
    for j in range(1, n + 2):
        frame[ut[j]] = u[j - 1]
    for j in range(2, n + 2):
        frame[vt[j]] = v[j - 1]
    if use_b:
        flip = _mc_perm(n, -1, 1)
        frame = [flip[c] for c in frame]
    return tuple(frame)


def _mc_u_spine(n: int, counts: list[int], t: int,
                moves: list[tuple[int, int]]) -> str:
    """Finish a u_0 target along the spine cycle of edge vertices: donate
    every original one hop toward u_0, then harvest the heavier half-spine.
    The two half weights add to at least twice the spine pile, so the
    heavier one always pays for the remaining pebbles."""
    u, v = _mc_tables(n)
    hop = middle_cycle(n).hops_toward(u[0])
    for x in v:
        _push_half(counts, x, hop[x], moves)
    need = t - counts[u[0]]
    if need <= 0:
        return "u-target:donated"
    side_a = [u[i] for i in range(n, 0, -1)] + [u[0]]
    side_b = [u[i] for i in range(n, 2 * n)] + [u[0]]
    # the chain weight _collect_indices tests against need << n, so when the
    # heavier side fails the lighter one fails too; on a tie side A runs
    side = max(side_a, side_b,
               key=lambda chain: _side_weights([counts[i] for i in chain], n + 1)[0])
    _collect_indices(counts, side, len(side), need, moves)
    return "u-target:spine"


def _mc_half_round(n: int, counts: list[int], use_b: bool,
                   moves: list[tuple[int, int]]) -> None:
    """One induction round: route a single pebble to u_0 using at most
    2^n + n pebbles of the chosen half, which induces a trimmed middle
    path with u_0 at the spine's end."""
    m = n + 2
    ut, vt = _tmp_tables(m)
    frame = _mc_half_frame(n, use_b)
    budget = tmp_pebbling_bound(m)
    sub_counts = [0] * len(frame)
    # take from u_1..u_n, then v_1..v_n of the half until the budget is
    # spent; u_0's own pile stays put, as the round must land a fresh pebble
    for i in ut[2:] + vt[2:m]:
        take = min(counts[frame[i]], budget)
        sub_counts[i] = take
        budget -= take
        if budget == 0:
            break
    _in_frame(counts, frame, sub_counts, moves, _tmp_solve, m, ut[1])


def _mc_solve_u0(n: int, counts: list[int], t: int,
                 moves: list[tuple[int, int]]) -> str:
    """Deliver t pebbles to u_0 of M(C_{2n}). Rounds peel one pebble each
    from the heavier half while more than one pebble is owed; the last
    pebble goes through the spine harvest."""
    u, v = _mc_tables(n)
    two_n = 2 * n
    rounds = []
    while t - counts[u[0]] >= 2:
        half_a = sum(counts[u[i]] for i in range(1, n + 1)) \
            + sum(counts[v[i]] for i in range(1, n + 1))
        half_b = sum(counts[u[i]] for i in range(n, two_n)) \
            + sum(counts[v[i]] for i in range(n + 1, two_n)) + counts[v[0]]
        if max(half_a, half_b) < tmp_pebbling_bound(n + 2):
            break
        use_b = half_b > half_a
        _mc_half_round(n, counts, use_b, moves)
        rounds.append("half-B" if use_b else "half-A")
    tag = f"u-target:rounds[{','.join(rounds)}]" if rounds else ""
    if counts[u[0]] < t:
        finish = _mc_u_spine(n, counts, t, moves)
        return f"{tag}+{finish}" if rounds else finish
    return tag or "u-target:already"


def _mc_v0_oriented(n: int, counts: list[int], need: int,
                    moves: list[tuple[int, int]]) -> str:
    """Deliver need more pebbles to v_0 of M(C_{2n}) along the half-spine
    path L = v_n u_{n-1} .. u_0 v_0, topping the spine up from the originals
    when the opposite pile does not pay on its own. The caller's frame puts
    the heavier side of the v_0..v_n axis on u_0..u_{n-1}."""
    u, v = _mc_tables(n)
    spine_l = [v[n]] + [u[i] for i in range(n - 1, -1, -1)] + [v[0]]
    h = (need << (n + 1)) - counts[v[n]]
    if h <= 0:
        tag = "v-target:spine"
    elif 2 * sum(counts[u[i]] for i in range(n)) >= h:  # q >= ceil(h/2)
        tag = "v-target:q-large"
    else:
        tag = "v-target:topup"
        hop = middle_cycle(n).hops_toward(v[0])
        for x in v[1:n]:
            _push_half(counts, x, hop[x], moves)
    _collect_indices(counts, spine_l, len(spine_l), need, moves)
    return tag


def _mc_strategy(n: int, counts: list[int], target: int, t: int,
                 moves: list[tuple[int, int]]) -> str:
    """Deliver t pebbles to the target index of M(C_{2n}); mutates counts,
    appends moves, returns the case tag. Raises PreconditionNotMet, before
    any move, below t * 2^(n+1) + 2n - 2 pebbles. The argument runs in the
    one dihedral frame that puts the target on u_0 or v_0, reflected for a
    v-target when that puts its heavier side on u_0..u_{n-1}."""
    floor = mc_pebbling_bound(n, t)
    total = sum(counts)
    if total < floor:
        raise PreconditionNotMet(f"{total} pebbles, hypothesis needs {floor}")
    u, v = _mc_tables(n)
    if target in u:
        frame, solve, arg = _mc_perm(n, 1, u.index(target)), _mc_solve_u0, t
    else:
        need = t - counts[target]
        if need <= 0:
            return "v-target:already"
        # the two sides of the axis v_a v_{a+n} through the target v_a, read
        # through the rotation v_i -> v_{i+a}; side B is the rest
        a = v.index(target)
        rot = _mc_perm(n, 1, a)
        side_a = sum(counts[rot[u[i]]] for i in range(n)) \
            + sum(counts[rot[v[i]]] for i in range(1, n))
        side_b = total - side_a - counts[target] - counts[rot[v[n]]]
        frame = _mc_perm(n, -1 if side_b > side_a else 1, a)
        solve, arg = _mc_v0_oriented, need
    return _in_frame(counts, frame, [counts[i] for i in frame], moves, solve, n, arg)


def middle_cycle_t_strategy(n: int, d: Distribution, target: VertexLabel,
                            t: int = 1) -> StrategyReport:
    """Deliver t pebbles to any target of M(C_{2n}) from any distribution
    of at least t * 2^(n+1) + 2n - 2 pebbles."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    g = middle_cycle(n)
    ti = g.index_of(target)
    counts = d.vector(g)
    moves: list[tuple[int, int]] = []
    tag = _mc_strategy(n, counts, ti, t, moves)
    return StrategyReport(counts[ti] >= t, counts[ti], _moves_to_sequence(g, moves), tag)


# ---------------------------------------------------------------------------
# Product collection (Cartesian product of two even-cycle middle graphs)


def mc_pebbling_bound(n: int, t: int = 1) -> int:
    """f_t(M(C_{2n})) <= t * 2^(n+1) + 2n - 2 (Corollary 2.7), equal at t = 1 (Lemma 2.6)."""
    return (t << (n + 1)) + 2 * n - 2


def product_hypothesis(m: int, n: int) -> bool:
    """The regime in which the product bound is actually proven."""
    return m >= 5 and n >= 5 and abs(n - m) >= 2


def product_collection_strategy(gp: Graph, d: Distribution,
                                target: VertexLabel) -> StrategyReport:
    """Collect one pebble onto a product vertex of M(C_{2n}) x M(C_{2m}):
    solve inside an already-rich fiber if possible, otherwise extract t_k
    pebbles from every rich row fiber into the target's column and finish
    inside the column."""
    if not isinstance(target, Pair):
        raise InvalidParameter("target must be a Pair vertex")
    last = gp.vertices[-1]
    if not isinstance(last, Pair):
        raise InvalidParameter("product strategy expects Pair-labelled vertices")
    # the last vertex of M(C_2k) is u(2k-2,2k-1), so a product's last vertex
    # names n and m; a wrong guess fails the checks below
    n, m = ((p.j + 1) // 2 if isinstance(p, EdgeVertex) else 0
            for p in (last.left, last.right))
    # gp must be the product as cartesian_product builds it, vertex order
    # included: vertex x * |V(M(C_2m))| + y is the pair (x, y) of the factors
    if (min(n, m) < 2 or gp.n != 16 * n * m
            or gp != cartesian_product(middle_cycle(n), middle_cycle(m))):
        raise InvalidParameter("graph is not M(C_2n) x M(C_2m) in cartesian_product's order")
    gl, nr = middle_cycle(n), 4 * m
    fn, fm = mc_pebbling_bound(n), mc_pebbling_bound(m)
    if d.total < fn * fm:
        raise PreconditionNotMet(f"{d.total} pebbles, hypothesis needs {fn * fm}")
    notes = []
    if not product_hypothesis(m, n):
        notes.append("guarantee-void: outside the proven regime "
                     "(needs both halves >= 5 and size gap >= 2)")
    ti = gp.index_of(target)
    a, b = divmod(ti, nr)
    counts = d.vector(gp)
    moves: list[tuple[int, int]] = []

    def row(x: int) -> range:
        return range(x * nr, (x + 1) * nr)

    def fiber(k: int, frame: range, target: int, t: int) -> int:
        """Run the M(C_{2k}) argument in the fiber whose index map is frame;
        returns the pebbles its target then holds."""
        sub_counts = [counts[p] for p in frame]
        _in_frame(counts, frame, sub_counts, moves, _mc_strategy, k, target, t)
        return sub_counts[target]

    column = range(b, gp.n, nr)
    if sum(counts[p] for p in row(a)) >= fm:
        fiber(m, row(a), b, 1)
        tag = "fiber-direct:row"
    elif sum(counts[p] for p in column) >= fn:
        fiber(n, column, a, 1)
        tag = "fiber-direct:column"
    else:
        rich = []
        for x in range(gl.n):
            total = sum(counts[p] for p in row(x))
            if x != a and total >= fm:
                rich.append((-total, str(gl.vertices[x]), x))
        rich.sort()  # richest first; equal rows in the order of their labels
        extracted = 0
        for neg_total, _, x in rich:
            # t_k >= 1, as a rich row holds at least fm pebbles
            extracted += fiber(m, row(x), b, (-neg_total - (2 * m - 2)) >> (m + 1))
        try:
            fiber(n, column, a, 1)
            tag = f"extract[{extracted}]+column"
        except PreconditionNotMet:
            tag = f"column-short:{sum(counts[p] for p in column)}<{fn}"
    return StrategyReport(counts[ti] >= 1, counts[ti], _moves_to_sequence(gp, moves),
                          tag, tuple(notes))


# ---------------------------------------------------------------------------
# Greedy (fast sufficient check; never claims unsolvability)


def greedy_solver(g: Graph, d: Distribution, target: VertexLabel,
                  t: int = 1) -> StrategyReport:
    """The exact solver's cheap stages (``engine._quick_moves``): a vertex
    that pays the toll alone sends only the toll, 2^dist pebbles per pebble
    owed, along a shortest path, leaving the piles on the route where they
    are; otherwise move repeatedly from the richest vertex one step along a
    shortest path toward the target. Failure is inconclusive, never a
    proof."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    ti = g.index_of(target)
    counts = d.vector(g)
    moves = _quick_moves(g, counts, ti, t, g.distances_from(ti))
    if moves is None:
        return StrategyReport(False, counts[ti], MoveSequence(), "greedy:stuck")
    delivered = counts[ti] + sum(b == ti for _, b in moves)
    return StrategyReport(True, delivered, _moves_to_sequence(g, moves), "greedy")
