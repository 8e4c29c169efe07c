import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

import pytest

import pebblekit
from pebblekit.engine import (CLOSURE_EVERY, CLOSURE_FIRST, CLOSURE_RATIO, Budget,
                              Distribution, Move,
                              MoveSequence, SweepCheckpoint, _closure, _solve_counts,
                              apply_move, compute_pebbling,
                              is_solvable,
                              lower_bound, potential, replay,
                              sweep_level, weak_compositions)
from pebblekit.errors import (BudgetExceeded, InsufficientPebbles,
                              InvalidParameter, NotAdjacent, UnknownVertex)
from pebblekit.graphs import (Original, Pair, cartesian_product, complete,
                              cycle, cycle_u, middle_cycle, path, path_u,
                              trimmed_middle_path)
from pebblekit.strategies import cor24_witness

from conftest import asymmetric_graph, petersen


# -- independent reference solver (no pruning, pure state-space search) ------

def brute_solver(g, target, t=1):
    """Plain recursive search over all move sequences, memoized per
    (graph, target, t); exponential, for cross-validating the production
    code on small instances only. Takes count tuples."""
    @lru_cache(maxsize=None)
    def rec(state):
        if state[target] >= t:
            return True
        for a in range(len(state)):
            if state[a] >= 2:
                for b in g.neighbors[a]:
                    nxt = list(state)
                    nxt[a] -= 2
                    nxt[b] += 1
                    if rec(tuple(nxt)):
                        return True
        return False
    return rec


def brute_solvable(g, counts, target, t=1):
    return brute_solver(g, target, t)(tuple(counts))


def recursive_solve_counts(g, counts, target, t, budget=None):
    """The solver as it was before its search became iterative: the same
    shortcuts, then a recursive memoized DFS. Returns (solvable, moves,
    nodes); the production search must return the same triple."""
    if counts[target] >= t:
        return True, [], 0
    dist = g.distances_from(target)
    ecc = max(dist)
    goal = t << ecc
    weights = [1 << (ecc - d) for d in dist]

    def next_hop(v):  # the smallest-index neighbor one step closer
        return min(w for w in g.neighbors[v] if dist[w] == dist[v] - 1)

    # single rich vertex: it sends just the pebbles that pay the toll, each
    # hop passing on half of what reached it; route piles stay where they are
    need = t - counts[target]
    for v, c in enumerate(counts):
        if v != target and c >> dist[v] >= need:
            moves: list[tuple[int, int]] = []
            sent = need << dist[v]
            while v != target:
                w, sent = next_hop(v), sent // 2
                moves += [(v, w)] * sent
                v = w
            return True, moves, 0

    # greedy: one move at a time from the richest vertex, ties to the one
    # nearer the target, then to the lower index
    work = list(counts)
    greedy = []
    while work[target] < t:
        rich = [v for v in range(len(work)) if v != target and work[v] >= 2]
        if not rich:
            break
        v = max(rich, key=lambda u: (work[u], -dist[u], -u))
        w = next_hop(v)
        work[v] -= 2
        work[w] += 1
        greedy.append((v, w))
    else:
        return True, greedy, 0

    # potential cutoff: below t means provably unsolvable
    pot = sum(c * w for c, w in zip(counts, weights))
    if pot < goal:
        return False, None, 0

    # memoized depth-first search; transposition table keys are the raw
    # count vectors (totals in a sweep are < 256, so bytes packing applies)
    failed: set = set()
    nodes = 0
    small = sum(counts) < 256
    nbrs = g.neighbors

    def dfs(cnt: list[int]) -> Optional[list[tuple[int, int]]]:
        nonlocal nodes
        if cnt[target] >= t:
            return []
        key = bytes(cnt) if small else tuple(cnt)
        if key in failed:
            return None
        nodes += 1
        if budget is not None:
            budget.charge()
        pot = sum(c * w for c, w in zip(cnt, weights))
        if pot < goal:
            failed.add(key)
            return None
        cand = []
        for a in range(len(cnt)):
            if a != target and cnt[a] >= 2:
                da = dist[a]
                ca = cnt[a]
                for b in nbrs[a]:
                    cand.append((-ca, -(da - dist[b]), a, b))
        cand.sort()
        for _, _, a, b in cand:
            cnt[a] -= 2
            cnt[b] += 1
            sub = dfs(cnt)
            cnt[a] += 2
            cnt[b] -= 1
            if sub is not None:
                return [(a, b)] + sub
        failed.add(key)
        return None

    result = dfs(list(counts))
    if result is None:
        return False, None, nodes
    return True, result, nodes


# -- distributions and moves -------------------------------------------------

def test_distribution_drops_zeros():
    d = Distribution({Original(1): 0, Original(2): 3})
    assert d.counts == {Original(2): 3} and d.total == 3


def test_distribution_rejects_negative():
    with pytest.raises(InvalidParameter):
        Distribution({Original(1): -1})


def test_distribution_vector_roundtrip():
    g = path(3)
    d = Distribution({Original(1): 2, Original(3): 1})
    assert Distribution.from_vector(g, d.vector(g)) == d


def test_distribution_json_roundtrip():
    d = Distribution({Original(2): 5, path_u(1): 1})
    assert Distribution.from_json_dict(d.to_json_dict()) == d


@pytest.mark.parametrize("first, second", [("u(1,2)", "u(2,1)"), ("v1", "v01")])
def test_distribution_json_rejects_two_spellings_of_one_vertex(first, second):
    # read as one key, the second count replaced the first
    with pytest.raises(InvalidParameter, match=re.escape(f"{first!r} and {second!r}")):
        Distribution.from_json_dict({"counts": {first: 3, second: 5}})


def test_apply_move_accounting():
    g = path(3)
    d = Distribution({Original(1): 3})
    out = apply_move(g, d, Move(Original(1), Original(2)))
    assert out.counts == {Original(1): 1, Original(2): 1}
    assert out.total == d.total - 1


def test_apply_move_errors():
    g = path(3)
    with pytest.raises(NotAdjacent):
        apply_move(g, Distribution({Original(1): 2}), Move(Original(1), Original(3)))
    with pytest.raises(InsufficientPebbles):
        apply_move(g, Distribution({Original(1): 1}), Move(Original(1), Original(2)))


def test_replay_sequence():
    g = path(3)
    d = Distribution({Original(1): 4})
    seq = MoveSequence([Move(Original(1), Original(2)),
                        Move(Original(1), Original(2)),
                        Move(Original(2), Original(3))])
    assert replay(g, d, seq).get(Original(3)) == 1


def test_move_sequence_json_roundtrip():
    seq = MoveSequence([Move(Original(1), Original(2))])
    assert MoveSequence.from_json_list(seq.to_json_list()) == seq


@pytest.mark.parametrize("data", [[{"v1": 0, "v2": 0}], [["v1", "v2", "v3"]], [["v1"]],
                                  {}, {"v1": "v2"}])
def test_move_sequence_json_is_a_list_of_pairs(data):
    # a dict of two labels was read as the move between them, and {} as no move
    with pytest.raises(InvalidParameter):
        MoveSequence.from_json_list(data)


# -- potential ---------------------------------------------------------------

def test_potential_exact_values():
    g = path(3)
    d = Distribution({Original(1): 3, Original(2): 1})
    assert potential(g, d, Original(3)) == Fraction(3, 4) + Fraction(1, 2)


def test_potential_below_t_unsolvable():
    g = path(4)
    d = Distribution({Original(1): 7})  # potential 7/8 < 1
    assert potential(g, d, Original(4)) < 1
    assert not is_solvable(g, d, Original(4)).solvable


# -- solver vs brute force ---------------------------------------------------

def test_solver_agrees_with_brute_force():
    cases = [(path(4), 1), (cycle(5), 1), (complete(4), 1),
             (trimmed_middle_path(4), 1), (path(3), 2)]
    for g, t in cases:
        k = 5
        for vec in weak_compositions(k, g.n):
            for ti in range(g.n):
                got = is_solvable(g, Distribution.from_vector(g, vec),
                                  g.vertices[ti], t).solvable
                assert got == brute_solvable(g, vec, ti, t), (g, vec, ti, t)


def test_witness_replays_when_solvable():
    g = middle_cycle(2)
    d = Distribution({Original(2): 10})
    tgt = cycle_u(4, 0)
    out = is_solvable(g, d, tgt)
    assert out.solvable
    assert replay(g, d, out.witness).get(tgt) >= 1


def test_rich_vertex_sends_only_the_toll():
    # the shortcut once drained the whole pile: a 750,000-move witness for
    # 10^6 pebbles, and an OverflowError for 10^30
    g = path(3)
    for pile in (10 ** 6, 10 ** 30):
        d = Distribution({Original(1): pile})
        out = is_solvable(g, d, Original(3))
        assert out.solvable and out.nodes_explored == 0 and len(out.witness) == 3
        assert replay(g, d, out.witness).get(Original(3)) == 1


def test_solvable_unknown_vertex():
    g = path(2)
    with pytest.raises(UnknownVertex):
        is_solvable(g, Distribution({Original(9): 2}), Original(1))


def test_t_must_be_positive():
    with pytest.raises(InvalidParameter):
        is_solvable(path(2), Distribution(), Original(1), t=0)


# -- the iterative search against the recursive one ---------------------------

def assert_same_search(g, vec, ti, t):
    """The iterative search's (solvable, moves, nodes), checked against the
    recursive reference: the same verdict and moves, and the same count
    unless the closure settled an unsolvable root with fewer nodes."""
    got = _solve_counts(g, list(vec), ti, t, None)
    ref = recursive_solve_counts(g, list(vec), ti, t)
    assert got[:2] == ref[:2], (g, vec, ti, t)
    assert got[2] == ref[2] or not got[0] and got[2] < ref[2], (g, vec, ti, t, got, ref)
    return got


def test_search_matches_recursive_reference_on_small_distributions():
    for g in (path(4), cycle(5), complete(4), trimmed_middle_path(4),
              middle_cycle(2)):
        for k in range(7):
            for vec in weak_compositions(k, g.n):
                for ti in range(g.n):
                    for t in (1, 2, 3):
                        assert_same_search(g, vec, ti, t)


def test_search_matches_recursive_reference_on_tight_witnesses():
    witnesses = [(trimmed_middle_path(5), *cor24_witness(5), 1)]
    for g in (trimmed_middle_path(5), cycle(7), middle_cycle(2)):
        witnesses += [(g, d, tgt, 1) for d, tgt in lower_bound(g)[1]]
        for t in (1, 2):
            witnesses.append((g, *compute_pebbling(g, t=t).witness, t))
    dfs_nodes = 0
    for g, d, tgt, t in witnesses:
        ti = g.index_of(tgt)
        base = d.vector(g)
        for v in [None, *range(g.n)]:
            vec = list(base)
            if v is not None:
                vec[v] += 1
            dfs_nodes += assert_same_search(g, vec, ti, t)[2]
    assert dfs_nodes > 0  # some of these reach the search


def frames_left() -> int:
    """How many more nested calls the recursion limit allows from here."""
    depth = 0

    def down():
        nonlocal depth
        depth += 1
        down()
    try:
        down()
    except RecursionError:
        return depth


def deep_query():
    """A P3xP3 query that reaches the search (170 nodes) and whose witness
    is 15 moves long."""
    g = cartesian_product(path(3), path(3))
    d = Distribution({Pair(Original(3), Original(1)): 1,
                      Pair(Original(3), Original(3)): 15})
    return g, d, Pair(Original(1), Original(1))


def test_search_does_not_recurse():
    # 12 frames above this one are enough for is_solvable and its helpers
    # (about 8), too few for a search that takes a frame per move (the
    # recursive one needs about 17 here)
    g, d, tgt = deep_query()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - frames_left() + 12)
    try:
        out = is_solvable(g, d, tgt)
    finally:
        sys.setrecursionlimit(limit)
    assert out.solvable and out.nodes_explored == 170
    assert len(out.witness) == 15
    assert replay(g, d, out.witness).get(tgt) >= 1


def test_search_budget_stops_at_the_same_node():
    g, d, tgt = deep_query()
    for solve in (_solve_counts, recursive_solve_counts):
        with pytest.raises(BudgetExceeded) as exc:
            solve(g, d.vector(g), g.index_of(tgt), 1, Budget(node_cap=100))
        assert exc.value.nodes_explored == 101


# -- the level-by-level closure beside the search ----------------------------

def cor24_query():
    """cor24_witness(6) at u(1,2): unsolvable, 1,686 nodes for the search
    alone and 152 when the closure settles it."""
    d, tgt = cor24_witness(6)
    g = trimmed_middle_path(6)
    return g, d.vector(g), g.index_of(tgt), 1


def mc4_t2_query(extra=None):
    """The f_2(M(C4), v0) witness {v1:1, v2:15, v3:1}: unsolvable, 1,256
    nodes for the search alone and 290 when the closure settles it; with a
    pebble added at vertex index 7, solvable in 1,552."""
    g = middle_cycle(2)
    vec = [0] * g.n
    for i, c in ((1, 1), (2, 15), (3, 1)):
        vec[g.index_of(Original(i))] = c
    if extra is not None:
        vec[extra] += 1
    return g, vec, g.index_of(Original(0)), 2


def test_search_matches_recursive_reference_past_the_closure_probe():
    nodes = {}
    for g, base, ti, t in (cor24_query(), mc4_t2_query()):
        for v in [None, *range(g.n)]:
            vec = list(base)
            if v is not None:
                vec[v] += 1
            ok, _, nodes[g, v] = assert_same_search(g, vec, ti, t)
    # the closure refutes both roots with fewer nodes than the search alone
    # (1,256 and 1,686), and three solvable neighbours run the closure
    # before the search finds a witness
    assert sorted(n for n in nodes.values() if n >= CLOSURE_FIRST) == [152, 162, 257, 290, 1552]


def closure_yields(g, vec, ti, t):
    """Everything the closure yields when it is driven alone to its end."""
    dist = g.distances_from(ti)
    ecc = max(dist)
    weights = [1 << (ecc - d) for d in dist]
    return list(_closure(g, list(vec), ti, t, dist, weights, t << ecc))


def closure_to_the_end(g, vec, ti, t):
    """Drive the closure alone to its end: its node count, or None."""
    reached, done = closure_yields(g, vec, ti, t)[-1]
    assert done
    return reached


def test_the_closure_paces_itself_and_stops_at_its_verdict():
    # the p-th yield but the last comes once the closure holds at least
    # p * CLOSURE_RATIO * CLOSURE_EVERY nodes; the last carries the verdict,
    # and nothing follows it
    g, d, tgt = lemma_26_lower_side(4)
    yields = closure_yields(g, d.vector(g), g.index_of(tgt), 1)
    step = CLOSURE_RATIO * CLOSURE_EVERY
    assert len(yields) == 9 and yields[-1] == (17_168, True)
    assert [reached for reached, _ in yields[:3]] == [2048, 4097, 6144]
    for p, (reached, done) in enumerate(yields[:-1], 1):
        assert reached >= step * p and not done, p
    assert closure_yields(*mc4_t2_query(7)) == [(None, True)]


def test_closure_counts_the_search_nodes_and_finds_solvable_roots():
    # on every root the search's shortcuts leave open, against the unpruned
    # search: at most its count when it refutes, and None (solvable) when it
    # does not. The differential test of the closure's domination pruning.
    runs = refuted = 0
    for g in (path(4), cycle(5), complete(4), trimmed_middle_path(4),
              trimmed_middle_path(5), middle_cycle(2)):
        for k in range(7):
            for vec in weak_compositions(k, g.n):
                for ti in range(g.n):
                    dist = g.distances_from(ti)
                    pot = sum(c << (max(dist) - d) for c, d in zip(vec, dist))
                    for t in (1, 2, 3):
                        if vec[ti] >= t or pot < t << max(dist):
                            continue
                        ok, _, nodes = recursive_solve_counts(g, list(vec), ti, t)
                        reached = closure_to_the_end(g, vec, ti, t)
                        assert (reached is None if ok else reached <= nodes), (g, vec, ti, t)
                        runs += 1
                        refuted += not ok
    assert refuted > 100 and runs > refuted


def budget_outcome(solve, query, cap, spent=0):
    """What solve returns under a node cap, and what the budget holds after;
    spent nodes are charged first, as by an earlier call."""
    g, vec, ti, t = query
    budget = Budget(node_cap=cap)
    budget.nodes = spent
    try:
        return solve(g, list(vec), ti, t, budget), budget.nodes
    except BudgetExceeded as exc:
        return str(exc), exc.nodes_explored, budget.nodes


@pytest.mark.parametrize("query, cap, spent, expected", [
    (cor24_query(), 1686, 0, 152),
    (cor24_query(), 1685, 0, 152),
    (cor24_query(), 300, 0, 152),
    (cor24_query(), 2000, 314, 466),
    (cor24_query(), 2000, 315, 467),
    (mc4_t2_query(7), 1552, 0, 1552),
    (mc4_t2_query(7), 1551, 0, 1552),
    (cor24_query(), 581, 0, 152),
    (cor24_query(), 580, 0, 152),
    (cor24_query(), 2000, 1419, 1571),
    (cor24_query(), 2000, 1420, 1572),
    (cor24_query(), 152, 0, 152),
    (cor24_query(), 151, 0, 152),
    (cor24_query(), 2000, 1848, 2000),
    (cor24_query(), 2000, 1849, 2001),
], ids=["cor24-cap-1686", "cor24-cap-1685", "cor24-cap-300", "cor24-shared-room",
        "cor24-shared-one-short", "solvable-cap-1552", "solvable-cap-1551",
        "cor24-cap-581", "cor24-cap-580", "cor24-shared-room-581", "cor24-shared-580",
        "cor24-cap-152", "cor24-cap-151", "cor24-shared-room-152", "cor24-shared-151"])
def test_closure_spends_a_node_cap_where_the_search_alone_does(query, cap, spent,
                                                               expected):
    # the search alone's outcome, or an unsolvable verdict the closure
    # settled within the cap, charged to the budget with its count; the
    # closure's count for cor24_query() is 152
    got = budget_outcome(_solve_counts, query, cap, spent)
    assert got == budget_outcome(recursive_solve_counts, query, cap, spent) or (
        got[0][:2] == (False, None) and got[1] == spent + got[0][2] <= cap)
    assert got[-1] == expected


def lemma_26_lower_side(n):
    """M(C_2n) with 2^(n+1) + 2n - 3 pebbles: 2^(n+1) - 1 on v_n and 1 on
    each other original but the target v0 (37 pebbles on M(C8) at n = 4,
    71 on M(C10) at n = 5)."""
    g = middle_cycle(n)
    counts = {Original(i): 1 for i in range(1, 2 * n) if i != n}
    counts[Original(n)] = 2 ** (n + 1) - 1
    return g, Distribution(counts), Original(0)


def test_a_time_budget_stops_the_mc10_refutation():
    # the closure refutes M(C10) in 2,857,680 nodes, far past 0.2 s
    g, d, tgt = lemma_26_lower_side(5)
    with pytest.raises(BudgetExceeded, match="time budget exhausted"):
        is_solvable(g, d, tgt, budget=Budget(seconds=0.2))


def test_lemma_26_lower_side_at_n4():
    # f(M(C8)) > 37, refuted by the closure; the search alone takes 371,897
    g, d, tgt = lemma_26_lower_side(4)
    out = is_solvable(g, d, tgt)
    assert not out.solvable and out.nodes_explored == 17_168


def frozen_queries():
    """cor24_query() and mc4_t2_query(), each as it is, with one pebble added
    at any vertex, and with one pebble moved from an occupied vertex to any
    other; then the root of cor24_witness(7) on TMP(7), 2,824 nodes."""
    for g, base, ti, t in (cor24_query(), mc4_t2_query()):
        changed = [[]] + [[(+1, v)] for v in range(g.n)] + [
            [(-1, a), (+1, b)] for a in range(g.n) if base[a] for b in range(g.n) if b != a]
        for change in changed:
            vec = list(base)
            for step, v in change:
                vec[v] += step
            yield g, vec, ti, t
    d, tgt = cor24_witness(7)
    g = trimmed_middle_path(7)
    yield g, d.vector(g), g.index_of(tgt), 1


def test_solver_triples_are_frozen():
    # the verdict, witness and node count of each deep query, uncapped, and
    # where two node caps stop it, as one digest: a change to the search's
    # order, to the closure's pruning or to when the closure runs shows here
    digest = hashlib.sha256()
    for query in frozen_queries():
        g, vec, ti, t = query
        digest.update(repr(_solve_counts(g, list(vec), ti, t, None)).encode())
        for cap in (300, 1500):
            digest.update(repr(budget_outcome(_solve_counts, query, cap)).encode())
    assert digest.hexdigest() == (
        "20c7e83c83eb3f41465791b5c634c47d69b3471cd8cf9d162de04692be148598")


# -- enumeration -------------------------------------------------------------

def test_weak_compositions_count_and_order():
    rows = list(weak_compositions(4, 3))
    assert len(rows) == comb(4 + 2, 2)
    assert len(set(rows)) == len(rows)
    assert all(sum(r) == 4 for r in rows)
    # colexicographic: compare reversed tuples
    assert rows == sorted(rows, key=lambda r: r[::-1])


def recursive_weak_compositions(k, parts):
    """The colex order, by recursion on the last coordinate: the reference
    the iterative generator must reproduce."""
    if parts == 1:
        yield (k,)
        return
    for last in range(k + 1):
        for rest in recursive_weak_compositions(k - last, parts - 1):
            yield rest + (last,)


def test_weak_compositions_match_the_recursive_order():
    for k in range(7):
        for parts in range(1, 7):
            assert list(weak_compositions(k, parts)) == \
                list(recursive_weak_compositions(k, parts)), (k, parts)


def test_weak_compositions_reject_bad_input_and_take_many_parts():
    for k, parts in ((-1, 1), (2, 0), (0, -3)):
        with pytest.raises(InvalidParameter):
            list(weak_compositions(k, parts))
    # deeper than the recursion limit: one row per position of the pebble
    rows = list(weak_compositions(1, 2000))
    assert len(rows) == 2000
    assert rows[0][0] == 1 and rows[-1][-1] == 1
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]


# -- sweeps and pebbling numbers ---------------------------------------------

def test_sweep_level_finds_counterexample():
    g = path(3)
    res = sweep_level(g, 3, Original(3))
    assert not res.all_solvable
    assert not is_solvable(g, res.counterexample, Original(3)).solvable


def test_sweep_level_all_solvable():
    g = path(3)
    assert sweep_level(g, 4, Original(3)).all_solvable


def test_sweep_level_returns_the_first_unsolvable_row():
    # not the first row certified by the potential alone, which on C6 is
    # {v5:7}: the first unsolvable row comes earlier
    g = cycle(6)
    res = sweep_level(g, 7, Original(2))
    assert res.counterexample == Distribution(
        {Original(0): 1, Original(4): 1, Original(5): 5})
    rows = [Distribution.from_vector(g, vec) for vec in weak_compositions(7, g.n)]
    assert rows.index(res.counterexample) == res.checked - 1


def test_sweep_level_rejects_bad_parameters():
    g = path(3)
    with pytest.raises(InvalidParameter):
        sweep_level(g, -1, Original(3))
    with pytest.raises(InvalidParameter):
        sweep_level(g, 4, Original(3), t=0)


def test_path_pebbling_numbers():
    # 2^(n-1), not the off-by-one 2^n - 1
    for n in range(2, 6):
        assert compute_pebbling(path(n)).value == 1 << (n - 1)


def test_complete_pebbling_numbers():
    for n in range(2, 6):
        assert compute_pebbling(complete(n)).value == n


def test_cycle_pebbling_number():
    assert compute_pebbling(cycle(5)).value == 5
    assert compute_pebbling(cycle(6)).value == 8


def test_compute_pebbling_rejects_t_below_one():
    with pytest.raises(InvalidParameter):
        compute_pebbling(path(3), t=0)


def test_per_target_report():
    rep = compute_pebbling(path(3))
    assert rep.value == 4
    assert rep.per_target[Original(3)] == 4
    assert rep.per_target[Original(2)] == 3
    d, tgt = rep.witness
    assert not is_solvable(path(3), d, tgt).solvable
    assert d.total == rep.value - 1


def test_t_pebbling_monotone_in_t():
    g = cycle(4)
    vals = [compute_pebbling(g, t=t).value for t in (1, 2, 3)]
    assert vals[0] == 4
    assert vals == sorted(vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pebbling_number_vertex():
    g = path(4)
    assert compute_pebbling(g, targets=[Original(4)]).value == 8
    # {v1:1, v4:3} is stuck for v2, so 4 pebbles are not enough
    assert compute_pebbling(g, targets=[Original(2)]).value == 5


def test_t_pebbling_counts_beyond_a_byte():
    # f_t(P2) = 2t; the DP's packed counts must not wrap above 255
    assert compute_pebbling(path(2), t=130).value == 260


# -- the down-set DP against the level sweep and the unpruned search ---------

# (graph, t values, targets to check against the sweep; None means all).
# The sweep of the all-solvable level dominates the cost, so the larger
# graphs are checked at fewer t or at one target of each orbit under
# their automorphisms.
DP_DIFFERENTIAL = [
    pytest.param(path(2), (1, 2, 3), None, id="P2"),
    pytest.param(path(3), (1, 2, 3), None, id="P3"),
    pytest.param(path(4), (1, 2, 3), None, id="P4"),
    pytest.param(cycle(4), (1, 2, 3), [Original(0)], id="C4"),
    pytest.param(cycle(5), (1, 2, 3), [Original(0)], id="C5"),
    pytest.param(cycle(6), (1, 2, 3), [Original(0)], id="C6"),
    pytest.param(cycle(7), (1, 2), [Original(0)], id="C7"),
    pytest.param(complete(4), (1, 2, 3), [Original(1)], id="K4"),
    pytest.param(trimmed_middle_path(4), (1, 2, 3), None, id="TMP4"),
    pytest.param(trimmed_middle_path(5), (1,), None, id="TMP5"),
    pytest.param(middle_cycle(2), (1,), [Original(0), cycle_u(4, 0)], id="MC4"),
    pytest.param(cartesian_product(path(2), path(3)), (1, 2), None, id="P2xP3"),
]


@pytest.mark.parametrize("g,ts,targets", DP_DIFFERENTIAL)
def test_dp_matches_level_sweep(g, ts, targets):
    for t in ts:
        rep = compute_pebbling(g, t=t)
        best = None
        for lab in targets or g.vertices:
            f = rep.per_target[lab]
            one = compute_pebbling(g, targets=[lab], t=t)
            below = sweep_level(g, f - 1, lab, t)
            assert not below.all_solvable
            assert sweep_level(g, f, lab, t).all_solvable
            assert one.per_target == {lab: f}
            assert one.witness == (below.counterexample, lab)
            if f == rep.value and best is None:
                best = one.witness
        if targets is None:
            assert rep.witness == best


def test_dp_matches_unpruned_search():
    for g in (path(2), path(3), path(4), cycle(4), cycle(5), complete(4),
              trimmed_middle_path(4)):
        assert g.n <= 5
        for t in (1, 2, 3):
            for ti, lab in enumerate(g.vertices):
                rep = compute_pebbling(g, targets=[lab], t=t)
                f = rep.value
                solvable = brute_solver(g, ti, t)
                first = next(vec for vec in weak_compositions(f - 1, g.n)
                             if not solvable(vec))
                assert rep.witness == (Distribution.from_vector(g, first), lab)
                assert all(map(solvable, weak_compositions(f, g.n)))


def allpairs_downset_dp(g, ti, t):
    """The DP's level step before candidates had one parent: every u in
    U_{k-1} plus every e_v, deduplicated by a set, each field read by shift
    and mask, every field tested, no potential. Keys are packed in its own
    pigeonhole layout, one width for every field, independent of the
    engine's. Returns (f_t, colex-first witness vector, candidates, U_{f-1}
    as count vectors)."""
    ecc = max(g.distances_from(ti))
    bits = ((g.n - 1) * ((t << ecc) - 1) + t).bit_length()
    mask = (1 << bits) - 1
    units = [1 << bits * v for v in range(g.n)]
    moves = [(bits * a, [2 * units[a] - units[b] for b in g.neighbors[a]])
             for a in range(g.n)]
    k, prev, checked = 0, {0}, 0

    def stuck(c):
        return all(c - d in prev for s, deltas in moves if (c >> s) & mask >= 2
                   for d in deltas)
    while True:
        cand = {u + e for u in prev for e in units}
        checked += len(cand)
        cur = {c for c in cand if (c >> bits * ti) & mask < t and stuck(c)}
        if not cur:
            break
        k, prev = k + 1, cur
    vectors = sorted(([(c >> bits * v) & mask for v in range(g.n)] for c in prev),
                     key=lambda vec: vec[::-1])  # colex
    return k + 1, vectors[0], checked, vectors


def saved_vectors(entry):
    """The members of a saved checkpoint level as count vectors, read in the
    field widths the entry names."""
    widths = entry["widths"]
    shifts = [sum(widths[:v]) for v in range(len(widths))]
    return sorted(([(c >> s) & ((1 << w) - 1) for w, s in zip(widths, shifts)]
                   for c in entry["unsolvable"]), key=lambda vec: vec[::-1])


# (graph, t values, targets; None means all). Vertex-transitive graphs are
# checked at one target, M(C4) and P3xP3 at one target of each orbit of
# their automorphisms, as in DP_DIFFERENTIAL. Left out because the
# reference alone takes seconds on them: TMP(5) at t=3 (1.8 s), Petersen
# at t=3 (3.5 s) and P3xP3 at t=3 (about 12 s).
ONE_PARENT_DIFFERENTIAL = [
    pytest.param(path(2), (1, 2, 3), None, id="P2"),
    pytest.param(path(3), (1, 2, 3, 4), None, id="P3"),
    pytest.param(path(4), (1, 2, 3, 4), None, id="P4"),
    pytest.param(path(5), (1, 2, 3), None, id="P5"),
    pytest.param(cycle(4), (1, 2, 3), [Original(0)], id="C4"),
    pytest.param(cycle(5), (1, 2, 3, 4), [Original(0)], id="C5"),
    pytest.param(cycle(6), (1, 2, 3), [Original(0)], id="C6"),
    pytest.param(cycle(7), (1, 2, 3), [Original(0)], id="C7"),
    pytest.param(complete(4), (1, 2, 3), [Original(1)], id="K4"),
    pytest.param(trimmed_middle_path(4), (1, 2, 3), None, id="TMP4"),
    pytest.param(trimmed_middle_path(5), (1, 2), None, id="TMP5"),
    pytest.param(middle_cycle(2), (1, 2, 3), [Original(0), cycle_u(4, 0)], id="MC4"),
    pytest.param(cartesian_product(path(2), path(3)), (1, 2, 3), None, id="P2xP3"),
    pytest.param(cartesian_product(path(3), path(3)), (1, 2),
                 [Pair(Original(1), Original(1)), Pair(Original(1), Original(2)),
                  Pair(Original(2), Original(2))], id="P3xP3"),
    pytest.param(petersen(), (1, 2), [Original(0)], id="Petersen"),
]


@pytest.mark.parametrize("g,ts,targets", ONE_PARENT_DIFFERENTIAL)
def test_one_parent_candidates_match_all_pairs_step(g, ts, targets, tmp_path):
    # Lemma: removing a pebble never makes a distribution solvable, so every
    # c in U_k has its parent c - e_top(c) in U_{k-1}, and extending each u
    # only at vertices >= top(u) loses no member of U_k. The weight function
    # lemma (the potential never rises under a move) lets the engine keep a
    # candidate of potential below t untested, and a vertex holding fewer
    # than 2 pebbles has no move to test; the reference uses neither, and
    # the last level the engine saves must equal the reference's U_{f-1},
    # compared as count vectors, since the two pack them differently. At
    # t = 1, 2 and 4 every t*2^dist(v) is a power of two, so only the
    # headroom values t*2^dist(v) and t*2^dist(v) + 1, which no member
    # holds, set a field's top bit; t = 4 tries that with wider fields.
    for t in ts:
        for lab in targets or g.vertices:
            value, vec, cands, last = allpairs_downset_dp(g, g.index_of(lab), t)
            cp_file = str(tmp_path / f"cp-{t}-{lab}.json")
            rep = compute_pebbling(g, targets=[lab], t=t,
                                   checkpoint=SweepCheckpoint(cp_file))
            assert rep.value == value, (lab, t)
            assert rep.witness == (Distribution.from_vector(g, vec), lab), (lab, t)
            assert rep.distributions_checked <= cands, (lab, t)
            with open(cp_file) as fh:
                (entry,) = json.load(fh)["levels"].values()
            assert entry["k"] == value - 1, (lab, t)
            assert saved_vectors(entry) == last, (lab, t)


@pytest.mark.parametrize("g,target,t,counts", [
    (trimmed_middle_path(6), path_u(1), 1, (20, 16378, 1430)),
    (middle_cycle(2), Original(0), 2, (18, 13678, 1430)),
], ids=["TMP6-u(1,2)", "t2-MC4-v0"])
def test_dp_counts_are_frozen(g, target, t, counts):
    # Frozen values: the potential rule and the rich-vertex mask change how
    # a candidate is tested, never which candidates or levels there are.
    rep = compute_pebbling(g, targets=[target], t=t)
    assert (rep.value, rep.distributions_checked, rep.max_level) == counts


def test_budget_charges_one_node_per_candidate():
    g = middle_cycle(2)
    rep = compute_pebbling(g)
    assert compute_pebbling(g, budget=Budget(node_cap=rep.distributions_checked)) == rep
    with pytest.raises(BudgetExceeded):
        compute_pebbling(g, budget=Budget(node_cap=rep.distributions_checked - 1))


def test_lemma_26_at_n3():
    # rotations of C6 act transitively on the originals and on the edge
    # vertices, so these two targets give f(M(C6)) = 20
    g = middle_cycle(3)
    rep = compute_pebbling(g, targets=[Original(0)])
    assert rep.value == 20
    d, tgt = rep.witness
    assert d.total == 19 and not is_solvable(g, d, tgt).solvable
    assert compute_pebbling(g, targets=[cycle_u(6, 0)]).value == 16


# -- one DP per target orbit --------------------------------------------------

ORBIT_GRAPHS = [
    pytest.param(cartesian_product(path(3), path(3)), 3, id="P3xP3"),
    pytest.param(cartesian_product(path(2), path(4)), 2, id="P2xP4"),
    pytest.param(middle_cycle(2), 2, id="MC4"),
    pytest.param(trimmed_middle_path(5), 3, id="TMP5"),
    pytest.param(cycle(7), 1, id="C7"),
    pytest.param(complete(5), 1, id="K5"),
    pytest.param(petersen(), 1, id="Petersen"),
    pytest.param(asymmetric_graph(), 6, id="asymmetric"),
]


@pytest.mark.parametrize("g,orbits", ORBIT_GRAPHS)
def test_orbit_dp_matches_one_target_runs(g, orbits):
    for t in (1, 2):
        rep = compute_pebbling(g, t=t)
        ones = {lab: compute_pebbling(g, targets=[lab], t=t) for lab in g.vertices}
        assert rep.per_target == {lab: one.value for lab, one in ones.items()}
        assert rep.witness == next(one.witness for one in ones.values()
                                   if one.value == rep.value)
        assert len(rep.dp_targets) == orbits
        assert rep.distributions_checked == sum(
            ones[lab].distributions_checked for lab in rep.dp_targets)


def test_duplicate_targets_run_the_dp_once():
    g = middle_cycle(2)
    one = compute_pebbling(g, targets=[Original(2)])
    rep = compute_pebbling(g, targets=[Original(2), cycle_u(4, 0), Original(0),
                                       Original(2)])
    assert rep.dp_targets == [Original(2), cycle_u(4, 0)]
    assert rep.per_target == {Original(2): 10, cycle_u(4, 0): 9, Original(0): 10}
    assert rep.witness == one.witness
    assert rep.distributions_checked == one.distributions_checked + compute_pebbling(
        g, targets=[cycle_u(4, 0)]).distributions_checked


def test_empty_target_list_raises():
    with pytest.raises(InvalidParameter):
        compute_pebbling(path(3), targets=[])


def test_compute_pebbling_resumes_from_checkpoint(tmp_path):
    g = middle_cycle(2)
    whole = compute_pebbling(g, t=2)
    cp_file = str(tmp_path / "cp.json")
    with pytest.raises(BudgetExceeded):
        compute_pebbling(g, t=2, budget=Budget(node_cap=whole.distributions_checked // 2),
                         checkpoint=SweepCheckpoint(cp_file))
    budget = Budget()
    resumed = compute_pebbling(g, t=2, budget=budget, checkpoint=SweepCheckpoint(cp_file))
    assert resumed == whole
    assert budget.nodes < whole.distributions_checked  # it did not start over


@pytest.mark.parametrize("edit", [
    lambda e: e.update(k=2),
    lambda e: e.update(k=True),
    lambda e: e.update(candidates=-1),
    lambda e: e.pop("max_level"),
    lambda e: e.update(unsolvable=[]),
    lambda e: e.update(unsolvable=[3.0]),
    lambda e: e.update(unsolvable=[3 << 5]),           # 3 pebbles on the target v3
    lambda e: e.update(unsolvable=[3 + (1 << 7)]),     # a field past the last vertex
    lambda e: e.update(bits=3) or e.pop("widths"),     # 3 bits per vertex, as once saved
    lambda e: e.update(unsolvable=[1 + (2 << 3)]),     # 2 pebbles on v2 pay the toll alone
], ids=["wrong-size", "boolean-size", "negative-count", "missing-field",
        "empty-level", "float-member", "member-covers-target", "member-overflows",
        "old-layout", "member-pays-the-toll"])
def test_checkpoint_rejects_a_level_not_as_saved(tmp_path, edit):
    # P3 with target v3: fields of 3, 2 and 2 bits at offsets 0, 3 and 5
    # (sized for 5, 3 and 2 pebbles), and the saved level is U_3 = {(3, 0, 0)}
    g, target = path(3), [Original(3)]
    cp_file = str(tmp_path / "cp.json")
    compute_pebbling(g, targets=target, checkpoint=SweepCheckpoint(cp_file))
    with open(cp_file) as fh:
        data = json.load(fh)
    (entry,) = data["levels"].values()
    assert entry["widths"] == [3, 2, 2] and entry["k"] == 3 and entry["unsolvable"] == [3]
    edit(entry)
    with open(cp_file, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(InvalidParameter, match=re.escape(cp_file)):
        compute_pebbling(g, targets=target, checkpoint=SweepCheckpoint(cp_file))


@pytest.mark.parametrize("raw", [b"{bad", b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-json", "not-utf8", "too-deep"])
def test_checkpoint_that_is_not_json_names_its_file(tmp_path, raw):
    cp_file = tmp_path / "cp.json"
    cp_file.write_bytes(raw)
    with pytest.raises(InvalidParameter, match=re.escape(str(cp_file))):
        compute_pebbling(path(3), checkpoint=SweepCheckpoint(str(cp_file)))
    assert cp_file.read_bytes() == raw


def test_budget_exhaustion_raises():
    g = middle_cycle(3)
    with pytest.raises(BudgetExceeded):
        compute_pebbling(g, budget=Budget(node_cap=1000))


def test_a_zero_time_budget_is_spent_at_the_first_node():
    # a cap of 0 seconds is a cap, as a cap of 0 nodes is; no cap is None
    with pytest.raises(BudgetExceeded, match="time budget exhausted"):
        compute_pebbling(path(3), budget=Budget(seconds=0))


@pytest.mark.parametrize("kwargs", [
    dict(node_cap=-5), dict(seconds=-1), dict(seconds=float("nan")),
], ids=["negative-nodes", "negative-seconds", "nan-seconds"])
def test_a_negative_or_nan_budget_is_invalid(kwargs):
    # once a cap spent at the first node, reported as "inconclusive"
    with pytest.raises(InvalidParameter):
        Budget(**kwargs)


@pytest.mark.parametrize("var", ["PEBBLEKIT_NODE_BUDGET", "PEBBLEKIT_TIME_BUDGET"])
def test_budget_from_env_names_an_unparsable_variable(monkeypatch, var):
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    monkeypatch.setenv(var, "abc")
    with pytest.raises(InvalidParameter, match=var):
        Budget.from_env()


def test_lower_bound_certified():
    for g in (path(4), cycle(6), middle_cycle(2)):
        value, witnesses = lower_bound(g)
        assert value == max(g.n, 1 << g.diameter())
        assert witnesses  # each was re-certified unsolvable inside


def test_cold_import_stays_light():
    # a fresh interpreter that finds the same pebblekit as this one; every
    # CLI run pays for what importing the package loads. -S: a .pth file in
    # site-packages may import typing itself
    src = os.path.dirname(os.path.dirname(pebblekit.__file__))
    code = ("import sys, pebblekit.cli; print(sorted(m for m in "
            "('numpy', 'dataclasses', 'inspect', 'typing', 'hashlib', 'fractions') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
