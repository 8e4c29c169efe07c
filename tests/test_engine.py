import hashlib
import json
import math
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
from pebblekit.engine import (CLOSURE_EVERY, Budget, Distribution, Move,
                              MoveSequence, SweepCheckpoint, _closure, _drain_route,
                              _greedy_counts, _solve_counts,
                              apply_move, compute_pebbling,
                              is_solvable,
                              lower_bound, pebbling_number,
                              pebbling_number_vertex, potential, replay,
                              sweep_level, t_pebbling_number,
                              weak_compositions)
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
    recursive reference."""
    got = _solve_counts(g, list(vec), ti, t, None)
    assert got == recursive_solve_counts(g, list(vec), ti, t), (g, vec, ti, t)
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
    """cor24_witness(6) at u(1,2): unsolvable, 1,686 search nodes."""
    d, tgt = cor24_witness(6)
    g = trimmed_middle_path(6)
    return g, d.vector(g), g.index_of(tgt), 1


def mc4_t2_query(extra=None):
    """The f_2(M(C4), v0) witness {v1:1, v2:15, v3:1}: unsolvable, 1,256
    search nodes; with a pebble added at vertex index 7, solvable in 1,552."""
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
    # both roots are refuted past the first probe, and two solvable
    # neighbours run the closure before the search finds a witness
    assert sorted(n for n in nodes.values() if n >= CLOSURE_EVERY) == [257, 1256, 1552, 1686]


def closure_to_the_end(g, vec, ti, t):
    """Drive the closure alone with no limit: its node count, or None."""
    dist = g.distances_from(ti)
    ecc = max(dist)
    weights = [1 << (ecc - d) for d in dist]
    run = _closure(g, list(vec), ti, t, dist, weights, t << ecc)
    next(run)
    with pytest.raises(StopIteration) as stop:
        run.send(math.inf)
    return stop.value.value


def test_closure_counts_the_search_nodes_and_finds_solvable_roots():
    # on every root the search's shortcuts leave open: the search's count
    # when it refutes, and None (solvable) when it does not
    runs = refuted = 0
    for g in (path(4), cycle(5), complete(4), trimmed_middle_path(4),
              middle_cycle(2)):
        for k in range(7):
            for vec in weak_compositions(k, g.n):
                for ti in range(g.n):
                    dist = g.distances_from(ti)
                    pot = sum(c << (max(dist) - d) for c, d in zip(vec, dist))
                    for t in (1, 2, 3):
                        if vec[ti] >= t or pot < t << max(dist):
                            continue
                        ok, _, nodes = _solve_counts(g, list(vec), ti, t, None)
                        assert closure_to_the_end(g, vec, ti, t) == (
                            None if ok else nodes), (g, vec, ti, t)
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
    (cor24_query(), 1686, 0, 1686),
    (cor24_query(), 1685, 0, 1686),
    (cor24_query(), 300, 0, 301),
    (cor24_query(), 2000, 314, 2000),
    (cor24_query(), 2000, 315, 2001),
    (mc4_t2_query(7), 1552, 0, 1552),
    (mc4_t2_query(7), 1551, 0, 1552),
], ids=["cor24-cap-1686", "cor24-cap-1685", "cor24-cap-300", "cor24-shared-room",
        "cor24-shared-one-short", "solvable-cap-1552", "solvable-cap-1551"])
def test_closure_spends_a_node_cap_where_the_search_alone_does(query, cap, spent,
                                                               expected):
    got = budget_outcome(_solve_counts, query, cap, spent)
    assert got == budget_outcome(recursive_solve_counts, query, cap, spent)
    assert got[-1] == expected


def lemma_26_lower_side_at_n4():
    """M(C8) with 2^5 + 8 - 3 = 37 pebbles: 31 on v4 and 1 on each other
    original but the target v0."""
    g = middle_cycle(4)
    counts = {Original(i): 1 for i in (1, 2, 3, 5, 6, 7)}
    counts[Original(4)] = 31
    return g, Distribution(counts), Original(0)


def test_a_time_budget_stops_the_mc8_refutation():
    g, d, tgt = lemma_26_lower_side_at_n4()
    with pytest.raises(BudgetExceeded, match="time budget exhausted"):
        is_solvable(g, d, tgt, budget=Budget(seconds=0.2))


def test_lemma_26_lower_side_at_n4():
    # f(M(C8)) > 37, refuted with the count the search alone reaches
    g, d, tgt = lemma_26_lower_side_at_n4()
    out = is_solvable(g, d, tgt)
    assert not out.solvable and out.nodes_explored == 371_897


def frozen_queries():
    """cor24_query() and mc4_t2_query(), each as it is, with one pebble added
    at any vertex, and with one pebble moved from an occupied vertex to any
    other; then the root of cor24_witness(7) on TMP(7), 56,113 nodes."""
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
    # where two node caps stop it, as one digest: however the closure is
    # scheduled beside the search, none of them may change
    digest = hashlib.sha256()
    for query in frozen_queries():
        g, vec, ti, t = query
        digest.update(repr(_solve_counts(g, list(vec), ti, t, None)).encode())
        for cap in (300, 1500):
            digest.update(repr(budget_outcome(_solve_counts, query, cap)).encode())
    assert digest.hexdigest() == (
        "9f905fb53bcb3dee37b39e4f2e2dc1d7863bfc53b962d4d902785d53de5ca167")


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
        assert pebbling_number(path(n)) == 1 << (n - 1)


def test_complete_pebbling_numbers():
    for n in range(2, 6):
        assert pebbling_number(complete(n)) == n


def test_cycle_pebbling_number():
    assert pebbling_number(cycle(5)) == 5
    assert pebbling_number(cycle(6)) == 8


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
    vals = [t_pebbling_number(g, t) for t in (1, 2, 3)]
    assert vals[0] == 4
    assert vals == sorted(vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pebbling_number_vertex():
    g = path(4)
    assert pebbling_number_vertex(g, Original(4)) == 8
    # {v1:1, v4:3} is stuck for v2, so 4 pebbles are not enough
    assert pebbling_number_vertex(g, Original(2)) == 5


def test_t_pebbling_counts_beyond_a_byte():
    # f_t(P2) = 2t; the DP's packed counts must not wrap above 255
    assert t_pebbling_number(path(2), 130) == 260


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
    and mask, every field tested, no potential. Returns (f_t, colex-first
    witness vector, candidates, U_{f-1} packed with the engine's bits)."""
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
    first = min(prev)
    return k + 1, [(first >> bits * v) & mask for v in range(g.n)], checked, prev


# (graph, t values, targets; None means all). Vertex-transitive graphs are
# checked at one target, M(C4) and P3xP3 at one target of each orbit of
# their automorphisms, as in DP_DIFFERENTIAL. Left out because the
# reference alone takes seconds on them: TMP(5) at t=3 (1.8 s), Petersen
# at t=3 (3.5 s) and P3xP3 at t=3 (about 12 s).
ONE_PARENT_DIFFERENTIAL = [
    pytest.param(path(2), (1, 2, 3), None, id="P2"),
    pytest.param(path(3), (1, 2, 3), None, id="P3"),
    pytest.param(path(4), (1, 2, 3), None, id="P4"),
    pytest.param(path(5), (1, 2, 3), None, id="P5"),
    pytest.param(cycle(4), (1, 2, 3), [Original(0)], id="C4"),
    pytest.param(cycle(5), (1, 2, 3), [Original(0)], id="C5"),
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
    # the last level the engine saves must equal the reference's U_{f-1}.
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
            assert entry["unsolvable"] == sorted(last), (lab, t)


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
    assert pebbling_number_vertex(g, cycle_u(6, 0)) == 16


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
    lambda e: e.update(unsolvable=[3 << 6]),           # 3 pebbles on the target v3
    lambda e: e.update(unsolvable=[3 + (1 << 9)]),     # a field past the last vertex
], ids=["wrong-size", "boolean-size", "negative-count", "missing-field",
        "empty-level", "float-member", "member-covers-target", "member-overflows"])
def test_checkpoint_rejects_a_level_not_as_saved(tmp_path, edit):
    # P3 with target v3: 3 bits per vertex, and the saved level is U_3
    g, target = path(3), [Original(3)]
    cp_file = str(tmp_path / "cp.json")
    compute_pebbling(g, targets=target, checkpoint=SweepCheckpoint(cp_file))
    with open(cp_file) as fh:
        data = json.load(fh)
    (entry,) = data["levels"].values()
    assert entry["bits"] == 3 and entry["k"] == 3
    edit(entry)
    with open(cp_file, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(InvalidParameter, match=re.escape(cp_file)):
        compute_pebbling(g, targets=target, checkpoint=SweepCheckpoint(cp_file))


@pytest.mark.parametrize("raw", [b"{bad", b"\xff\xfe"], ids=["not-json", "not-utf8"])
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
