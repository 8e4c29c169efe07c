"""Property-based checks for the core invariants."""

import random
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.engine import (Distribution, Move, _layout, apply_move, is_solvable,
                              potential, replay, weak_compositions)
from pebblekit.graphs import (Graph, Original, complete, cycle, middle_cycle,
                              path, trimmed_middle_path)
from pebblekit.strategies import greedy_solver

from test_engine import closure_to_the_end, closure_yields, recursive_solve_counts

POOL = [path(4), path(5), cycle(5), cycle(6), complete(4),
        trimmed_middle_path(4), middle_cycle(2)]


@st.composite
def graph_dist_target(draw, max_pebbles=12):
    g = draw(st.sampled_from(POOL))
    vec = draw(st.lists(st.integers(0, max_pebbles), min_size=g.n, max_size=g.n))
    ti = draw(st.integers(0, g.n - 1))
    return g, Distribution.from_vector(g, vec), g.vertices[ti]


@given(graph_dist_target())
@settings(max_examples=200, deadline=None)
def test_potential_never_increases_under_moves(case):
    g, d, target = case
    movable = [v for v in range(g.n) if d.get(g.vertices[v]) >= 2]
    if not movable:
        return
    rng = random.Random(str(d.counts))
    src = rng.choice(movable)
    dst = rng.choice(g.neighbors[src])
    before = potential(g, d, target)
    after = potential(g, apply_move(g, d, Move(g.vertices[src], g.vertices[dst])), target)
    assert after <= before


@given(graph_dist_target(max_pebbles=6))
@settings(max_examples=100, deadline=None)
def test_moves_decrease_total_by_one(case):
    g, d, _ = case
    for v in range(g.n):
        lab = g.vertices[v]
        if d.get(lab) >= 2:
            out = apply_move(g, d, Move(lab, g.vertices[g.neighbors[v][0]]))
            assert out.total == d.total - 1
            return


@given(graph_dist_target(max_pebbles=5))
@settings(max_examples=150, deadline=None)
def test_witness_replay_validity(case):
    g, d, target = case
    outcome = is_solvable(g, d, target)
    if outcome.solvable:
        final = replay(g, d, outcome.witness)
        assert final.get(target) >= 1
    else:
        # the certificate claim: no single extra check contradicts it
        assert d.get(target) == 0


@given(graph_dist_target(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_greedy_runs_the_solvers_shortcuts(case, t):
    """greedy_solver and the solver share their cheap stages: the greedy
    succeeds exactly when the solver settles the query with no search node,
    with the same moves, and reports what its moves deliver."""
    g, d, target = case
    rep = greedy_solver(g, d, target, t)
    outcome = is_solvable(g, d, target, t)
    assert rep.succeeded == (outcome.solvable and outcome.nodes_explored == 0)
    if rep.succeeded:
        assert rep.sequence == outcome.witness
    assert rep.delivered == replay(g, d, rep.sequence).get(target)


@given(graph_dist_target(max_pebbles=4), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_solvability_monotone_under_addition(case, where):
    g, d, target = case
    if not is_solvable(g, d, target).solvable:
        return
    lab = g.vertices[where % g.n]
    richer = Distribution({**d.counts, lab: d.get(lab) + 1})
    assert is_solvable(g, richer, target).solvable


@given(st.sampled_from(POOL + [trimmed_middle_path(5)]), st.data())
@settings(max_examples=200, deadline=None)
def test_closure_agrees_with_the_unpruned_search(g, data):
    """The closure skips a distribution that one it expands dominates, by the
    monotonicity lemma: a distribution at least as large at every vertex is
    t-solvable whenever the smaller one is. Driven to its end on a root the
    search's shortcuts leave open, it must give the unpruned search's verdict
    and, refuting, count no more nodes."""
    ti = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(1, 3))
    vec = [0] * g.n
    for v in data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)):
        if v != ti or vec[v] + 1 < t:  # the target stays short of t
            vec[v] += 1
    dist = g.distances_from(ti)
    if sum(c << (max(dist) - d) for c, d in zip(vec, dist)) < t << max(dist):
        return  # the potential cutoff settles it before the search starts
    ok, _, nodes = recursive_solve_counts(g, list(vec), ti, t)
    reached = closure_to_the_end(g, vec, ti, t)
    assert reached is None if ok else reached <= nodes


def pack(vec, shifts):
    return sum(c << s for c, s in zip(vec, shifts))


def unpack(key, widths, shifts):
    return [(key >> s) & ((1 << w) - 1) for w, s in zip(widths, shifts)]


@st.composite
def layout_case(draw):
    """A graph, t, a target, and two count vectors holding up to
    t*2^dist(v) + 1 on each vertex v."""
    g = draw(st.sampled_from([path(4), cycle(5), complete(4), trimmed_middle_path(4),
                              middle_cycle(2)]))
    t = draw(st.integers(1, 4))
    ti = draw(st.integers(0, g.n - 1))
    dist = g.distances_from(ti)
    vecs = st.tuples(*(st.integers(0, (t << d) + 1) for d in dist)).map(list)
    return g, t, ti, draw(vecs), draw(vecs)


@given(layout_case(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_the_layout_never_carries_and_keeps_colex_order(case, extra):
    """The toll lemma: a vertex v holding t*2^dist(v) pebbles pays the toll
    of t pebbles on the target alone, so an unsolvable distribution holds at
    most t*2^dist(v) - 1 on v, and a key the DP or the closure forms from
    one at most t*2^dist(v) + 1. Every count vector up to that packs and
    unpacks to itself (the largest of them included), and packed integer
    order is colex order. A closure root holding its toll or more on one
    vertex is found rich before anything is packed."""
    g, t, ti, a, b = case
    dist = g.distances_from(ti)
    widths, shifts = _layout(dist, t)
    for vec in (a, b, [(t << d) + 1 for d in dist]):
        assert unpack(pack(vec, shifts), widths, shifts) == vec
    assert (pack(a, shifts) < pack(b, shifts)) == (a[::-1] < b[::-1])

    v = max(range(g.n), key=dist.__getitem__)  # a vertex farthest from the target
    root = list(a)
    root[ti] = min(root[ti], t - 1)
    root[v] = (t << dist[v]) + extra
    assert closure_yields(g, root, ti, t) == [(None, True)]


@given(st.sampled_from(POOL))
@settings(max_examples=20, deadline=None)
def test_hops_toward_takes_the_smallest_closer_neighbor(g):
    """At every target r: -1 at r, and elsewhere the smallest-index neighbor
    one step closer to r; the table is cached, one object per target."""
    for r in range(g.n):
        dist, hop = g.distances_from(r), g.hops_toward(r)
        assert hop[r] == -1 and g.hops_toward(r) is hop
        for v in range(g.n):
            if v != r:
                assert g.has_edge(v, hop[v]) and dist[hop[v]] == dist[v] - 1
                assert all(dist[w] >= dist[v] for w in g.neighbors[v] if w < hop[v])


@given(graph_dist_target())
@settings(max_examples=100, deadline=None)
def test_distribution_json_roundtrip(case):
    _, d, _ = case
    assert Distribution.from_json_dict(d.to_json_dict()) == d


@given(st.sampled_from(POOL))
@settings(max_examples=20, deadline=None)
def test_graph_json_roundtrip(g):
    assert Graph.from_json(g.to_json()) == g


@given(st.integers(0, 7), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_weak_compositions_complete_and_distinct(k, parts):
    rows = list(weak_compositions(k, parts))
    assert len(rows) == comb(k + parts - 1, parts - 1)
    assert len(set(rows)) == len(rows)
    assert all(sum(r) == k and min(r) >= 0 for r in rows)


@given(st.integers(1, 10), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_potential_bounds(n, pebbles):
    g = path(n)
    d = Distribution({Original(1): pebbles})
    pot = potential(g, d, Original(n))
    assert 0 <= pot <= pebbles
    if n == 1:
        assert pot == pebbles
