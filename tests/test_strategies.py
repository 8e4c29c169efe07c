import hashlib
import random

import numpy as np
import pytest

from pebblekit.engine import Distribution, Move, is_solvable, replay, weak_compositions
from pebblekit.errors import InvalidParameter, PreconditionNotMet, UnknownVertex
from pebblekit.graphs import (EdgeVertex, Graph, Original, Pair,
                              cartesian_product, cycle_u, middle_cycle, path,
                              path_u, trimmed_middle_path)
from pebblekit.strategies import (PathContext, _mc_half_frame, _mc_perm,
                                  _tmp_mirror, collect_on_path, cor24_witness,
                                  greedy_solver, mc_pebbling_bound,
                                  middle_cycle_t_strategy,
                                  middle_path_strategy, path_weight,
                                  product_collection_strategy)


# -- path weight and collection ----------------------------------------------

def _path_ctx(n, counts, k):
    g = path(n)
    labels = [Original(i) for i in range(1, n + 1)]
    return PathContext(g, labels, Distribution(counts), k)


def test_path_weight_one_sided():
    # all weight on v_1, target v_n: a pebble there weighs 2^0
    ctx = _path_ctx(4, {Original(1): 5}, 4)
    assert path_weight(ctx) == 5
    ctx = _path_ctx(4, {Original(3): 5}, 4)
    assert path_weight(ctx) == 5 * 4


def test_path_weight_two_sided():
    # both endpoints are at distance 2 from v_3 and weigh 2^0 each
    ctx = _path_ctx(5, {Original(1): 1, Original(5): 1}, 3)
    assert path_weight(ctx) == 2
    # the target's own pebbles never count
    ctx = _path_ctx(5, {Original(3): 9}, 3)
    assert path_weight(ctx) == 0


def test_path_weight_matches_definition():
    n, k = 6, 4
    counts = {Original(1): 2, Original(3): 1, Original(5): 4, Original(6): 1}
    ctx = _path_ctx(n, counts, k)
    expected = 2 * 2 ** 0 + 1 * 2 ** 2 + 4 * 2 ** (6 - 5) + 1 * 2 ** 0
    assert path_weight(ctx) == expected


def test_collect_end_target_single():
    ctx = _path_ctx(3, {Original(1): 4}, 3)
    rep = collect_on_path(ctx, 1)
    assert rep.succeeded and rep.delivered == 1 and len(rep.sequence) == 3
    final = replay(ctx.graph, ctx.distribution, rep.sequence)
    assert final.get(Original(3)) == 1


def test_collect_end_target_double():
    ctx = _path_ctx(3, {Original(1): 8}, 3)
    rep = collect_on_path(ctx, 2)
    assert rep.succeeded and rep.delivered == 2


def test_collect_threshold_sharp_at_end():
    # k=n with exactly t * 2^(n-1) on v_1 delivers exactly t
    for n in (2, 3, 4, 5):
        for t in (1, 2, 3):
            ctx = _path_ctx(n, {Original(1): t << (n - 1)}, n)
            rep = collect_on_path(ctx, t)
            assert rep.delivered == t


def test_collect_below_threshold_raises():
    ctx = _path_ctx(3, {Original(1): 3}, 3)
    with pytest.raises(PreconditionNotMet):
        collect_on_path(ctx, 1)


def test_collect_interior_target_both_cases():
    # case 1: the long side alone pays (v_1 weighs 2^0 toward v_4)
    ctx = _path_ctx(5, {Original(1): 16}, 4)
    rep = collect_on_path(ctx, 1)
    assert rep.succeeded and rep.rationale == "case-1"
    # case 2: the short side must chip in
    ctx = _path_ctx(5, {Original(1): 7, Original(5): 2}, 4)
    rep = collect_on_path(ctx, 1)
    assert rep.succeeded and rep.rationale == "case-2"


def test_collect_exhaustive_small():
    # every distribution meeting the threshold delivers, for every k and t
    n = 4
    g = path(n)
    labels = [Original(i) for i in range(1, n + 1)]
    for t in (1, 2):
        for k in range(1, n + 1):
            for vec in weak_compositions(6, n):
                d = Distribution.from_vector(g, vec)
                ctx = PathContext(g, labels, d, k)
                try:
                    rep = collect_on_path(ctx, t)
                except PreconditionNotMet:
                    continue
                assert rep.delivered >= t
                final = replay(g, d, rep.sequence)
                assert final.get(labels[k - 1]) == rep.delivered


def test_path_context_validation():
    g = path(3)
    labels = [Original(1), Original(2), Original(3)]
    with pytest.raises(InvalidParameter):
        PathContext(g, labels, Distribution(), 4)
    with pytest.raises(InvalidParameter):
        PathContext(g, [Original(1), Original(3)], Distribution(), 1)
    with pytest.raises(InvalidParameter):
        PathContext(g, labels[:2], Distribution({Original(3): 1}), 1)


# -- trimmed middle path -----------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_middle_path_exhaustive(n):
    g = trimmed_middle_path(n)
    floor = (1 << (n - 2)) + n - 2
    for tgt in g.vertices:
        for vec in weak_compositions(floor, g.n):
            d = Distribution.from_vector(g, vec)
            rep = middle_path_strategy(n, d, tgt)
            assert rep.succeeded, (tgt, d, rep.rationale)
            assert replay(g, d, rep.sequence).get(tgt) >= 1


def test_middle_path_below_floor_raises():
    with pytest.raises(PreconditionNotMet):
        middle_path_strategy(4, Distribution({Original(2): 5}), path_u(1))


def test_middle_path_midpoint_boundary():
    # total exactly at the floor with everything on the far spine vertex:
    # the near spine neighbor of the target cannot be fed, the far one can
    n = 3
    g = trimmed_middle_path(n)
    d = Distribution({path_u(2): 3})
    rep = middle_path_strategy(n, d, Original(2))
    assert rep.succeeded
    assert replay(g, d, rep.sequence).get(Original(2)) >= 1


def test_cor24_witness_unsolvable():
    for n in range(3, 7):
        d, tgt = cor24_witness(n)
        g = trimmed_middle_path(n)
        assert d.total == (1 << (n - 2)) + n - 3
        assert not is_solvable(g, d, tgt).solvable


def test_cor24_witness_names_the_graphs_labels():
    # its labels were equal copies, so every lookup of them paid __eq__
    for n in range(3, 8):
        d, tgt = cor24_witness(n)
        g = trimmed_middle_path(n)
        for lab in [*d.counts, tgt]:
            assert lab is g.vertices[g.index_of(lab)], (n, lab)


# -- middle cycle ------------------------------------------------------------

def test_middle_cycle_exhaustive_n2():
    n = 2
    g = middle_cycle(n)
    floor = mc_pebbling_bound(n)
    for tgt in (cycle_u(4, 0), Original(0), cycle_u(4, 2), Original(3)):
        for vec in weak_compositions(floor, g.n):
            d = Distribution.from_vector(g, vec)
            rep = middle_cycle_t_strategy(n, d, tgt, 1)
            assert rep.succeeded, (tgt, d, rep.rationale)
            assert replay(g, d, rep.sequence).get(tgt) >= 1


def test_middle_cycle_t2_replay_sample():
    n, t = 2, 2
    g = middle_cycle(n)
    floor = (t << (n + 1)) + 2 * n - 2
    rng = np.random.default_rng(5)
    for tgt in g.vertices:
        for _ in range(300):
            vec = rng.multinomial(floor, np.full(g.n, 1 / g.n))
            d = Distribution.from_vector(g, vec)
            rep = middle_cycle_t_strategy(n, d, tgt, t)
            assert rep.succeeded, (tgt, d, rep.rationale)
            assert replay(g, d, rep.sequence).get(tgt) >= t


def test_middle_cycle_rotation_covers_all_targets():
    # pile far from each target; the rotated strategy must still land
    n = 3
    g = middle_cycle(n)
    floor = mc_pebbling_bound(n)
    for tgt in g.vertices:
        for src in g.vertices:
            if src == tgt:
                continue
            d = Distribution({src: floor})
            rep = middle_cycle_t_strategy(n, d, tgt, 1)
            assert rep.succeeded, (tgt, src, rep.rationale)
            assert replay(g, d, rep.sequence).get(tgt) >= 1


def test_middle_cycle_below_floor_raises():
    with pytest.raises(PreconditionNotMet):
        middle_cycle_t_strategy(2, Distribution({Original(0): 9}), cycle_u(4, 2), 1)


def test_middle_cycle_unknown_target_raises():
    # u(4,5) is not a vertex of M(C4); it must not be read as u(0,1)
    for tgt in (EdgeVertex(4, 5), Original(4)):
        with pytest.raises(UnknownVertex):
            middle_cycle_t_strategy(2, Distribution({Original(1): 10}), tgt, 1)


def test_middle_cycle_rounds_fire_for_large_t():
    n, t = 2, 4
    g = middle_cycle(n)
    floor = (t << (n + 1)) + 2 * n - 2
    d = Distribution({Original(2): floor})
    rep = middle_cycle_t_strategy(n, d, cycle_u(4, 0), t)
    assert rep.succeeded
    assert rep.rationale.startswith("u-target:rounds[")
    assert replay(g, d, rep.sequence).get(cycle_u(4, 0)) >= t
    # rounds alone deliver t: the tag lists every round and no finish; a
    # pile on v_0 lies in half B only, which runs in the reflected frame
    t = 2
    for src, tag in ((Original(0), "u-target:rounds[half-B]"),
                     (Original(1), "u-target:rounds[half-A]")):
        d = Distribution({src: (t << (n + 1)) + 2 * n - 2})
        rep = middle_cycle_t_strategy(n, d, cycle_u(4, 0), t)
        assert rep.succeeded and rep.rationale == tag
        assert replay(g, d, rep.sequence).get(cycle_u(4, 0)) == rep.delivered >= t


# -- frames ------------------------------------------------------------------
# Each frame is an index map, frame index -> caller index, computed from the
# family index tables; these tests check it against the labels.


def _edges_under(g, frame) -> set:
    return {tuple(sorted((frame[a], frame[b]))) for a, b in g.edges}


def test_mc_perm_is_the_dihedral_symmetry():
    for n in range(2, 7):
        g, two_n = middle_cycle(n), 2 * n
        for s in (1, -1):
            for a in range(two_n):
                frame = _mc_perm(n, s, a)
                assert sorted(frame) == list(range(g.n))
                assert _edges_under(g, frame) == g.edges, (n, s, a)
                for i in range(two_n):
                    image = g.vertices[frame[g.index_of(Original(i))]]
                    assert image == Original((s * i + a) % two_n)
                # a reflection then a rotation is one map: _mc_strategy runs
                # a v-target's argument in this frame alone
                rot, ref = _mc_perm(n, 1, a), _mc_perm(n, s, 0)
                assert all(frame[x] == rot[ref[x]] for x in range(g.n)), (n, s, a)


def test_mc_half_frames_embed_the_trimmed_middle_path():
    for n in range(2, 7):
        tmp, g, two_n = trimmed_middle_path(n + 2), middle_cycle(n), 2 * n
        for use_b, sign, shift in ((False, 1, -1), (True, -1, 2)):
            frame = _mc_half_frame(n, use_b)
            assert len(set(frame)) == tmp.n
            assert _edges_under(tmp, frame) <= g.edges
            assert g.vertices[frame[tmp.index_of(path_u(1))]] == cycle_u(two_n, 0)
            for j in range(2, n + 2):  # v_j -> v_{j-1}, half B mirrored
                image = g.vertices[frame[tmp.index_of(Original(j))]]
                assert image == Original((sign * j + shift) % two_n)


def test_tmp_mirror_swaps_the_ends():
    for n in range(3, 10):
        g = trimmed_middle_path(n)
        frame = _tmp_mirror(n)
        assert sorted(frame) == list(range(g.n))
        assert _edges_under(g, frame) == g.edges
        for m in range(2, n):
            assert frame[g.index_of(Original(m))] == g.index_of(Original(n + 1 - m))


# -- product collection ------------------------------------------------------

def test_product_fiber_direct():
    gl = middle_cycle(2)
    gp = cartesian_product(gl, gl)
    tgt = Pair(Original(0), Original(1))
    # everything already in the target's row fiber
    d = Distribution({Pair(Original(0), lab): 13 for lab in gl.vertices})
    rep = product_collection_strategy(gp, d, tgt)
    assert rep.succeeded and rep.rationale == "fiber-direct:row"
    assert replay(gp, d, rep.sequence).get(tgt) >= 1
    # everything in the target's column fiber, on another row
    tgt = Pair(Original(0), Original(0))
    d = Distribution({Pair(Original(3), Original(0)): 100})
    rep = product_collection_strategy(gp, d, tgt)
    assert rep.rationale == "fiber-direct:column" and rep.delivered == 25
    assert replay(gp, d, rep.sequence).get(tgt) == 25


def test_product_extraction_path():
    gl = middle_cycle(2)
    gp = cartesian_product(gl, gl)
    tgt = Pair(Original(0), Original(0))
    # two rich foreign rows, nothing in the target's row or column
    others = [lab for lab in gl.vertices if lab != Original(0)]
    counts = {Pair(Original(2), lab): 7 for lab in others}
    counts.update({Pair(cycle_u(4, 1), lab): 8 for lab in others})
    d = Distribution(counts)
    assert d.total == (7 + 8) * 7 >= 100
    rep = product_collection_strategy(gp, d, tgt)
    assert rep.rationale.startswith("extract")
    assert rep.succeeded
    assert replay(gp, d, rep.sequence).get(tgt) >= 1


def test_product_guarantee_void_note():
    gl = middle_cycle(2)
    gp = cartesian_product(gl, gl)
    d = Distribution({Pair(Original(0), Original(0)): 100})
    rep = product_collection_strategy(gp, d, Pair(Original(1), Original(1)))
    assert any("guarantee-void" in note for note in rep.notes)


def test_product_below_floor_raises():
    gl = middle_cycle(2)
    gp = cartesian_product(gl, gl)
    with pytest.raises(PreconditionNotMet):
        product_collection_strategy(
            gp, Distribution({Pair(Original(0), Original(0)): 99}),
            Pair(Original(1), Original(1)))


def product_without_row_edges():
    """M(C4) x M(C4) with the edges inside the (v0|.) row removed: the
    labels of the product, not its edges."""
    gl = middle_cycle(2)
    gp = cartesian_product(gl, gl)
    in_row = {i for i, lab in enumerate(gp.vertices) if lab.left == Original(0)}
    return Graph(gp.vertices, [(a, b) for a, b in gp.edges
                               if not (a in in_row and b in in_row)])


def reordered_product():
    """M(C4) x M(C4) with its vertices listed in reverse: the same labelled
    graph, but not in the order cartesian_product builds, on which index
    rows and columns rest."""
    gp = cartesian_product(middle_cycle(2), middle_cycle(2))
    last = gp.n - 1
    return Graph(gp.vertices[::-1], [(last - a, last - b) for a, b in gp.edges])


def test_product_wrong_graph():
    with pytest.raises(InvalidParameter):
        product_collection_strategy(path(4), Distribution(), Original(1))
    for gp in (product_without_row_edges(), reordered_product()):
        with pytest.raises(InvalidParameter):
            product_collection_strategy(
                gp, Distribution({Pair(Original(0), Original(3)): 100}),
                Pair(Original(0), Original(1)))


def test_product_reads_its_factors_from_the_last_vertex():
    # unequal factors, in both orders; a last vertex that names factors the
    # graph is not built from is rejected
    for n, m in ((2, 3), (3, 2)):
        gp = cartesian_product(middle_cycle(n), middle_cycle(m))
        d = Distribution({gp.vertices[-1]: mc_pebbling_bound(n) * mc_pebbling_bound(m)})
        tgt = gp.vertices[0]
        rep = product_collection_strategy(gp, d, tgt)
        assert rep.succeeded and replay(gp, d, rep.sequence).get(tgt) >= 1
    lone = Graph([Pair(EdgeVertex(2, 3), EdgeVertex(2, 3))], [])
    with pytest.raises(InvalidParameter, match="cartesian_product's order"):
        product_collection_strategy(lone, Distribution(), lone.vertices[0])


def test_strategy_moves_name_the_callers_labels():
    # a graph built with its constructor is the one the strategy runs on,
    # so each move names the caller's label objects, not equal copies
    mc = middle_cycle(3)
    gp = cartesian_product(middle_cycle(2), middle_cycle(2))
    cases = [(mc, lambda d, x: middle_cycle_t_strategy(3, d, x, t=2), 2 * 16 + 4),
             (trimmed_middle_path(6), lambda d, x: middle_path_strategy(6, d, x), 20),
             (gp, lambda d, x: product_collection_strategy(gp, d, x), 100)]
    rng = random.Random(5)
    for g, run, size in cases:
        moved = 0
        for i in range(20):
            vec = _floor_vector(rng, g.n, size, i % 2 == 1)
            rep = run(Distribution.from_vector(g, vec), g.vertices[rng.randrange(g.n)])
            for m in rep.sequence:
                assert m.src is g.vertices[g.index_of(m.src)]
                assert m.dst is g.vertices[g.index_of(m.dst)]
            moved += len(rep.sequence)
        assert moved > 0


# -- frozen reports ------------------------------------------------------------

def _floor_vector(rng, n, size, piles):
    """size pebbles spread uniformly, or put in one to three piles."""
    vec = [0] * n
    if not piles:
        for _ in range(size):
            vec[rng.randrange(n)] += 1
        return vec
    where = rng.sample(range(n), rng.randint(1, 3))
    cuts = sorted(rng.randint(0, size) for _ in range(len(where) - 1))
    for v, lo, hi in zip(where, [0] + cuts, cuts + [size]):
        vec[v] += hi - lo
    return vec


def test_strategy_reports_are_frozen():
    # 900 seeded cases at the hypothesis floors: M(C4) at t = 1..3, M(C6)
    # at t = 1, 2, M(C8), TMP(5..7) in rotation, and every 100th case on
    # M(C4) x M(C4). The digest pins each report's verdict, count, case
    # tag, notes and moves, so a refactor of the frames must keep them all.
    mc = {n: middle_cycle(n) for n in (2, 3, 4)}
    gp = cartesian_product(mc[2], mc[2])
    families = [(mc[n], (t << (n + 1)) + 2 * n - 2,
                 lambda d, x, n=n, t=t: middle_cycle_t_strategy(n, d, x, t))
                for n, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))]
    families += [(trimmed_middle_path(n), (1 << (n - 2)) + n - 2,
                  lambda d, x, n=n: middle_path_strategy(n, d, x)) for n in (5, 6, 7)]
    product = (gp, 100, lambda d, x: product_collection_strategy(gp, d, x))
    rng = random.Random(1)
    h = hashlib.sha256()
    product_tags = set()
    for i in range(900):
        g, size, run = product if i % 100 == 99 else families[i % len(families)]
        vec = _floor_vector(rng, g.n, size, (i // len(families)) % 2 == 1)
        rep = run(Distribution.from_vector(g, vec), g.vertices[rng.randrange(g.n)])
        if g is gp:
            product_tags.add(rep.rationale.split("[")[0])
        h.update(repr((rep.succeeded, rep.delivered, rep.rationale, rep.notes,
                       rep.sequence.to_json_list())).encode())
    assert product_tags == {"fiber-direct:row", "fiber-direct:column", "extract"}
    assert h.hexdigest() == \
        "ea34c90162c2fdfb7dccf8bed42f120e6a9997b890d09a19c036d2e030465ea5"


# -- greedy ------------------------------------------------------------------

def test_greedy_succeeds_on_easy_instance():
    g = path(3)
    d = Distribution({Original(1): 4})
    rep = greedy_solver(g, d, Original(3))
    assert rep.succeeded
    assert replay(g, d, rep.sequence).get(Original(3)) >= 1


def test_greedy_failure_is_inconclusive():
    g = path(3)
    rep = greedy_solver(g, Distribution({Original(1): 1}), Original(3))
    assert not rep.succeeded
    assert rep.rationale == "greedy:stuck"
    assert len(rep.sequence) == 0


def test_greedy_sends_only_the_toll_from_a_rich_vertex():
    # v2 pays the toll 2^3 to v0 alone; it once pushed a pebble at a time,
    # 571,431 moves in about 1.5 s
    g, d = middle_cycle(2), Distribution({Original(2): 10**6})
    rep = greedy_solver(g, d, Original(0))
    assert rep.succeeded and rep.delivered == 1
    assert rep.sequence == is_solvable(g, d, Original(0)).witness
    assert len(rep.sequence) == 7


def test_greedy_stuck_reports_what_its_sequence_delivers():
    # it once reported the pebble its discarded moves had brought to v0
    g, d = middle_cycle(2), Distribution({Original(2): 10})
    rep = greedy_solver(g, d, Original(0), 3)
    assert rep.rationale == "greedy:stuck"
    assert rep.delivered == replay(g, d, rep.sequence).get(Original(0)) == 0


def test_a_rich_route_pile_stays_where_it_is():
    # v1 pays the toll to v3 alone: two moves to v2 and one on, leaving v2's
    # own pile where it is; halving v2's pile on as well once sent half of
    # 10**30 pebbles a move at a time, an OverflowError
    g = path(3)
    d = Distribution({Original(1): 4, Original(2): 10**30})
    witness = [Move(Original(1), Original(2))] * 2 + [Move(Original(2), Original(3))]
    out = is_solvable(g, d, Original(3))
    assert out.solvable and list(out.witness) == witness
    rep = greedy_solver(g, d, Original(3))
    assert rep.succeeded and rep.sequence == out.witness and rep.delivered == 1


P3 = [Original(1), Original(2), Original(3)]


@pytest.mark.parametrize("call, error, message", [
    (lambda: PathContext(path(3), P3[:2] + P3[:1], Distribution(), 1),
     InvalidParameter, "path repeats a vertex"),
    (lambda: collect_on_path(PathContext(path(3), P3, Distribution({Original(1): 4}), 3), 0),
     InvalidParameter, "t must be >= 1"),
    (lambda: middle_path_strategy(2, Distribution(), path_u(1)), InvalidParameter, "n >= 3"),
    (lambda: middle_path_strategy(4, Distribution({Original(2): 8}), Original(1)),
     UnknownVertex, "no vertex labelled v1"),
    (lambda: cor24_witness(2), InvalidParameter, "n >= 3"),
    (lambda: middle_cycle_t_strategy(1, Distribution(), Original(0)), InvalidParameter, "n >= 2"),
    (lambda: middle_cycle_t_strategy(2, Distribution({Original(2): 40}), Original(0), t=0),
     InvalidParameter, "t must be >= 1"),
    (lambda: product_collection_strategy(
        Graph([Pair(Original(0), Original(0)), Original(1)], [(0, 1)]),
        Distribution(), Pair(Original(0), Original(0))), InvalidParameter, "Pair-labelled"),
], ids=["path-repeats-a-vertex", "collect-t0", "middle-path-n2", "middle-path-unknown-target",
        "cor24-witness-n2", "middle-cycle-n1", "middle-cycle-t0", "product-without-pairs"])
def test_strategies_reject_bad_parameters(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("t", [0, -2])
def test_greedy_rejects_t_below_one(t):
    # as every other strategy does; it once reported success at t = 0
    with pytest.raises(InvalidParameter):
        greedy_solver(path(3), Distribution({Original(1): 4}), Original(3), t)
