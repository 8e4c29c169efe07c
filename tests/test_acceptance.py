"""The ten acceptance criteria, one test each.

Expected values marked exact are frozen: oracle values were derived by
exhaustive search (with the potential certificate making unsolvability
exact), closed-form values by independent arithmetic. All randomness is
seeded. Budgets are disabled inside this suite; the runtime envelope is
enforced by the sizes themselves.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_criterion
from pebblekit.engine import (Distribution, compute_pebbling, is_solvable,
                              replay, weak_compositions)
from pebblekit.errors import PreconditionNotMet
from pebblekit.graphs import (Original, complete, cycle, cycle_u,
                              middle_cycle, path, trimmed_middle_path)
from pebblekit.registry import (CLAIMS, check_graham, check_inequality_21,
                                check_inequality_22, delta, SOURCE_RESULTS,
                                resolve_result)
from pebblekit.strategies import (PathContext, collect_on_path, cor24_witness,
                                  middle_cycle_t_strategy, middle_path_strategy)


def test_criterion_1_middle_c4_exact():
    g = middle_cycle(2)
    report = compute_pebbling(g)
    witness_ok = False
    if report.witness is not None:
        d, tgt = report.witness
        witness_ok = d.total == 9 and not is_solvable(g, d, tgt).solvable
    record_criterion(
        1, "f(M(C4)) = 10 exact, all targets, with an unsolvable size-9 witness",
        report.value == 10 and witness_ok)


def test_criterion_2_trimmed_middle_paths():
    values = {n: compute_pebbling(trimmed_middle_path(n)).value
              for n in (3, 4, 5)}
    exact_ok = values == {3: 3, 4: 6, 5: 11}
    witness_ok = True
    for n in range(3, 8):
        d, tgt = cor24_witness(n)
        if is_solvable(trimmed_middle_path(n), d, tgt).solvable:
            witness_ok = False
    record_criterion(
        2, "f(M(Pn)-ends) = 2^(n-2)+n-2 for n=3..5 and tight witnesses "
           "unsolvable for n=3..7",
        exact_ok and witness_ok)


def test_criterion_3_complete_and_path_families():
    kn_ok = all(compute_pebbling(complete(n)).value == n for n in range(2, 6))
    pn_ok = all(compute_pebbling(path(n)).value == 1 << (n - 1) for n in range(2, 7))
    note = CLAIMS["path_graph"].note
    note_ok = "2^n - 1" in note and "refuted" in note
    record_criterion(
        3, "f(Kn) = n for n=2..5, f(Pn) = 2^(n-1) for n=2..6, divergence "
           "note recorded against the printed 2^n - 1",
        kn_ok and pn_ok and note_ok)


def test_criterion_4_t_bound_exhaustive_on_mc4():
    n = 2
    g = middle_cycle(n)
    targets = (cycle_u(4, 0), Original(0))
    ok = True
    for t in (1, 2):
        size = t * 8 + 2
        for tgt in targets:
            for vec in weak_compositions(size, g.n):
                d = Distribution.from_vector(g, vec)
                rep = middle_cycle_t_strategy(n, d, tgt, t)
                if not (rep.succeeded
                        and replay(g, d, rep.sequence).get(tgt) >= t):
                    ok = False
                    break
    rng = np.random.default_rng(2027)
    t = 3
    size = t * 8 + 2
    probs = np.full(g.n, 1 / g.n)
    for i in range(100_000):
        vec = rng.multinomial(size, probs)
        tgt = targets[i % 2]
        d = Distribution.from_vector(g, vec)
        rep = middle_cycle_t_strategy(n, d, tgt, t)
        if not (rep.succeeded and replay(g, d, rep.sequence).get(tgt) >= t):
            ok = False
            break
    record_criterion(
        4, "every size-(8t+2) distribution on M(C4) is t-solvable via the "
           "strategy, exhaustive for t=1,2 and 1e5 random for t=3, all replayed",
        ok)


def _adversarial_mc6(rng, g, tgt, size):
    """Witness-adjacent shape: single pebbles on originals far from the
    target, the rest piled at maximum distance, lightly perturbed."""
    dist = g.distances_from(g.index_of(tgt))
    vec = [0] * g.n
    total = 0
    for i, lab in enumerate(g.vertices):
        if isinstance(lab, Original) and dist[i] >= 2:
            vec[i] = 1
            total += 1
    far = max(range(g.n), key=lambda i: dist[i])
    vec[far] += size - total
    for _ in range(rng.integers(0, 4)):
        src = rng.integers(g.n)
        if vec[src] > 0:
            vec[src] -= 1
            vec[rng.integers(g.n)] += 1
    return vec


def test_criterion_5_mc6_upper_bound_side():
    n = 3
    g = middle_cycle(n)
    size = 20
    verts = g.vertices
    rng = np.random.default_rng(95)
    probs = np.full(g.n, 1 / g.n)
    failures = 0
    for i in range(1_000_000):
        vec = rng.multinomial(size, probs)
        tgt = verts[i % g.n]
        d = Distribution.from_vector(g, vec)
        rep = middle_cycle_t_strategy(n, d, tgt, 1)
        if not rep.succeeded:
            failures += 1
        elif i % 1000 == 0 and replay(g, d, rep.sequence).get(tgt) < 1:
            failures += 1
    for i in range(10_000):
        tgt = verts[i % g.n]
        vec = _adversarial_mc6(rng, g, tgt, size)
        d = Distribution.from_vector(g, vec)
        rep = middle_cycle_t_strategy(n, d, tgt, 1)
        if not (rep.succeeded and replay(g, d, rep.sequence).get(tgt) >= 1):
            failures += 1
    record_criterion(
        5, "strategy delivers on 1e6 random + 1e4 adversarial size-20 "
           "distributions on M(C6), zero failures (exact f(M(C6)) not claimed)",
        failures == 0)


def test_criterion_6_property_suite():
    from pebblekit.engine import Move, apply_move, potential
    pool = [path(4), cycle(5), middle_cycle(2), trimmed_middle_path(4),
            complete(4)]
    rng = random.Random(606)
    ok = True
    # potential monotonicity on 1e4 random (graph, distribution, move) triples
    for _ in range(10_000):
        g = rng.choice(pool)
        vec = [rng.randrange(0, 6) for _ in range(g.n)]
        movable = [v for v in range(g.n) if vec[v] >= 2]
        if not movable:
            continue
        src = rng.choice(movable)
        dst = rng.choice(g.neighbors[src])
        tgt = g.vertices[rng.randrange(g.n)]
        d = Distribution.from_vector(g, vec)
        d2 = apply_move(g, d, Move(g.vertices[src], g.vertices[dst]))
        if potential(g, d2, tgt) > potential(g, d, tgt):
            ok = False
    # solvability monotone under pebble addition, witnesses replay
    for _ in range(1_000):
        g = rng.choice(pool)
        vec = [rng.randrange(0, 4) for _ in range(g.n)]
        tgt = g.vertices[rng.randrange(g.n)]
        d = Distribution.from_vector(g, vec)
        out = is_solvable(g, d, tgt)
        if out.solvable:
            if replay(g, d, out.witness).get(tgt) < 1:
                ok = False
            lab = g.vertices[rng.randrange(g.n)]
            richer = Distribution({**d.counts, lab: d.get(lab) + 1})
            if not is_solvable(g, richer, tgt).solvable:
                ok = False
    # threshold property: random path instances meeting the two-sided
    # threshold always deliver t
    for _ in range(1_000):
        np_ = rng.randrange(2, 7)
        k = rng.randrange(1, np_ + 1)
        t = rng.randrange(1, 3)
        g = path(np_)
        labels = [Original(i) for i in range(1, np_ + 1)]
        vec = [rng.randrange(0, 10) if i != k - 1 else 0 for i in range(np_)]
        d = Distribution.from_vector(g, vec)
        ctx = PathContext(g, labels, d, k)
        try:
            rep = collect_on_path(ctx, t)
        except PreconditionNotMet:
            continue
        if rep.delivered < t or replay(g, d, rep.sequence).get(labels[k - 1]) != rep.delivered:
            ok = False
    # boundary sharpness: k = n, weight exactly t*2^(n-1), delivers exactly t
    for np_ in (2, 4, 6):
        for t in (1, 2):
            g = path(np_)
            labels = [Original(i) for i in range(1, np_ + 1)]
            d = Distribution({Original(1): t << (np_ - 1)})
            rep = collect_on_path(PathContext(g, labels, d, np_), t)
            if rep.delivered != t:
                ok = False
    record_criterion(
        6, "potential monotone (1e4 triples), solvability monotone (1e3), "
           "witnesses replay, threshold property (1e3) with sharp boundary",
        ok)


def test_criterion_7_product_arithmetic():
    ok = check_inequality_22(5) == (True, 39)
    ok = ok and all(check_inequality_22(m)[0] for m in range(5, 31))
    ok = ok and all(check_inequality_21(m, m + 2)[0] for m in range(5, 31))
    holds, lhs, rhs, hyp = check_inequality_21(5, 7)
    ok = ok and holds and hyp and rhs - lhs == Fraction(487 - 448, 7)
    ok = ok and delta(5, 7) == 17371
    rhs_seq = [check_inequality_21(5, n)[2] for n in range(7, 41)]
    ok = ok and all(b > a for a, b in zip(rhs_seq, rhs_seq[1:]))
    lhs_seq = [check_inequality_22(m)[1] for m in range(5, 31)]
    ok = ok and all(b > a for a, b in zip(lhs_seq, lhs_seq[1:]))
    record_criterion(
        7, "product-theorem arithmetic: ineq values, exact rational margins, "
           "delta(5,7) = 17371, monotonicity probes",
        ok)


def test_criterion_8_graham_desk_scale():
    r1 = check_graham(path(2), path(2))
    r2 = check_graham(path(2), path(3))
    r3 = check_graham(path(3), path(3))
    ok = (r1.verdict, r1.f_product) == ("holds", 4)
    ok = ok and (r2.verdict, r2.f_product) == ("holds", 8)
    ok = ok and (r3.verdict, r3.f_product) == ("holds", 16)
    ok = ok and r3.f_left * r3.f_right == 16
    record_criterion(
        8, "Graham checks exact: f(P2xP2)=4, f(P2xP3)=8, f(P3xP3)=16 vs "
           "bound 16, all holds",
        ok)


def test_criterion_9_t2_edge_target_bound():
    g = middle_cycle(2)
    value = compute_pebbling(g, targets=[cycle_u(4, 0)], t=2).value
    # derived oracle value 13; the claimed bound is 10 + (2^2 + 2) = 16
    record_criterion(
        9, "f_2(M(C4), u0) = 13 <= 16 confirmed exhaustively",
        value == 13 and value <= 16)


def test_criterion_10_registry_completeness():
    required = {"def-2.1", "prop-2.2", "cor-2.3", "cor-2.4", "def-2.5",
                "lemma-2.6", "cor-2.7", "eq-2.1", "eq-2.2", "delta",
                "thm-2.8", "cor-3.1"}
    ok = required <= set(SOURCE_RESULTS)
    for rid in SOURCE_RESULTS:
        if resolve_result(rid) is None:
            ok = False
    record_criterion(
        10, "every numbered source result maps to exactly one claim, "
            "strategy, or operation",
        ok)
