import json
import os
import re
import subprocess
import sys
from itertools import combinations, permutations

import pytest

import pebblekit

from pebblekit.engine import Move
from pebblekit.errors import (DisconnectedGraph, InvalidParameter,
                              UnknownVertex)
from pebblekit.graphs import (EdgeVertex, Graph, Original, Pair,
                              automorphism_taking, cartesian_product, complete,
                              cycle, cycle_u, delete_vertices, middle_cycle,
                              middle_graph, parse_label, path, path_u,
                              target_orbits, trimmed_middle_path)

from conftest import asymmetric_graph, petersen


# -- labels ------------------------------------------------------------------

def test_label_str_roundtrip():
    for lab in (Original(3), EdgeVertex(1, 2), Pair(Original(0), EdgeVertex(2, 5)),
                Pair(Pair(Original(1), Original(2)), Original(3))):
        assert parse_label(str(lab)) == lab


def test_hashes_are_those_of_the_field_tuples():
    # pins set and dict iteration order, and so witnesses and digests
    v0, u = Original(0), EdgeVertex(1, 2)
    assert hash(Original(3)) == hash((3,))
    assert hash(EdgeVertex(5, 2)) == hash((2, 5))
    assert hash(Pair(v0, u)) == hash((v0, u)) == hash(((0,), (1, 2)))
    assert hash(Move(v0, u)) == hash((v0, u))


def test_edge_vertex_sorts_endpoints():
    assert EdgeVertex(3, 0) == EdgeVertex(0, 3)
    ev = EdgeVertex(3, 0)
    assert (ev.i, ev.j) == (0, 3)


def test_edge_vertex_rejects_loop():
    with pytest.raises(InvalidParameter):
        EdgeVertex(2, 2)


def test_cycle_u_wraps():
    assert cycle_u(4, 3) == EdgeVertex(0, 3)
    assert cycle_u(6, 5) == EdgeVertex(0, 5)
    assert path_u(2) == EdgeVertex(2, 3)


# an index is an optional minus sign and ASCII digits only; a pair label
# nested past the recursion limit is garbage too, not a RecursionError
DEEP_LABEL = "(" * 2000 + "v1" + "|v1)" * 2000


def test_parse_label_garbage():
    for bad in ("w3", "u(1)", "v", "(a|b", "((v1|v2))", "", "v1_0", "v+1", "v 1", "v\u0661",
                "u(1,+2)", "u(1,2,3)", DEEP_LABEL):
        with pytest.raises(InvalidParameter):
            parse_label(bad)


def test_an_index_too_long_for_int_is_garbage():
    # int() raises ValueError past sys.get_int_max_str_digits() digits
    for bad in ("v" + "1" * 5000, "u(1," + "2" * 5000 + ")"):
        with pytest.raises(InvalidParameter):
            parse_label(bad)


# -- basic families ----------------------------------------------------------

def test_path_structure():
    g = path(4)
    assert g.n == 4 and g.m == 3
    assert g.adjacent(Original(1), Original(2))
    assert not g.adjacent(Original(1), Original(3))
    assert g.distance(Original(1), Original(4)) == 3


def test_single_vertex_path():
    g = path(1)
    assert g.n == 1 and g.m == 0 and g.diameter() == 0


def test_cycle_structure():
    g = cycle(5)
    assert g.n == 5 and g.m == 5
    assert g.adjacent(Original(0), Original(4))
    assert g.diameter() == 2


def test_complete_structure():
    g = complete(4)
    assert g.m == 6 and g.diameter() == 1


def test_bad_params():
    for build in (lambda: path(0), lambda: cycle(2), lambda: middle_cycle(1),
                  lambda: complete(0), lambda: trimmed_middle_path(2),
                  # middle_graph on labels other than v_i
                  lambda: middle_graph(Graph([EdgeVertex(0, 1), Original(2)], [(0, 1)])),
                  # duplicate labels, a loop, an edge out of range
                  lambda: Graph([Original(1), Original(1)], [(0, 1)]),
                  lambda: Graph([Original(1), Original(2)], [(0, 1), (1, 1)]),
                  lambda: Graph([Original(1), Original(2)], [(0, 2)])):
        # twice: a cached constructor must raise on every call, not once
        for _ in range(2):
            with pytest.raises(InvalidParameter):
                build()


def test_family_constructors_share_one_graph_per_argument():
    assert middle_cycle(3) is middle_cycle(3)
    assert trimmed_middle_path(5) is trimmed_middle_path(5)
    gl = middle_cycle(2)
    assert cartesian_product(gl, gl) is cartesian_product(middle_cycle(2), gl)
    # the sharing holds however many other sizes are built in between
    gp = trimmed_middle_path(3)
    for k in range(3, 41):
        middle_cycle(k), trimmed_middle_path(k + 1)
    assert middle_cycle(2) is gl and trimmed_middle_path(3) is gp


def test_a_graph_without_vertices_is_rejected():
    # no vertex to measure a distance from, so no pebbling number and no bound
    with pytest.raises(InvalidParameter):
        Graph([], [])
    with pytest.raises(InvalidParameter):
        Graph.from_json('{"vertices": [], "edges": []}')


def test_edge_endpoints_must_be_integers():
    # a boolean endpoint would be written back as true and change graph_hash
    labels = [Original(0), Original(1), Original(2)]
    for edges in ([(0, True), (True, 2)], [(0, 1.0), (1, 2)], [(0, "1"), (1, 2)]):
        with pytest.raises(InvalidParameter):
            Graph(labels, edges)
    with pytest.raises(InvalidParameter):
        Graph.from_json('{"vertices": ["v0", "v1", "v2"], "edges": [[0, true], [true, 2]]}')


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        Graph([Original(1), Original(2), Original(3)], [(0, 1)])


# -- middle graphs -----------------------------------------------------------

def test_middle_graph_counts():
    # |V| = n + m edges; |E| = 2m + sum C(deg, 2)
    g = cycle(6)
    mg = middle_graph(g)
    assert mg.n == 6 + 6
    assert mg.m == 2 * 6 + 6 * 1  # every degree is 2, C(2,2) = 1
    # original-original edges do not survive
    assert not mg.adjacent(Original(0), Original(1))
    assert mg.adjacent(Original(0), EdgeVertex(0, 1))
    assert mg.adjacent(EdgeVertex(0, 1), EdgeVertex(1, 2))


def test_middle_cycle_diameter():
    for n in (2, 3, 4):
        assert middle_cycle(n).diameter() == n + 1


def test_middle_graph_of_star():
    # K_{1,3}: center degree 3 contributes C(3,2) = 3 edge-vertex edges
    star = Graph([Original(0), Original(1), Original(2), Original(3)],
                 [(0, 1), (0, 2), (0, 3)])
    mg = middle_graph(star)
    assert mg.n == 7 and mg.m == 2 * 3 + 3


def test_trimmed_middle_path_structure():
    g = trimmed_middle_path(4)
    assert g.n == 2 * 4 - 3
    assert Original(1) not in g and Original(4) not in g
    assert g.adjacent(path_u(1), path_u(2))
    assert g.adjacent(Original(2), path_u(1))
    assert g.adjacent(Original(2), path_u(2))


def test_delete_vertices_errors():
    g = path(4)
    with pytest.raises(UnknownVertex):
        delete_vertices(g, [Original(9)])
    with pytest.raises(DisconnectedGraph):
        delete_vertices(g, [Original(2)])
    with pytest.raises(InvalidParameter):
        delete_vertices(g, g.vertices)


# -- products and fibers -----------------------------------------------------

def test_cartesian_product_c4():
    p2 = path(2)
    c4 = cartesian_product(p2, p2)
    assert c4.n == 4 and c4.m == 4 and c4.diameter() == 2


def test_product_adjacency_rule():
    g = cartesian_product(path(2), path(3))
    a = Pair(Original(1), Original(1))
    assert g.adjacent(a, Pair(Original(2), Original(1)))
    assert g.adjacent(a, Pair(Original(1), Original(2)))
    assert not g.adjacent(a, Pair(Original(2), Original(2)))
    # every pair: each fiber is a copy of its factor, and nothing else joins
    gl, gr = path(3), cycle(4)
    gp = cartesian_product(gl, gr)
    for x, y in combinations(gp.vertices, 2):
        rule = ((x.left == y.left and gr.adjacent(x.right, y.right))
                or (x.right == y.right and gl.adjacent(x.left, y.left)))
        assert gp.adjacent(x, y) == rule, (x, y)


# -- automorphisms and target orbits -----------------------------------------

ORBIT_COUNTS = [
    pytest.param(complete(2), 1, id="K2"),
    pytest.param(complete(5), 1, id="K5"),
    pytest.param(petersen(), 1, id="Petersen"),
    pytest.param(cartesian_product(path(3), path(3)), 3, id="P3xP3"),
    pytest.param(middle_cycle(2), 2, id="MC4"),
    pytest.param(asymmetric_graph(), 6, id="asymmetric"),
]


def _carries_edges(g, perm) -> bool:
    return {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges} == g.edges


@pytest.mark.parametrize("g,count", ORBIT_COUNTS)
def test_target_orbits_carry_checked_automorphisms(g, count):
    orbits = target_orbits(g, range(g.n))
    assert len(set(orbits.values())) == count
    for x, rep in orbits.items():
        assert rep <= x  # the first of its class in list order
        perm = automorphism_taking(g, rep, x)
        assert sorted(perm) == list(range(g.n))
        assert perm[rep] == x
        assert _carries_edges(g, perm)


def test_asymmetric_graph_has_only_the_identity():
    g = asymmetric_graph()
    autos = [p for p in permutations(range(g.n)) if _carries_edges(g, p)]
    assert autos == [tuple(range(g.n))]


def test_target_orbits_match_brute_force_orbits():
    # every connected graph on 5 labelled vertices: the partition equals the
    # true orbits under all 120 vertex permutations
    pairs = list(combinations(range(5), 2))
    perms = list(permutations(range(5)))
    for mask in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        try:
            g = Graph([Original(i) for i in range(5)], edges)
        except DisconnectedGraph:
            continue
        autos = [p for p in perms if _carries_edges(g, p)]
        orbits = target_orbits(g, range(5))
        for x in range(5):
            assert orbits[x] == min(p[x] for p in autos)


# -- serialization -----------------------------------------------------------

def test_json_roundtrip():
    g = middle_cycle(2)
    again = Graph.from_json(g.to_json())
    assert again == g and hash(again) == hash(g)


def test_graph_json_vertices_are_a_list():
    # the keys of a dict were taken as the labels
    with pytest.raises(InvalidParameter):
        Graph.from_json('{"vertices": {"v1": 0, "v2": 0}, "edges": [[0, 1]]}')


def test_json_shape():
    data = json.loads(path(2).to_json())
    assert data == {"vertices": ["v1", "v2"], "edges": [[0, 1]]}


def test_dot_output():
    dot = path(2).to_dot()
    assert '"v1" -- "v2"' in dot and dot.startswith("graph")


# -- module lifetime ---------------------------------------------------------

REIMPORT = """
import gc, importlib, sys
for _ in range(5):
    for name in [m for m in sys.modules if m.split(".")[0] == "pebblekit"]:
        del sys.modules[name]
    importlib.import_module("pebblekit")
gc.collect()
print(sum(isinstance(o, dict) and o.get("__name__") == "pebblekit.graphs"
          and "__spec__" in o for o in gc.get_objects()))
"""


def test_every_exported_name_resolves():
    # a stale entry makes `from pebblekit import *` raise
    missing = [name for name in pebblekit.__all__ if not hasattr(pebblekit, name)]
    assert missing == []


def test_the_readme_library_example_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        example = re.search(r"^## Library\n+```python\n(.*?)^```", fh.read(),
                            re.M | re.S).group(1)
    scope: dict = {}
    exec(example, scope)
    assert scope["report"].value == 10 and scope["rep"].succeeded


def test_reimport_frees_the_old_graphs_module():
    # a typing.Union alias over the label classes was cached by typing and
    # kept every earlier copy of the module alive
    src = os.path.dirname(os.path.dirname(pebblekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) <= 1
