"""Graph families for exact pebbling work.

Vertices carry structured labels so that strategy code can talk about the
same named vertices the constructions use: ``Original(i)`` is an original
vertex v_i, ``EdgeVertex(i, j)`` is the vertex inserted into the edge
{v_i, v_j} of a middle graph, and ``Pair(a, b)`` is a Cartesian-product
vertex. Graphs are immutable after construction and every constructor
output is connected.

Index conventions: cycles are 0-based (v_0 ... v_{n-1}), paths are 1-based
(v_1 ... v_n).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DisconnectedGraph, InvalidParameter, UnknownVertex

# ---------------------------------------------------------------------------
# Vertex labels


@dataclass(frozen=True, order=True)
class Original:
    """An original vertex v_i of a base graph."""

    index: int

    def __str__(self) -> str:
        return f"v{self.index}"


@dataclass(frozen=True, order=True)
class EdgeVertex:
    """The vertex inserted into the edge {v_i, v_j}; endpoints stored sorted."""

    i: int
    j: int

    def __post_init__(self):
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)
        if self.i == self.j:
            raise InvalidParameter(f"edge vertex needs two distinct endpoints, got {self.i}")

    def __str__(self) -> str:
        return f"u({self.i},{self.j})"


@dataclass(frozen=True)
class Pair:
    """A Cartesian-product vertex (left, right)."""

    left: "VertexLabel"
    right: "VertexLabel"

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


VertexLabel = Original | EdgeVertex | Pair


def parse_label(s: str) -> VertexLabel:
    """Inverse of ``str(label)``: accepts "v3", "u(2,3)" and "(a|b)" forms."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")") and "|" in s:
        body = s[1:-1]
        depth = 0
        for pos, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return Pair(parse_label(body[:pos]), parse_label(body[pos + 1:]))
        raise InvalidParameter(f"malformed pair label: {s!r}")
    if s.startswith("u(") and s.endswith(")"):
        try:
            a, b = s[2:-1].split(",")
            return EdgeVertex(int(a), int(b))
        except ValueError as exc:
            raise InvalidParameter(f"malformed edge-vertex label: {s!r}") from exc
    if s.startswith("v"):
        try:
            return Original(int(s[1:]))
        except ValueError as exc:
            raise InvalidParameter(f"malformed vertex label: {s!r}") from exc
    raise InvalidParameter(f"unrecognized vertex label: {s!r}")


def path_u(i: int) -> EdgeVertex:
    """The u_i of M(P_n): inserted into the edge v_i v_{i+1} (1-based)."""
    return EdgeVertex(i, i + 1)


def cycle_u(two_n: int, i: int) -> EdgeVertex:
    """The u_i of M(C_{two_n}): inserted into the edge v_i v_{(i+1) mod two_n}."""
    return EdgeVertex(i % two_n, (i + 1) % two_n)


# ---------------------------------------------------------------------------
# Graph


class Graph:
    """A finite simple connected undirected graph with labelled vertices.

    Immutable after construction; adjacency is kept both as sorted neighbor
    lists (for the search hot loops) and as a pair set (for O(1) membership).
    """

    __slots__ = ("vertices", "_index", "neighbors", "_edge_set", "_dist_cache", "_diameter")

    def __init__(self, vertices: Sequence[VertexLabel], edges: Iterable[tuple[int, int]],
                 require_connected: bool = True):
        self.vertices: tuple[VertexLabel, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidParameter("duplicate vertex labels")
        self._index = {lab: k for k, lab in enumerate(self.vertices)}
        n = len(self.vertices)
        edge_set = set()
        for a, b in edges:
            if a == b:
                raise InvalidParameter("loops are not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidParameter(f"edge ({a},{b}) out of range")
            edge_set.add((a, b) if a < b else (b, a))
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edge_set:
            adj[a].append(b)
            adj[b].append(a)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ns)) for ns in adj)
        self._edge_set = frozenset(edge_set)
        self._dist_cache: dict[int, tuple[int, ...]] = {}
        self._diameter: int | None = None
        if require_connected and n > 0 and not self._is_connected():
            raise DisconnectedGraph("graph is not connected")

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self._edge_set)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edge_set

    def index_of(self, label: VertexLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertex(f"no vertex labelled {label}") from None

    def __contains__(self, label: VertexLabel) -> bool:
        return label in self._index

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self._edge_set

    def adjacent(self, a: VertexLabel, b: VertexLabel) -> bool:
        return self.has_edge(self.index_of(a), self.index_of(b))

    def _is_connected(self) -> bool:
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            v = queue.popleft()
            for w in self.neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    queue.append(w)
        return count == self.n

    # -- metric -------------------------------------------------------------

    def distances_from(self, idx: int) -> tuple[int, ...]:
        """BFS distances from the given vertex index (cached)."""
        cached = self._dist_cache.get(idx)
        if cached is not None:
            return cached
        dist = [-1] * self.n
        dist[idx] = 0
        queue = deque([idx])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w in self.neighbors[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
        result = tuple(dist)
        self._dist_cache[idx] = result
        return result

    def distance(self, a: VertexLabel, b: VertexLabel) -> int:
        return self.distances_from(self.index_of(a))[self.index_of(b)]

    def eccentricity(self, idx: int) -> int:
        return max(self.distances_from(idx))

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(self.eccentricity(v) for v in range(self.n))
        return self._diameter

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [str(lab) for lab in self.vertices],
            "edges": sorted([a, b] for a, b in self._edge_set),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        labels = [parse_label(s) for s in data["vertices"]]
        return cls(labels, [tuple(e) for e in data["edges"]])

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self, name: str = "G") -> str:
        lines = [f'graph "{name}" {{']
        for lab in self.vertices:
            lines.append(f'  "{lab}";')
        for a, b in sorted(self._edge_set):
            lines.append(f'  "{self.vertices[a]}" -- "{self.vertices[b]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Graph(|V|={self.n}, |E|={self.m})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self._edge_set == other._edge_set)

    def __hash__(self) -> int:
        return hash((self.vertices, self._edge_set))


# ---------------------------------------------------------------------------
# Family constructors


def path(n: int) -> Graph:
    """Path P_n on vertices v_1 ... v_n."""
    if n < 1:
        raise InvalidParameter(f"path needs n >= 1, got {n}")
    verts = [Original(i) for i in range(1, n + 1)]
    return Graph(verts, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle C_n on vertices v_0 ... v_{n-1}."""
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    verts = [Original(i) for i in range(n)]
    return Graph(verts, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph K_n on vertices v_1 ... v_n."""
    if n < 1:
        raise InvalidParameter(f"complete graph needs n >= 1, got {n}")
    verts = [Original(i) for i in range(1, n + 1)]
    return Graph(verts, combinations(range(n), 2))


def middle_graph(g: Graph) -> Graph:
    """Middle graph M(g): subdivide every edge, join new vertices whose
    underlying edges share an endpoint. Original-to-original edges do not
    survive."""
    for lab in g.vertices:
        if not isinstance(lab, Original):
            raise InvalidParameter("middle_graph expects a graph on Original labels")
    verts: list[VertexLabel] = list(g.vertices)
    edge_vertex_index: dict[tuple[int, int], int] = {}
    for a, b in sorted(g.edges):
        ia, ib = g.vertices[a].index, g.vertices[b].index
        lab = EdgeVertex(ia, ib)
        edge_vertex_index[(a, b)] = len(verts)
        verts.append(lab)
    new_edges: list[tuple[int, int]] = []
    for (a, b), ev in edge_vertex_index.items():
        new_edges.append((a, ev))
        new_edges.append((b, ev))
    # edge vertices of incident edges are joined
    for v in range(g.n):
        incident = [edge_vertex_index[(min(v, w), max(v, w))] for w in g.neighbors[v]]
        new_edges.extend(combinations(sorted(incident), 2))
    return Graph(verts, new_edges)


def delete_vertices(g: Graph, labels: Iterable[VertexLabel]) -> Graph:
    """Induced subgraph on V(g) minus the given labels; must stay connected."""
    drop = set(labels)
    for lab in drop:
        if lab not in g:
            raise UnknownVertex(f"no vertex labelled {lab}")
    drop_idx = {g.index_of(lab) for lab in drop}
    keep = [k for k in range(g.n) if k not in drop_idx]
    if not keep:
        raise InvalidParameter("cannot delete every vertex")
    remap = {old: new for new, old in enumerate(keep)}
    verts = [g.vertices[k] for k in keep]
    edges = [(remap[a], remap[b]) for a, b in g.edges if a in remap and b in remap]
    try:
        return Graph(verts, edges)
    except DisconnectedGraph:
        raise DisconnectedGraph(
            f"deleting {sorted(map(str, drop))} disconnects the graph") from None


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (c,d) iff a=c and b~d, or a~c and b=d."""
    if g.n == 0 or h.n == 0:
        raise InvalidParameter("cartesian product of empty graph")
    verts = [Pair(ga, hb) for ga in g.vertices for hb in h.vertices]
    hn = h.n
    edges: list[tuple[int, int]] = []
    for gi in range(g.n):
        for a, b in h.edges:
            edges.append((gi * hn + a, gi * hn + b))
    for a, b in g.edges:
        for hi in range(hn):
            edges.append((a * hn + hi, b * hn + hi))
    return Graph(verts, edges)


def fiber(p: Graph, side: str, anchor: VertexLabel) -> Graph:
    """The fiber subgraph of a product: all Pair vertices whose chosen side
    equals ``anchor``. Isomorphic to the other factor."""
    if side not in ("left", "right"):
        raise InvalidParameter(f"side must be 'left' or 'right', got {side!r}")
    for lab in p.vertices:
        if not isinstance(lab, Pair):
            raise InvalidParameter("fiber expects a product graph on Pair labels")
    if side == "left":
        keep = [lab for lab in p.vertices if lab.left == anchor]
    else:
        keep = [lab for lab in p.vertices if lab.right == anchor]
    if not keep:
        raise UnknownVertex(f"no fiber anchored at {anchor} on the {side} side")
    drop = [lab for lab in p.vertices if lab not in set(keep)]
    return delete_vertices(p, drop)


# ---------------------------------------------------------------------------
# Named families from the strategy work


def middle_cycle(n: int) -> Graph:
    """M(C_{2n}): originals v_0..v_{2n-1} plus u_i inserted into v_i v_{i+1}."""
    if n < 2:
        raise InvalidParameter(f"middle_cycle needs n >= 2, got {n}")
    return middle_graph(cycle(2 * n))


def trimmed_middle_path(n: int) -> Graph:
    """M(P_n) - {v_1, v_n}: spine u_1..u_{n-1} plus originals v_2..v_{n-1}."""
    if n < 3:
        raise InvalidParameter(f"trimmed_middle_path needs n >= 3, got {n}")
    return delete_vertices(middle_graph(path(n)), {Original(1), Original(n)})


# ---------------------------------------------------------------------------
# Label-bijection isomorphism check (used for the fiber invariant)


def respects_adjacency(g: Graph, h: Graph, mapping: dict[VertexLabel, VertexLabel]) -> bool:
    """True iff ``mapping`` is a bijection V(g) -> V(h) carrying edges to
    edges and non-edges to non-edges."""
    if set(mapping) != set(g.vertices):
        return False
    image = set(mapping.values())
    if len(image) != g.n or image != set(h.vertices):
        return False
    if g.m != h.m:
        return False
    for a, b in g.edges:
        if not h.adjacent(mapping[g.vertices[a]], mapping[g.vertices[b]]):
            return False
    return True


def fiber_factor_bijection(p: Graph, side: str,
                           anchor: VertexLabel) -> dict[VertexLabel, VertexLabel]:
    """The canonical label bijection from a fiber onto its factor."""
    fib = fiber(p, side, anchor)
    if side == "left":
        return {lab: lab.right for lab in fib.vertices}
    return {lab: lab.left for lab in fib.vertices}


# ---------------------------------------------------------------------------
# Automorphisms (index level; used to run one pebbling DP per target orbit)


def automorphism_taking(g: Graph, a: int, b: int) -> Optional[tuple[int, ...]]:
    """A permutation p of V(g), as a tuple of indices, with p[a] == b that
    carries the edge set onto itself; None when the search finds none.

    Backtracking over the vertices in BFS order from a: each vertex goes to
    an unused neighbour of its BFS parent's image, of the same degree and at
    the same distance from the image of every vertex already placed as it is
    from that vertex. The search gives up after a few placements per vertex,
    so None means no map was found, not that none exists. A complete
    assignment is checked edge by edge before it is returned.
    """
    n, nbrs = g.n, g.neighbors
    da, db = g.distances_from(a), g.distances_from(b)
    degree = [len(ns) for ns in nbrs]
    if min(da) < 0 or sorted(zip(da, degree)) != sorted(zip(db, degree)):
        return None
    order = sorted(range(n), key=lambda v: (da[v], v))
    parent = [next(w for w in nbrs[v] if da[w] == da[v] - 1) for v in order[1:]]
    dist = [g.distances_from(v) for v in range(n)]
    perm = [-1] * n
    used = [False] * n
    perm[a], used[b] = b, True

    def candidates(i: int) -> Iterator[int]:
        v, placed = order[i], order[:i]
        dv = dist[v]
        for w in nbrs[perm[parent[i - 1]]]:
            if not used[w] and degree[w] == degree[v]:
                dw = dist[w]
                if all(dv[u] == dw[perm[u]] for u in placed):
                    yield w

    steps = 16 * n
    todo = [candidates(1)] if n > 1 else []
    while todo:
        i = len(todo)
        v = order[i]
        if perm[v] >= 0:
            used[perm[v]] = False
            perm[v] = -1
        w = next(todo[-1], None)
        if w is None:
            todo.pop()
            continue
        steps -= 1
        if steps < 0:
            return None
        perm[v], used[w] = w, True
        if i == n - 1:
            break
        todo.append(candidates(i + 1))
    if not all(used) or any(not g.has_edge(perm[x], perm[y]) for x, y in g.edges):
        return None
    return tuple(perm)


def target_orbits(g: Graph, targets: Sequence[int]) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Each target index -> (its representative, an automorphism of g taking
    the representative to it). A target joins the first earlier
    representative that ``automorphism_taking`` maps onto it, and otherwise
    becomes a representative itself, so each representative is the first
    of its class in list order and every merge carries a checked map."""
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    reps: list[int] = []
    for x in targets:
        if x in out:
            continue
        for r in reps:
            perm = automorphism_taking(g, r, x)
            if perm is not None:
                out[x] = (r, perm)
                break
        else:
            reps.append(x)
            out[x] = (x, tuple(range(g.n)))
    return out
