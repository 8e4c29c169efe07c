"""Graph families for exact pebbling work.

Vertices carry structured labels so that strategy code can talk about the
same named vertices the constructions use: ``Original(i)`` is an original
vertex v_i, ``EdgeVertex(i, j)`` is the vertex inserted into the edge
{v_i, v_j} of a middle graph, and ``Pair(a, b)`` is a Cartesian-product
vertex. Every constructor output is connected, and graphs are immutable:
``middle_cycle``, ``trimmed_middle_path`` and ``cartesian_product`` return
one graph per argument, shared by every caller that builds it.

Index conventions: cycles are 0-based (v_0 ... v_{n-1}), paths are 1-based
(v_1 ... v_n).
"""

from __future__ import annotations

import json
import re
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, total_ordering
from itertools import combinations

from .errors import INT, DisconnectedGraph, InvalidParameter, UnknownVertex

# ---------------------------------------------------------------------------
# Value classes
#
# Labels, moves and reports are plain classes with their methods written
# out: generating those methods with exec took most of the package's own
# import time. Labels are dictionary keys in every strategy and replay
# loop, so a frozen value stores the tuple of its fields once, as _key, and
# compares and hashes that tuple; reading the fields one by one on every
# lookup costs a loop and a getattr per field.


class _Record:
    """Field-by-field __eq__ against the same class only, and a repr
    listing ``_fields``."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class _Frozen(_Record):
    """A hashable _Record whose attributes cannot be assigned or deleted.
    Constructors set each field, then ``_key``, the tuple of the field
    values, with object.__setattr__, which keeps them inline (``vars(self)``
    would slow every later attribute read); equality and hash are _key's."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class _Ordered(_Frozen):
    """A _Frozen ordered by ``_key`` against the same class only."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented


class Original(_Ordered):
    """An original vertex v_i of a base graph."""

    _fields = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", (index,))

    def __str__(self) -> str:
        return f"v{self.index}"


class EdgeVertex(_Ordered):
    """The vertex inserted into the edge {v_i, v_j}; endpoints stored sorted."""

    _fields = ("i", "j")

    def __init__(self, i: int, j: int):
        if i > j:
            i, j = j, i
        if i == j:
            raise InvalidParameter(f"edge vertex needs two distinct endpoints, got {i}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "_key", (i, j))

    def __str__(self) -> str:
        return f"u({self.i},{self.j})"


class Pair(_Frozen):
    """A Cartesian-product vertex (left, right)."""

    _fields = ("left", "right")

    def __init__(self, left: VertexLabel, right: VertexLabel):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_key", (left, right))

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


VertexLabel = Original | EdgeVertex | Pair


# an index in a label is an integer as ``read_int`` reads one
_ORIGINAL = re.compile(rf"v({INT})")
_EDGE_VERTEX = re.compile(rf"u\(({INT}),({INT})\)")


def parse_label(s: str) -> VertexLabel:
    """Inverse of ``str(label)``: accepts "v3", "u(2,3)" and "(a|b)" forms.
    A label nested deeper than the recursion limit is an InvalidParameter."""
    try:
        return _parse_label(s.strip())
    except RecursionError:
        raise InvalidParameter(f"vertex label nested too deeply: {s[:40]!r}...") from None


def _parse_label(s: str) -> VertexLabel:
    if s.startswith("(") and s.endswith(")") and "|" in s:
        body = s[1:-1]
        depth = 0
        for pos, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return Pair(_parse_label(body[:pos].strip()),
                            _parse_label(body[pos + 1:].strip()))
        raise InvalidParameter(f"malformed pair label: {s!r}")
    m = _EDGE_VERTEX.fullmatch(s)
    if m is not None:
        return EdgeVertex(int(m[1]), int(m[2]))
    m = _ORIGINAL.fullmatch(s)
    if m is not None:
        return Original(int(m[1]))
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
    An input with no vertex raises InvalidParameter, and a disconnected one
    DisconnectedGraph: the search's shortcuts and the pebbling-number bound
    read the distances from a vertex to every vertex.
    """

    __slots__ = ("vertices", "_index", "neighbors", "_edge_set", "_dist_cache", "_diameter")

    def __init__(self, vertices: Sequence[VertexLabel], edges: Iterable[tuple[int, int]]):
        self.vertices: tuple[VertexLabel, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidParameter("duplicate vertex labels")
        self._index = {lab: k for k, lab in enumerate(self.vertices)}
        n = len(self.vertices)
        if n == 0:
            raise InvalidParameter("a graph needs at least one vertex")
        edge_set = set()
        for a, b in edges:
            if type(a) is not int or type(b) is not int:  # not 1.0, "1", true
                raise InvalidParameter(f"edge ({a!r},{b!r}): endpoints must be integers")
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
        if -1 in self.distances_from(0):
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

    # -- metric -------------------------------------------------------------

    def distances_from(self, idx: int) -> tuple[int, ...]:
        """BFS distances from the given vertex index (cached); -1 marks a
        vertex it does not reach."""
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

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(max(self.distances_from(v)) for v in range(self.n))
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
        if type(data["vertices"]) is not list:
            raise InvalidParameter("graph vertices must be a list of labels")
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
        return other is self or (isinstance(other, Graph) and self.vertices == other.vertices
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


@lru_cache(maxsize=16)
def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (c,d) iff a=c and b~d, or a~c and b=d."""
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


# ---------------------------------------------------------------------------
# Named families from the strategy work


@lru_cache(maxsize=16)
def middle_cycle(n: int) -> Graph:
    """M(C_{2n}): originals v_0..v_{2n-1} plus u_i inserted into v_i v_{i+1}."""
    if n < 2:
        raise InvalidParameter(f"middle_cycle needs n >= 2, got {n}")
    return middle_graph(cycle(2 * n))


@lru_cache(maxsize=32)
def trimmed_middle_path(n: int) -> Graph:
    """M(P_n) - {v_1, v_n}: spine u_1..u_{n-1} plus originals v_2..v_{n-1}."""
    if n < 3:
        raise InvalidParameter(f"trimmed_middle_path needs n >= 3, got {n}")
    return delete_vertices(middle_graph(path(n)), {Original(1), Original(n)})


# ---------------------------------------------------------------------------
# Automorphisms (index level; used to run one pebbling DP per target orbit)


def automorphism_taking(g: Graph, a: int, b: int) -> tuple[int, ...] | None:
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
    if sorted(zip(da, degree)) != sorted(zip(db, degree)):
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


def target_orbits(g: Graph, targets: Sequence[int]) -> dict[int, int]:
    """Each target index -> its representative: the first earlier
    representative that ``automorphism_taking`` maps onto it, else itself.
    So each representative is the first of its class in list order, and
    every merge rests on a checked map."""
    out: dict[int, int] = {}
    reps: list[int] = []
    for x in targets:
        if x not in out:
            out[x] = next((r for r in reps if automorphism_taking(g, r, x)), x)
            if out[x] == x:
                reps.append(x)
    return out
