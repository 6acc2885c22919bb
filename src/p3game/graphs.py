"""Graph primitives, family generators, and JSON serialization.

Vertices are the integers 0..n-1.  Vertex sets are plain Python ints used
as bitmasks (bit v set <=> vertex v in the set); Python ints are arbitrary
precision, so the same representation covers graphs of any size, with the
single-machine-word fast path applying automatically whenever n <= 64.

Graphs are immutable after construction and safe to share across threads.

Generator numbering conventions (stable, relied on by tests and fixtures):

* ``make_path`` / ``make_cycle``: vertices in path/cycle order 0..n-1.
* ``make_ladder``: rail A is 0..n-1, rail B is n..2n-1, rung i joins
  (i, n+i).
* ``make_star``: the center is vertex 0, leaves are 1..t.
* ``make_caterpillar``: backbone vertices come first (0..b-1, in path
  order), then feet, grouped by backbone vertex in ascending order.
* ``make_cograph``: cotree leaves carry explicit vertex ids, which must be
  exactly 0..n-1.
"""

from __future__ import annotations

import json
import hashlib
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Union


# =====================================================================
# Bitmask vertex sets
# =====================================================================

def bits(mask: int) -> Iterator[int]:
    """Iterate over the vertex ids present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def popcount(mask: int) -> int:
    return mask.bit_count()


# =====================================================================
# Core graph type
# =====================================================================

class GraphFormatError(ValueError):
    """Raised when graph input violates the format or the simple-graph
    invariants.  The message identifies which rule was broken."""


class Graph:
    """Simple undirected graph with bitmask adjacency rows.

    ``adj[v]`` is the bitmask of neighbors of v.  Instances are immutable;
    equality is exact (same vertex count, same adjacency), not isomorphism.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative, got %d" % n)
        rows = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphFormatError(
                    "vertex id out of range: edge (%r, %r) with n=%d" % (u, v, n))
            if u == v:
                raise GraphFormatError("self-loop at vertex %d" % u)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError("duplicate edge (%d, %d)" % key)
            seen.add(key)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self._hash = hash((n, self.adj))

    @classmethod
    def _from_rows(cls, rows) -> "Graph":
        """The graph with adjacency rows ``rows``, unchecked: the caller
        guarantees they are symmetric, loop-free and in range.  For
        builders whose rows are right by construction (a complement, a
        cotree's graph), where the edge-by-edge constructor would spend
        time quadratic in n on edge tuples and checks."""
        g = cls.__new__(cls)
        g.n, g.adj = len(rows), tuple(rows)
        g._hash = hash((g.n, g.adj))
        return g

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(popcount(row) for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for k in bits(higher):
                out.append((u, u + 1 + k))
        return out

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def complement(self) -> "Graph":
        """The graph on the same vertices whose edges are this graph's
        non-edges, built row by row in O(n) big-integer operations."""
        full = self.full_mask
        return Graph._from_rows([full & ~row & ~(1 << v)
                                 for v, row in enumerate(self.adj)])

    def neighborhood_of_set(self, mask: int) -> int:
        """Union of neighborhoods of the vertices in ``mask``.

        Connected-variant legality runs on this, so the loop is inlined
        rather than built on ``bits``.
        """
        adj = self.adj
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count())


def components(g: Graph, within: Optional[int] = None) -> list[int]:
    """Connected components of the subgraph induced by ``within`` (default:
    all of g) as bitmasks, ordered by smallest member.

    The search engine splits every child position with this, so the
    frontier expansion is inlined rather than built on ``bits``.
    """
    adj = g.adj
    remaining = g.full_mask if within is None else within
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``mask``.

    Returns (subgraph, vertex_map) where vertex_map[new_id] = old_id; new
    ids follow ascending old-id order.
    """
    old_ids = list(bits(mask))
    index = {old: new for new, old in enumerate(old_ids)}
    edges = []
    for new_u, old_u in enumerate(old_ids):
        for old_v in bits(g.adj[old_u] & mask):
            if old_v > old_u:
                edges.append((new_u, index[old_v]))
    return Graph(len(old_ids), edges), old_ids


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count() == g.n - 1 and is_connected(g)


# =====================================================================
# Family generators
# =====================================================================

def make_path(n: int) -> Graph:
    """Path 0-1-...-(n-1).  Requires n >= 1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0.  Requires n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def make_star(t: int) -> Graph:
    """Star with t leaves: center 0, leaves 1..t.  t = 0 gives K_1."""
    if t < 0:
        raise ValueError("leaf count must be nonnegative")
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def make_clique(n: int) -> Graph:
    """Complete graph on n vertices.  Requires n >= 1."""
    if n < 1:
        raise ValueError("clique needs at least one vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def make_ladder(n: int) -> Graph:
    """Ladder P_2 x P_n: 2n vertices, 3n-2 edges.

    Rail A is 0..n-1, rail B is n..2n-1, rung i joins (i, n+i).
    """
    if n < 1:
        raise ValueError("ladder needs at least one rung")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n + i, n + i + 1) for i in range(n - 1)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


# =====================================================================
# Caterpillars
# =====================================================================

@dataclass(frozen=True)
class CaterpillarSpec:
    """A caterpillar given by its backbone length and per-vertex foot
    counts.  ``feet[i]`` pendant leaves hang from backbone vertex i."""

    backbone: int
    feet: tuple[int, ...]

    def __post_init__(self):
        if self.backbone < 1:
            raise ValueError("backbone needs at least one vertex")
        if len(self.feet) != self.backbone:
            raise ValueError("need one foot count per backbone vertex")
        if any(h < 0 for h in self.feet):
            raise ValueError("foot counts must be nonnegative")
        object.__setattr__(self, "feet", tuple(self.feet))

    @property
    def total_vertices(self) -> int:
        return self.backbone + sum(self.feet)


def make_caterpillar(spec: CaterpillarSpec) -> Graph:
    """Backbone path plus pendant feet.  Backbone vertices are 0..b-1;
    feet are numbered from b onward, grouped by backbone vertex."""
    b = spec.backbone
    edges = [(i, i + 1) for i in range(b - 1)]
    nxt = b
    for i, h in enumerate(spec.feet):
        for _ in range(h):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


# =====================================================================
# Cographs and cotrees
# =====================================================================

UNION = "union"
JOIN = "join"

#: A cotree is either a bare leaf (an int vertex id) or a Cotree node.
CotreeNode = Union[int, "Cotree"]


@dataclass(frozen=True)
class Cotree:
    """Internal node of a cotree in canonical form: at least two children,
    and no child shares this node's tag (tags alternate along every
    root-leaf path)."""

    op: str
    children: tuple[CotreeNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


def _cotree_nodes(node: CotreeNode) -> list:
    """Every node of a cotree, leaves included, in preorder (each node
    before its children, children left to right), from an explicit
    stack, so the depth of the cotree is not bounded by Python's
    recursion limit."""
    out, stack = [], [node]
    while stack:
        nd = stack.pop()
        out.append(nd)
        if isinstance(nd, Cotree):
            stack.extend(reversed(nd.children))
    return out


def cotree_leaves(node: CotreeNode) -> list[int]:
    """Leaf vertex ids in left-to-right order."""
    return [nd for nd in _cotree_nodes(node) if not isinstance(nd, Cotree)]


def validate_cotree(node: CotreeNode) -> int:
    """Check canonical form and that leaves are exactly 0..n-1.

    Returns the vertex count n.  Raises GraphFormatError otherwise.
    """
    stack = [(node, None)]
    while stack:
        nd, parent_op = stack.pop()
        if isinstance(nd, bool) or not isinstance(nd, (int, Cotree)):
            raise GraphFormatError("cotree leaf must be an integer vertex id")
        if isinstance(nd, int):
            continue
        if nd.op not in (UNION, JOIN):
            raise GraphFormatError('cotree op must be "union" or "join", got %r' % (nd.op,))
        if len(nd.children) < 2:
            raise GraphFormatError("cotree internal node needs at least two children")
        if nd.op == parent_op:
            raise GraphFormatError(
                "cotree not canonical: nested %r nodes must be merged" % nd.op)
        stack.extend((child, nd.op) for child in reversed(nd.children))
    leaves = cotree_leaves(node)
    if sorted(leaves) != list(range(len(leaves))):
        raise GraphFormatError(
            "cotree leaves must be exactly the vertex ids 0..n-1")
    return len(leaves)


def make_cograph(cotree: CotreeNode) -> Graph:
    """Realize a cotree: a join node connects every cross pair of its
    children's vertex sets, a union node connects none.

    A vertex's row is the union, over its join ancestors, of the
    ancestor's vertices outside the child it descends through.  One pass
    from the leaves up gives every node's vertex mask, and one pass from
    the root down hands each child its ancestors' contribution, so the
    graph costs O(nodes) big-integer operations at any depth.
    """
    n = validate_cotree(cotree)
    nodes = _cotree_nodes(cotree)
    mask = {}  # id of a node (a leaf is its own int) -> its vertex set
    for nd in reversed(nodes):  # children before parents
        mask[id(nd)] = (1 << nd if isinstance(nd, int) else
                        reduce(or_, (mask[id(c)] for c in nd.children)))
    rows = [0] * n
    above = {id(cotree): 0}  # id of a node -> its ancestors' contribution
    for nd in nodes:  # parents before children
        if isinstance(nd, int):
            rows[nd] = above[id(nd)]
            continue
        inherited, whole = above[id(nd)], mask[id(nd)]
        for child in nd.children:
            above[id(child)] = (inherited | whole & ~mask[id(child)]
                                if nd.op == JOIN else inherited)
    return Graph._from_rows(rows)


def parse_cotree(data) -> CotreeNode:
    payload = _load_json_value(data, expect="cotree")

    def build(obj):
        if isinstance(obj, bool):
            raise GraphFormatError("cotree leaf must be an integer vertex id")
        if isinstance(obj, int):
            return obj
        if not isinstance(obj, dict):
            raise GraphFormatError(
                "cotree node must be an object or an integer leaf")
        if set(obj) != {"op", "children"}:
            raise GraphFormatError(
                'cotree node must have exactly the keys "op" and "children"')
        if not isinstance(obj["children"], list):
            raise GraphFormatError('"children" must be a list')
        return Cotree(obj["op"], tuple(build(c) for c in obj["children"]))

    node = build(payload)
    validate_cotree(node)
    return node


def emit_cotree(node: CotreeNode) -> bytes:
    def strip(nd):
        if isinstance(nd, int):
            return nd
        return {"op": nd.op, "children": [strip(c) for c in nd.children]}

    return (json.dumps(strip(node), sort_keys=True, separators=(",", ":")) + "\n").encode()


# =====================================================================
# JSON graph serialization
# =====================================================================

def _load_json_value(data, expect: str):
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("malformed JSON in %s: %s" % (expect, exc)) from exc
    except RecursionError:
        raise GraphFormatError(
            "malformed JSON in %s: nested too deeply" % expect) from None


def _load_json_object(data, expect: str) -> dict:
    payload = _load_json_value(data, expect)
    if not isinstance(payload, dict):
        raise GraphFormatError("%s must be a JSON object" % expect)
    return payload


def parse_graph(data) -> Graph:
    """Parse the graph interchange format {"n": int, "edges": [[u, v], ...]}.

    Accepts bytes or str.  Raises GraphFormatError with a distinct message
    for malformed JSON, an out-of-range vertex id, a self-loop, or a
    duplicate edge.
    """
    obj = _load_json_object(data, expect="graph")
    if set(obj) != {"n", "edges"}:
        raise GraphFormatError('graph object must have exactly the keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError('"n" must be a nonnegative integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    pairs = []
    for item in edges:
        if (not isinstance(item, list) or len(item) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
            raise GraphFormatError("each edge must be a pair of integers, got %r" % (item,))
        pairs.append((item[0], item[1]))
    return Graph(n, pairs)


def emit_graph(g: Graph) -> bytes:
    """Canonical serialization: edges as [u, v] with u < v, sorted; ends
    with a newline.  parse_graph(emit_graph(g)) == g."""
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def graph_digest(g: Graph) -> str:
    """Stable content hash of a graph (over its canonical serialization)."""
    return hashlib.sha256(emit_graph(g)).hexdigest()


# =====================================================================
# Seeded random families (used by the verification sweeps and `gen`)
# =====================================================================

def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            # insert keeping the leaf pool sorted, for determinism
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    u, v = leaves
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_caterpillar_spec(max_vertices: int, rng: random.Random) -> CaterpillarSpec:
    """Random caterpillar spec with total vertex count <= max_vertices."""
    if max_vertices < 1:
        raise ValueError("need room for at least one vertex")
    total = rng.randint(1, max_vertices)
    backbone = rng.randint(1, total)
    feet = [0] * backbone
    for _ in range(total - backbone):
        feet[rng.randrange(backbone)] += 1
    return CaterpillarSpec(backbone, tuple(feet))


def random_cotree(max_leaves: int, rng: random.Random) -> CotreeNode:
    """Random canonical cotree on 1..max_leaves leaves."""
    if max_leaves < 1:
        raise ValueError("need at least one leaf")
    n = rng.randint(1, max_leaves)
    ids = list(range(n))
    rng.shuffle(ids)

    def build(pool: list[int], op: str) -> CotreeNode:
        if len(pool) == 1:
            return pool[0]
        k = rng.randint(2, len(pool))
        # split the pool into k nonempty contiguous groups
        cuts = sorted(rng.sample(range(1, len(pool)), k - 1))
        groups, start = [], 0
        for cut in cuts + [len(pool)]:
            groups.append(pool[start:cut])
            start = cut
        other = JOIN if op == UNION else UNION
        return Cotree(op, tuple(build(grp, other) for grp in groups))

    return build(ids, rng.choice((UNION, JOIN)))


def random_biconnected_chordal(n: int, rng: random.Random) -> Graph:
    """Random chordal graph with no cut vertex, grown from a triangle by
    attaching each new vertex to a clique of size >= 2 (which keeps the
    graph chordal and 2-connected)."""
    if n < 3:
        raise ValueError("need at least three vertices")
    edges = [(0, 1), (0, 2), (1, 2)]
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    for v in range(3, n):
        u = rng.randrange(v)
        w = rng.choice(sorted(adj[u]))
        base = [u, w]
        # optionally grow the attachment clique with common neighbors
        common = sorted(adj[u] & adj[w])
        while common and rng.random() < 0.5:
            pick = rng.choice(common)
            base.append(pick)
            common = sorted(set(common) & adj[pick] - set(base))
        adj[v] = set()
        for b in base:
            edges.append((b, v))
            adj[v].add(b)
            adj[b].add(v)
    return Graph(n, edges)


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Random chordal graph on n vertices with cut vertices: blocks of
    2 to 8 vertices (single edges and ``random_biconnected_chordal``
    graphs) glued one at a time at a random vertex already placed.
    Gluing chordal graphs at one vertex keeps them chordal."""
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = []
    size = 1
    while size < n:
        k = rng.randint(1, min(n - size, 7))  # new vertices in the block
        block = (Graph(2, [(0, 1)]) if k == 1
                 else random_biconnected_chordal(k + 1, rng))
        glued = rng.randrange(k + 1)  # the block vertex that already exists
        ids = list(range(size, size + k))
        ids.insert(glued, rng.randrange(size))
        edges += [(ids[u], ids[v]) for u, v in block.edges()]
        size += k
    return Graph(n, edges)


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


#: Families built from one integer size: name -> (smallest size,
#: builder(size, rng)).  The size counts vertices, except a star's leaves
#: and a ladder's rungs; only the random families draw from rng.  `gen`
#: checks --n and the verification sweeps check --max-n against these
#: minimums.
SIZED_FAMILIES = {
    "path": (1, lambda n, rng: make_path(n)),
    "cycle": (3, lambda n, rng: make_cycle(n)),
    "star": (0, lambda t, rng: make_star(t)),
    "clique": (1, lambda n, rng: make_clique(n)),
    "ladder": (1, lambda n, rng: make_ladder(n)),
    "tree": (1, random_tree),
    "chordal": (3, random_biconnected_chordal),
    "glued-chordal": (1, random_chordal),
}
