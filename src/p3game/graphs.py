"""Graph primitives, family generators, and JSON serialization.

Vertices are the integers 0..n-1.  Vertex sets are plain Python ints used
as bitmasks (bit v set <=> vertex v in the set); Python ints are arbitrary
precision, so the same representation covers graphs of any size.

Nothing in the package changes a graph after construction: transposition
tables, positions and cache digests rely on that.

Generator numbering conventions (stable, relied on by tests and fixtures):

* ``make_path`` / ``make_cycle``: vertices in path/cycle order 0..n-1.
* ``make_ladder``: rail A is 0..n-1, rail B is n..2n-1, rung i joins
  (i, n+i).
* ``make_star``: the center is vertex 0, leaves are 1..t.
* ``make_caterpillar``: backbone vertices come first (0..b-1, in path
  order), then feet, grouped by backbone vertex in ascending order.
"""

from __future__ import annotations

import json
import heapq
import random
from collections.abc import Iterable, Iterator, Sequence


# =====================================================================
# Bitmask vertex sets
# =====================================================================

def bits(mask: int) -> Iterator[int]:
    """Iterate over the vertex ids present in a bitmask, ascending.  A
    negative mask (such as ``~m``) is an infinite set: ValueError."""
    if mask < 0:
        raise ValueError("negative vertex mask %d" % mask)
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


# =====================================================================
# Core graph type
# =====================================================================

class GraphFormatError(ValueError):
    """Raised when graph input violates the format or the simple-graph
    invariants.  The message identifies which rule was broken."""


class Graph:
    """Simple undirected graph with bitmask adjacency rows.

    ``Graph(n, edges)`` builds every graph in the package, and checks
    each edge for range, self-loops and duplicates.  ``adj[v]`` is the
    bitmask of neighbors of v.  Nothing in the package sets ``n`` or
    ``adj`` after construction (tables, positions and cache digests rely
    on it); equality is exact (same vertex count, same adjacency), not
    isomorphism.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative, got %d" % n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphFormatError(
                    "vertex id out of range: edge (%r, %r) with n=%d" % (u, v, n))
            if u == v:
                raise GraphFormatError("self-loop at vertex %d" % u)
            if rows[u] >> v & 1:
                raise GraphFormatError("duplicate edge (%d, %d)"
                                       % ((u, v) if u < v else (v, u)))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u, row in enumerate(self.adj):
            higher = row >> (u + 1)  # bit k is vertex u + 1 + k
            while higher:
                low = higher & -higher
                out.append((u, u + low.bit_length()))
                higher ^= low
        return out

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
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count())


def components(g: Graph, within: int | None = None,
               seeds: int | None = None) -> list[int]:
    """Connected components of the subgraph induced by ``within`` (default:
    all of g) as bitmasks, in the order of their lowest seed.

    ``seeds`` (default: ``within``) is a subset of ``within`` that meets
    every component.  A flood starts from the lowest seed not yet
    reached and stops as soon as it holds every remaining seed: what is
    left of ``within`` is then one component, returned whole without
    further flooding (at once, when a single seed remains).  So fewer
    seeds cost less, and the default, where every vertex is a seed,
    floods everything and orders the components by smallest member.
    Seeds that miss a component make the last one returned a union.

    The search engine splits every child position with this, so the
    frontier expansion is inlined rather than built on ``bits``.
    """
    adj = g.adj
    remaining = g.full_mask if within is None else within
    if seeds is None:
        seeds = remaining
    comps = []
    while remaining:
        comp = frontier = seeds & -seeds
        left = remaining ^ comp  # not yet reached by this flood
        while frontier and seeds & left:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & left
            left ^= frontier
            comp |= frontier
        if not seeds & left:
            comps.append(remaining)
            break
        comps.append(comp)
        remaining = left
        seeds &= left
    return comps


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


def make_caterpillar(feet: Sequence[int]) -> Graph:
    """Backbone path with ``feet[i]`` pendant leaves on backbone vertex i.
    Backbone vertices are 0..b-1 for b = len(feet); feet are numbered
    from b onward, grouped by backbone vertex."""
    if not feet:
        raise ValueError("backbone needs at least one vertex")
    if any(h < 0 for h in feet):
        raise ValueError("foot counts must be nonnegative")
    nxt = len(feet)
    edges = [(i, i + 1) for i in range(nxt - 1)]
    for i, h in enumerate(feet):
        edges += [(i, v) for v in range(nxt, nxt + h)]
        nxt += h
    return Graph(nxt, edges)


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
# JSON graph serialization
# =====================================================================

def _object_without_repeats(pairs: list) -> dict:
    """A JSON object's pairs as a dict.  json.loads keeps the last value
    of a repeated key, which would read the file as another graph."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise GraphFormatError(
                "graph JSON repeats the key %s" % json.dumps(key))
        obj[key] = value
    return obj


_GRAPH_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeats)


def parse_graph(data) -> Graph:
    """Parse the graph interchange format {"n": int, "edges": [[u, v], ...]}.

    Accepts bytes or str.  Raises GraphFormatError with a distinct message
    for malformed JSON, a repeated key, an out-of-range vertex id, a
    self-loop, or a duplicate edge.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        if data.startswith("\ufeff"):  # json.loads names it; decode would not
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        obj = _GRAPH_DECODER.decode(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("malformed JSON in graph: %s" % exc) from exc
    except RecursionError:
        raise GraphFormatError(
            "malformed JSON in graph: nested too deeply") from None
    if not isinstance(obj, dict):
        raise GraphFormatError("graph must be a JSON object")
    if set(obj) != {"n", "edges"}:
        raise GraphFormatError('graph object must have exactly the keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError('"n" must be a nonnegative integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    for item in edges:
        # JSON decodes to exact types; ``type(...) is int`` rules out bools
        if (type(item) is not list or len(item) != 2
                or type(item[0]) is not int or type(item[1]) is not int):
            raise GraphFormatError("each edge must be a pair of integers, got %r" % (item,))
    return Graph(n, edges)


def emit_graph(g: Graph) -> bytes:
    """Canonical serialization: edges as [u, v] with u < v, sorted; ends
    with a newline.  parse_graph(emit_graph(g)) == g.

    The bytes are those of ``json.dumps({"n": ..., "edges": ...},
    sort_keys=True, separators=(",", ":")) + "\n"``, formatted directly:
    graph_digest hashes them, so cache keys depend on every byte."""
    edges = ",".join(["[%d,%d]" % edge for edge in g.edges()])
    return ('{"edges":[%s],"n":%d}\n' % (edges, g.n)).encode()


def graph_digest(g: Graph) -> str:
    """Stable content hash of a graph (over its canonical serialization)."""
    import hashlib  # not at the top: the CLI digests only in solve --cache
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
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]  # ascending: a heap
    for v in seq:
        leaf = heapq.heappop(leaves)  # the lowest leaf, for determinism
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(leaves))  # a heap of two is in order
    return Graph(n, edges)


def random_caterpillar(n: int, rng: random.Random) -> Graph:
    """Random caterpillar on n vertices: a backbone of 1..n vertices,
    each remaining vertex a foot of a uniformly chosen backbone vertex."""
    if n < 1:
        raise ValueError("caterpillar needs at least one vertex")
    backbone = rng.randint(1, n)
    feet = [0] * backbone
    for _ in range(n - backbone):
        feet[rng.randrange(backbone)] += 1
    return make_caterpillar(feet)


def random_cograph(n: int, rng: random.Random) -> Graph:
    """Random cograph on n vertices.  The shuffled vertices are cut into
    k contiguous groups, k uniform in 2..size, and each group of two or
    more is cut again, under an operation that alternates with depth
    from a random first one: a union adds no edge, a join adds every
    edge across its groups.  An explicit stack visits the groups, and
    so makes the draws, in the order a left-to-right recursion would,
    and the depth is not bounded by Python's recursion limit."""
    if n < 1:
        raise ValueError("cograph needs at least one vertex")
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    stack = [(order, rng.choice((False, True)))]
    while stack:
        pool, join = stack.pop()
        size = len(pool)
        if size == 1:
            continue
        cuts = sorted(rng.sample(range(1, size), rng.randint(2, size) - 1))
        groups = [pool[a:b] for a, b in zip([0, *cuts], [*cuts, size])]
        if join:
            edges += [(u, v) for i, left in enumerate(groups)
                      for right in groups[i + 1:] for u in left for v in right]
        stack += [(group, not join) for group in reversed(groups)]
    return Graph(n, edges)


def random_biconnected_chordal(n: int, rng: random.Random) -> Graph:
    """Random chordal graph with no cut vertex, grown from a triangle by
    attaching each new vertex to a clique of size >= 2 (which keeps the
    graph chordal and 2-connected)."""
    if n < 3:
        raise ValueError("need at least three vertices")
    rows = [0b110, 0b101, 0b011] + [0] * (n - 3)
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        u = rng.randrange(v)
        w = rng.choice(list(bits(rows[u])))
        base = 1 << u | 1 << w
        # optionally grow the attachment clique with common neighbors
        common = rows[u] & rows[w]
        while common and rng.random() < 0.5:
            pick = rng.choice(list(bits(common)))
            base |= 1 << pick
            common &= rows[pick] & ~base
        rows[v] = base
        for b in bits(base):
            rows[b] |= 1 << v
            edges.append((b, v))
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
    "caterpillar": (1, random_caterpillar),
    "cograph": (1, random_cograph),
}
