"""Immutable simple digraphs and basic structural operations.

A digraph is a vertex count ``n`` plus a set of ordered arcs ``(u, v)`` with
``u != v`` and both endpoints in ``range(n)``.  Loops and parallel arcs are
rejected at construction; vertices are always ``0 .. n-1``.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Sequence

Arc = tuple[int, int]


class DigraphError(ValueError):
    """Raised for malformed digraph inputs (bad arcs, bad vertex sets, bad files)."""


class _cached:
    """A view computed on first read and stored in the instance dict, which later reads find first.

    ``functools.cached_property`` without its lock (Python 3.11 takes an
    ``RLock`` on every first read); the value is written to ``__dict__``
    directly, past ``Digraph.__setattr__``.
    """

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Digraph:
    """Simple digraph on vertices ``0 .. n-1`` with an immutable arc set.

    Equal and hashed by ``(n, arcs)``; the cached views live in the instance dict.
    """

    n: int
    arcs: frozenset[Arc]

    def __init__(self, n: int, arcs: frozenset[Arc]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Digraph is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Digraph is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n, self.arcs) == (other.n, other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    @_cached
    def _rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Out- and in-rows from one pass over ``sorted_arcs``.

        The arcs come sorted by tail, then head, so each out-row is filled in
        head order and each in-row in tail order, and no row is sorted.
        """
        out_rows: list[list[int]] = [[] for _ in range(self.n)]
        in_rows: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.sorted_arcs:
            out_rows[u].append(v)
            in_rows[v].append(u)
        return tuple(map(tuple, out_rows)), tuple(map(tuple, in_rows))

    @_cached
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        return self._rows[0]

    @_cached
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        return self._rows[1]

    @_cached
    def sorted_arcs(self) -> tuple[Arc, ...]:
        """Arcs in lexicographic order; the canonical order used everywhere."""
        return tuple(sorted(self.arcs))

    @_cached
    def flow_network(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Heads of the unit-flow edges and the edges leaving each vertex.

        Edge ``2i`` is ``sorted_arcs[i]`` and edge ``2i + 1`` its reverse.
        """
        head: list[int] = []
        edges: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.sorted_arcs):
            head += (v, u)
            edges[u].append(2 * i)
            edges[v].append(2 * i + 1)
        return tuple(head), tuple(map(tuple, edges))

    @_cached
    def pair_orbits(self) -> list[int]:
        """The orbit id of each ordered pair ``(a, b)``, at index ``a * n + b``, diagonal included.

        Orbits are taken under the group that ``_automorphism_generators``
        finds, and an orbit's id is its least index: indices are taken in
        order and each one not yet reached closes its whole orbit.  With no
        automorphism found, every pair is its own orbit.  Built on first
        read by a pair sweep past its floor exit, and kept as long as the
        digraph, as ``flow_network`` is: n² entries, 2.56 million at
        n = 1,600.
        """
        n = self.n
        generators = _automorphism_generators(self)
        orbit = [-1] * (n * n)
        for start in range(n * n):
            if orbit[start] < 0:
                orbit[start] = start
                reached = [start]
                for p in reached:  # grows while it is walked
                    a, b = divmod(p, n)
                    for perm in generators:
                        q = perm[a] * n + perm[b]
                        if orbit[q] < 0:
                            orbit[q] = start
                            reached.append(q)
        return orbit

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def __repr__(self) -> str:  # keep hypothesis failure output readable
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


def from_arc_list(n: int, arcs: Iterable[Arc]) -> Digraph:
    """Build a digraph, deduplicating repeated arcs and rejecting bad ones."""
    if n < 1:
        raise DigraphError(f"order must be >= 1, got {n}")
    clean: set[Arc] = set()
    for pair in arcs:
        u, v = pair
        if u == v:
            raise DigraphError(f"loop arc ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise DigraphError(f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
        clean.add((int(u), int(v)))
    return Digraph(n, frozenset(clean))


def _strong_without(d: Digraph, cut: Iterable[Arc] = ()) -> bool:
    """True iff every vertex reaches every other once the arcs of ``cut`` are gone.

    Searches from vertex 0 along out-arcs and then along in-arcs of ``d``.
    Only the neighbour rows of cut-arc ends are filtered, through a map from
    each tail to its cut heads (head to cut tails for the in-arc search);
    no digraph is built.
    """
    cut_heads: dict[int, set[int]] = {}
    cut_tails: dict[int, set[int]] = {}
    for u, v in cut:
        cut_heads.setdefault(u, set()).add(v)
        cut_tails.setdefault(v, set()).add(u)
    for adj, skip in ((d.out_adj, cut_heads), (d.in_adj, cut_tails)):
        if skip:
            adj = list(adj)
            for u, gone in skip.items():
                adj[u] = [v for v in adj[u] if v not in gone]
        seen = [False] * d.n
        seen[0] = True
        stack = [0]
        for u in stack:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if len(stack) < d.n:
            return False
    return True


def is_strong(d: Digraph) -> bool:
    """True iff every vertex reaches every other (a 1-vertex digraph is strong)."""
    return _strong_without(d)


def is_symmetric(d: Digraph) -> bool:
    """True iff every arc has its reverse."""
    return all((v, u) in d.arcs for u, v in d.arcs)


def degrees(d: Digraph) -> tuple[int, int]:
    """Return ``(min out-degree, min in-degree)``."""
    return min(map(len, d.out_adj)), min(map(len, d.in_adj))


def biorient(n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """Replace each undirected edge {u, v} by the two arcs (u, v) and (v, u).

    Rejects loops and repeated edges so the arc count is exactly twice the
    edge count.
    """
    seen: set[frozenset[int]] = set()
    arcs: list[Arc] = []
    for u, v in edges:
        if u == v:
            raise DigraphError(f"loop edge ({u}, {v}) not allowed")
        key = frozenset((u, v))
        if key in seen:
            raise DigraphError(f"repeated edge ({u}, {v})")
        seen.add(key)
        arcs.append((u, v))
        arcs.append((v, u))
    return from_arc_list(n, arcs)


def _strong_on_endpoints(arcs: Iterable[Arc]) -> tuple[bool, Collection[int]]:
    """Whether the non-empty arc set ``arcs`` is strong on the ends of its arcs, and those ends.

    One pass over the arcs builds the successor and predecessor lists of each
    endpoint.  The arc set is strong iff every endpoint is a tail and a head
    and the least tail reaches every endpoint along both.  The ends are read
    off the same lists, so a caller can test seed coverage with no second pass.
    """
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
    ends = succ.keys()
    if ends != pred.keys():
        return False, ends | pred.keys()
    start = min(succ)
    for adj in (succ, pred):
        seen = {start}
        stack = [start]
        for u in stack:  # grows while it is walked
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(stack) < len(succ):
            return False, ends
    return True, ends


# --- automorphisms ------------------------------------------------------------

# Refinements the generator search may spend; past it the generators verified so
# far are returned, which only makes the group they generate smaller.
_AUTOMORPHISM_NODE_BUDGET = 2000


def _refine(d: Digraph, colour: Sequence[int]) -> tuple[list[int], list]:
    """Coarsest refinement of ``colour`` that is equitable for out- and in-neighbours.

    Each round colours a vertex by its colour and the sorted colours of its
    out- and in-neighbours (a vertex alone in its cell keeps its colour),
    numbered in sorted order, so the result depends on the colours alone and
    never on vertex labels.  Returns the colouring and its sorted cell
    signatures; an automorphism can map one refined colouring onto another
    only when their signatures are equal.
    """
    out_adj, in_adj = d.out_adj, d.in_adj
    size = Counter(colour)
    while True:
        at = colour.__getitem__
        sigs = [
            (c, tuple(sorted(map(at, out_adj[v]))), tuple(sorted(map(at, in_adj[v])))) if size[c] > 1 else (c,)
            for v, c in enumerate(colour)
        ]
        order = sorted(set(sigs))
        rank = {sig: i for i, sig in enumerate(order)}
        colour = [rank[sig] for sig in sigs]
        if len(order) == len(size):
            return colour, order
        size = Counter(colour)


def _individualise(colour: Sequence[int], w: int) -> list[int]:
    """Split ``w`` off its cell, ahead of the rest of it."""
    return [2 * c + (v != w) for v, c in enumerate(colour)]


def _target_cell(colour: Sequence[int]) -> list[int]:
    """Vertices of the non-singleton cell with the least colour."""
    target = min(c for c, k in Counter(colour).items() if k > 1)
    return [v for v, c in enumerate(colour) if c == target]


def _automorphism_generators(d: Digraph) -> list[tuple[int, ...]]:
    """Automorphisms of ``d`` found by individualisation and refinement.

    The first path individualises the least vertex of the target cell until
    the colouring is discrete.  Then, from the deepest level up, it looks for
    an automorphism fixing the earlier base points that maps the level's base
    point to each vertex of its cell not yet in its orbit, and takes the first
    leaf that yields one.  A permutation is kept only after it is checked to map
    the arc set onto itself, so every returned ``p`` (vertex ``v`` to ``p[v]``)
    is an automorphism whether or not the search ran to the end.  The search
    stops for good after ``_AUTOMORPHISM_NODE_BUDGET`` refinements.
    """
    n = d.n
    colour, sig = _refine(d, [0] * n)
    path = [(colour, sig)]
    base: list[int] = []
    while len(sig) < n:
        base.append(_target_cell(colour)[0])
        colour, sig = _refine(d, _individualise(colour, base[-1]))
        path.append((colour, sig))
    leaf = colour
    arcs = d.arcs
    budget = _AUTOMORPHISM_NODE_BUDGET

    def leaf_search(level: int, w: int) -> tuple[int, ...] | None:
        """An automorphism fixing ``base[:level]`` and mapping ``base[level]`` to ``w``."""
        nonlocal budget
        stack = [[w]]  # candidates still to try per depth, least last
        colours = [path[level][0]]
        while stack:
            if not stack[-1]:
                stack.pop()
                colours.pop()
                continue
            if budget <= 0:
                return None
            budget -= 1
            colour, sig = _refine(d, _individualise(colours[-1], stack[-1].pop()))
            depth = level + len(stack)
            if sig != path[depth][1]:
                continue
            if depth < len(base):
                stack.append(_target_cell(colour)[::-1])
                colours.append(colour)
                continue
            where = [0] * n
            for v, c in enumerate(colour):
                where[c] = v
            perm = tuple(where[c] for c in leaf)
            if all((perm[u], perm[v]) in arcs for u, v in arcs):
                return perm
        return None

    orbit = list(range(n))  # union-find under the generators found so far

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    generators: list[tuple[int, ...]] = []
    for level in reversed(range(len(base))):
        colour, b = path[level][0], base[level]
        for w in range(n):
            if colour[w] != colour[b] or find(w) == find(b):
                continue
            perm = leaf_search(level, w)
            if perm is not None:
                generators.append(perm)
                for v in range(n):
                    orbit[find(v)] = find(perm[v])
            elif budget <= 0:
                return generators
    return generators


# --- text and DOT formats ---------------------------------------------------

def dumps_digraph(d: Digraph) -> str:
    """Serialize to the line format: ``n <order>``, then one arc per line."""
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs)
    return "\n".join(lines) + "\n"


def loads_digraph(text: str) -> Digraph:
    """Parse the line format; blank lines and ``#`` comments are skipped."""
    order: int | None = None
    arcs: list[Arc] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if order is None:
            if len(toks) != 2 or toks[0] != "n":
                raise DigraphError(f"expected 'n <order>' line, got {line!r}")
            order = int(toks[1])
            continue
        if len(toks) != 2:
            raise DigraphError(f"expected 'u v' arc line, got {line!r}")
        arcs.append((int(toks[0]), int(toks[1])))
    if order is None:
        raise DigraphError("missing 'n <order>' line")
    return from_arc_list(order, arcs)


def read_digraph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_digraph(fh.read())


_DOT_PALETTE = (
    "red", "blue", "forestgreen", "orange", "purple",
    "brown", "deepskyblue", "magenta", "olive", "teal",
)


def to_dot(d: Digraph, member_arcs: Sequence[Iterable[Arc]] = ()) -> str:
    """Graphviz text; arcs belonging to the i-th member set get the i-th palette color."""
    color: dict[Arc, str] = {}
    for i, member in enumerate(member_arcs):
        tint = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for arc in member:
            color[tuple(arc)] = tint
    lines = ["digraph {"]
    for u, v in d.sorted_arcs:
        attr = f' [color={color[(u, v)]}]' if (u, v) in color else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
