"""Immutable simple digraphs and basic structural operations.

A digraph is a vertex count ``n`` plus a set of ordered arcs ``(u, v)`` with
``u != v`` and both endpoints in ``range(n)``.  Loops and parallel arcs are
rejected at construction; vertices are always ``0 .. n-1``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Arc = tuple[int, int]


class DigraphError(ValueError):
    """Raised for malformed digraph inputs (bad arcs, bad vertex sets, bad files)."""


@dataclass(frozen=True)
class Digraph:
    """Simple digraph on vertices ``0 .. n-1`` with an immutable arc set."""

    n: int
    arcs: frozenset[Arc]

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(sorted(heads)) for heads in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(sorted(tails)) for tails in adj)

    @cached_property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        """Arcs in lexicographic order; the canonical order used everywhere."""
        return tuple(sorted(self.arcs))

    @cached_property
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

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def reverse(self) -> "Digraph":
        return Digraph(self.n, frozenset((v, u) for u, v in self.arcs))

    def remove_arcs(self, trash: Iterable[Arc]) -> "Digraph":
        return Digraph(self.n, self.arcs - frozenset(trash))

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


def _reachable(n: int, adj: Sequence[Sequence[int]], start: int) -> list[bool]:
    seen = [False] * n
    seen[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def is_strong(d: Digraph) -> bool:
    """True iff every vertex reaches every other (a 1-vertex digraph is strong)."""
    if d.n == 1:
        return True
    return all(_reachable(d.n, d.out_adj, 0)) and all(_reachable(d.n, d.in_adj, 0))


def degrees(d: Digraph) -> tuple[int, int]:
    """Return ``(min out-degree, min in-degree)``."""
    d_out = min(d.out_degree(v) for v in range(d.n))
    d_in = min(d.in_degree(v) for v in range(d.n))
    return d_out, d_in


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


def induced_subgraph(d: Digraph, vertices: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Subgraph induced by ``vertices`` plus the old->new vertex mapping."""
    vs = sorted(set(vertices))
    if not vs:
        raise DigraphError("induced subgraph needs a non-empty vertex set")
    if vs[0] < 0 or vs[-1] >= d.n:
        raise DigraphError(f"vertices {vs} not all inside 0..{d.n - 1}")
    remap = {old: new for new, old in enumerate(vs)}
    arcs = [(remap[u], remap[v]) for u, v in d.arcs if u in remap and v in remap]
    return Digraph(len(vs), frozenset(arcs)), remap


def arc_subset_spanning_check(d: Digraph, arcs: Iterable[Arc], seeds: Iterable[int]) -> bool:
    """True iff ``arcs`` induce a strong subgraph whose vertex set covers ``seeds``.

    ``arcs`` must be a subset of ``d.arcs``.  A seed vertex that is not an
    endpoint of any chosen arc makes the answer False, never an error.
    """
    chosen = frozenset(arcs)
    if not chosen <= d.arcs:
        raise DigraphError("arc subset contains arcs not present in the digraph")
    seed_set = set(seeds)
    if not chosen:
        return False
    touched = sorted({w for arc in chosen for w in arc})
    if not seed_set <= set(touched):
        return False
    remap = {old: new for new, old in enumerate(touched)}
    sub = Digraph(len(touched), frozenset((remap[u], remap[v]) for u, v in chosen))
    return is_strong(sub)


# --- text and DOT formats ---------------------------------------------------

_PRODUCT_TAG = "# product"


def dumps_digraph(d: Digraph, product: tuple[int, int] | None = None) -> str:
    """Serialize to the line format: optional product header, ``n <order>``, one arc per line."""
    lines: list[str] = []
    if product is not None:
        lines.append(f"{_PRODUCT_TAG} n={product[0]} m={product[1]}")
    lines.append(f"n {d.n}")
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs)
    return "\n".join(lines) + "\n"


def loads_digraph(text: str) -> tuple[Digraph, tuple[int, int] | None]:
    """Parse the line format; returns the digraph and product dimensions if present."""
    product: tuple[int, int] | None = None
    order: int | None = None
    arcs: list[Arc] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_PRODUCT_TAG):
                try:
                    fields = dict(tok.split("=") for tok in line[len(_PRODUCT_TAG):].split())
                    product = (int(fields["n"]), int(fields["m"]))
                except (ValueError, KeyError) as exc:
                    raise DigraphError(f"bad product header: {line!r}") from exc
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
    d = from_arc_list(order, arcs)
    if product is not None and product[0] * product[1] != d.n:
        raise DigraphError(f"product header {product} inconsistent with order {d.n}")
    return d, product


def read_digraph(path: str) -> tuple[Digraph, tuple[int, int] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_digraph(fh.read())


def write_digraph(path: str, d: Digraph, product: tuple[int, int] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_digraph(d, product=product))


_DOT_PALETTE = (
    "red", "blue", "forestgreen", "orange", "purple",
    "brown", "deepskyblue", "magenta", "olive", "teal",
)


def to_dot(
    d: Digraph,
    member_arcs: Sequence[Iterable[Arc]] = (),
    labels: Mapping[int, str] | None = None,
) -> str:
    """Graphviz text; arcs belonging to the i-th member set get the i-th palette color."""
    color: dict[Arc, str] = {}
    for i, member in enumerate(member_arcs):
        tint = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for arc in member:
            color[tuple(arc)] = tint
    lines = ["digraph {"]
    if labels:
        for v in range(d.n):
            if v in labels:
                lines.append(f'  {v} [label="{labels[v]}"];')
    for u, v in d.sorted_arcs:
        attr = f' [color={color[(u, v)]}]' if (u, v) in color else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
