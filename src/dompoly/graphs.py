"""Simple undirected graphs with bitmask closed neighborhoods.

A graph of order n stores, for each vertex v, the closed neighborhood
N[v] (v together with its neighbors) as an n-bit integer mask. That makes
the dominating-set test a couple of machine-word ORs, which is what the
brute-force counter in `oracle` lives on.

Also here: the named families the rest of the package builds on, disjoint
union and join, and a graph6 codec for ingesting corpora produced by the
usual graph generators.

`Graph(n, closed)` validates its masks. Three builders skip that
re-check because their masks are valid as built: `parse_graph6` and
`from_edges` start each mask at its own vertex and set each in-range edge
between two distinct vertices in both masks at once, and `disjoint_union`
shifts two valid graphs' masks apart. `verify`'s seeded random graphs
build their masks as `from_edges` does.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator

from .errors import (
    Graph6FormatError,
    Graph6ParseError,
    Graph6RangeError,
    ParameterDomainError,
)

__all__ = [
    "Graph",
    "cycle",
    "path",
    "complete",
    "wheel",
    "complete_cycle_join",
    "build_family",
    "FAMILY_NAMES",
    "disjoint_union",
    "join",
    "parse_graph6",
    "encode_graph6",
    "iter_graph6_records",
]


class Graph:
    """Immutable simple graph; `closed[v]` is the bitmask of N[v].

    The constructor checks that each mask stays inside the n vertices, holds
    its own vertex and agrees with its neighbors' masks. Three builders make
    masks valid as built and go through `_valid`, which skips the checks:
    `parse_graph6` and `from_edges` start each mask at its own vertex and set
    every in-range edge between distinct vertices in both endpoints' masks,
    and `disjoint_union` shifts the masks of two valid graphs apart;
    `verify`'s seeded random graphs build as `from_edges` does.
    `complete`, `join`, `induced_subgraph` and user code build through the
    checks.
    """

    __slots__ = ("n", "closed")

    def __init__(self, n: int, closed: Iterable[int]):
        closed = tuple(closed)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(closed) != n:
            raise ValueError(f"expected {n} neighborhood masks, got {len(closed)}")
        full = (1 << n) - 1
        for v, mask in enumerate(closed):
            if mask & ~full:
                raise ValueError(f"mask of vertex {v} mentions vertices >= {n}")
            if not mask & (1 << v):
                raise ValueError(f"closed neighborhood of {v} does not contain {v}")
        for v, mask in enumerate(closed):
            m = mask & ~(1 << v)
            while m:
                u = (m & -m).bit_length() - 1
                if not closed[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                m &= m - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "closed", closed)

    @classmethod
    def _valid(cls, n: int, closed: tuple[int, ...]) -> "Graph":
        """A Graph from neighborhoods the caller built valid: no re-check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "closed", closed)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        closed = [1 << v for v in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        return cls._valid(n, tuple(closed))

    def degree(self, v: int) -> int:
        return self.closed[v].bit_count() - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            m = self.closed[v] >> (v + 1)
            u = v + 1
            while m:
                if m & 1:
                    out.append((v, u))
                m >>= 1
                u += 1
        return out

    def component_masks(self) -> list[int]:
        """Vertex masks of the connected components."""
        seen = 0
        comps = []
        for v in range(self.n):
            if seen & (1 << v):
                continue
            comp = 1 << v
            frontier = self.closed[v]
            while frontier & ~comp:
                comp |= frontier
                frontier = 0
                m = comp
                while m:
                    u = (m & -m).bit_length() - 1
                    frontier |= self.closed[u]
                    m &= m - 1
            comps.append(comp)
            seen |= comp
        return comps

    def induced_subgraph(self, vertex_mask: int) -> "Graph":
        """Subgraph on the masked vertices, relabeled to 0..k-1."""
        verts = list(_bits(vertex_mask))
        index = {v: i for i, v in enumerate(verts)}
        closed = []
        for v in verts:
            m = 0
            for u in _bits(self.closed[v] & vertex_mask):
                m |= 1 << index[u]
            closed.append(m)
        return Graph(len(verts), closed)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.closed == other.closed
        )

    def __hash__(self) -> int:
        return hash((self.n, self.closed))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Named families. Vertex numbering is fixed so test vectors stay stable:
# cycles and paths run 0..n-1 in order; joins place the left operand first.
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    """C_n, with the conventions C_1 = K_1 and C_2 = K_2."""
    if n < 1:
        raise ParameterDomainError(f"cycle needs n >= 1, got {n}")
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterDomainError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterDomainError(f"complete needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph(n, [full] * n)


def wheel(n: int) -> Graph:
    """W_n of order n: the hub K_1 joined to C_{n-1}. Needs n >= 4."""
    if n < 4:
        raise ParameterDomainError(f"wheel needs n >= 4, got {n}")
    return join(complete(1), cycle(n - 1))


def complete_cycle_join(m: int, n: int) -> Graph:
    """K_m joined with C_n."""
    if m < 1 or n < 1:
        raise ParameterDomainError(
            f"complete-cycle-join needs m, n >= 1, got ({m},{n})"
        )
    return join(complete(m), cycle(n))


FAMILY_NAMES = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete": (complete, 1),
    "wheel": (wheel, 1),
    "complete-cycle-join": (complete_cycle_join, 2),
}


def build_family(name: str, *params: int) -> Graph:
    """Build a named family; raises ParameterDomainError on bad input."""
    try:
        builder, arity = FAMILY_NAMES[name]
    except KeyError:
        raise ParameterDomainError(
            f"unknown family {name!r}; known: {', '.join(sorted(FAMILY_NAMES))}"
        ) from None
    if len(params) != arity:
        raise ParameterDomainError(
            f"family {name!r} takes {arity} parameter(s), got {len(params)}"
        )
    return builder(*params)


# ---------------------------------------------------------------------------
# Graph operations
# ---------------------------------------------------------------------------

def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g together with h, h's vertices shifted up by g.n."""
    return Graph._valid(g.n + h.n, (*g.closed, *[mask << g.n for mask in h.closed]))


def join(g: Graph, h: Graph) -> Graph:
    """All of g and h plus every edge between the two sides."""
    n = g.n + h.n
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    closed = [mask | h_mask for mask in g.closed]
    closed += [(mask << g.n) | g_mask for mask in h.closed]
    return Graph(n, closed)


# ---------------------------------------------------------------------------
# graph6 codec (format of the nauty tool suite), short form only: one
# order byte, n <= 62. The long-form headers serve orders no 2^n walk can
# reach, so they are refused; so are sparse6 and digraph6 records, so a
# wrong corpus file fails loudly. `_g6_layout` states where each edge's
# bit sits; the decoder, the encoder and the oracle's bit lanes read it.
# ---------------------------------------------------------------------------

_G6_MAX_N = 62
_G6_HEADER = b">>graph6<<"


@cache
def _g6_layout(n: int) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """Order n's short-form graph6 layout: the record length, and each edge
    (u, v), u < v, as (u, v, body byte, bit of that byte less 63).

    The edges run column by column, (0,1), (0,2), (1,2), (0,3), ..., six
    bits a body byte, high bit first; the bits after the last edge are
    padding, and must be clear.
    """
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    edges = tuple((u, v, 1 + k // 6, 5 - k % 6) for k, (u, v) in enumerate(pairs))
    return 1 + (len(pairs) + 5) // 6, edges


def parse_graph6(record: bytes | str) -> Graph:
    """Decode one bare graph6 record into a Graph.

    The record carries no `>>graph6<<` header and no line terminator;
    `iter_graph6_records` strips both from file lines.

    Each edge u < v < n is set in both masks at once, so the neighborhoods
    are valid as built and skip `Graph`'s re-check.
    """
    if isinstance(record, str):
        try:
            data = record.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(
                f"non-ASCII character {record[exc.start]!r}", exc.start
            ) from None
    else:
        data = record
    if not data:
        raise Graph6ParseError("empty record", 0)
    if data[0:1] in (b":", b";"):
        raise Graph6FormatError("sparse6 records are not supported")
    if data[0:1] == b"&":
        raise Graph6FormatError("digraph6 records are not supported")

    if data[0] == 126:
        raise Graph6RangeError(f"graph6 orders above {_G6_MAX_N} are not supported")
    if not 63 <= data[0] <= 125:
        raise Graph6ParseError(f"invalid order byte {data[0]}", 0)
    n = data[0] - 63
    length, edges = _g6_layout(n)
    if len(data) < length:
        raise Graph6ParseError(
            f"truncated bit vector: need {length - 1} bytes for n={n}", len(data)
        )
    if len(data) > length:
        raise Graph6ParseError("trailing bytes after bit vector", length)

    for i in range(1, length):
        if not 63 <= data[i] <= 126:
            raise Graph6ParseError(f"byte {data[i]} outside graph6 range", i)
    # The padding is the low bits of the last body byte.
    if data[-1] - 63 & (1 << 6 * (length - 1) - len(edges)) - 1:
        raise Graph6ParseError("nonzero padding bit", length - 1)

    closed = [1 << v for v in range(n)]
    for u, v, i, b in edges:
        if data[i] - 63 >> b & 1:
            closed[u] |= 1 << v
            closed[v] |= 1 << u
    return Graph._valid(n, tuple(closed))


def encode_graph6(g: Graph) -> bytes:
    """Encode a Graph as one graph6 record (no header, no newline)."""
    n = g.n
    if n > _G6_MAX_N:
        raise Graph6RangeError(f"graph6 orders above {_G6_MAX_N} are not supported")
    length, edges = _g6_layout(n)
    record = bytearray([n + 63] + [63] * (length - 1))
    for u, v, i, b in edges:
        record[i] += (g.closed[v] >> u & 1) << b
    return bytes(record)


def iter_graph6_records(lines: Iterable[bytes]) -> Iterator[bytes]:
    """Yield bare graph6 records from file lines.

    Each line loses its line terminator and a `>>graph6<<` header it starts
    with, on any line, so concatenated files read as one; lines left empty
    are skipped.
    """
    for line in lines:
        raw = line.rstrip(b"\r\n").removeprefix(_G6_HEADER)
        if raw:
            yield raw
