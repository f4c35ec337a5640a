"""Simple undirected graphs with bitmask closed neighborhoods.

A graph of order n stores, for each vertex v, the closed neighborhood
N[v] (v together with its neighbors) as an n-bit integer mask. That makes
the dominating-set test a couple of machine-word ORs, which is what the
brute-force counter in `oracle` lives on.

Also here: the named families the rest of the package builds on, disjoint
union and join, and a graph6 codec for ingesting corpora produced by the
usual graph generators.
"""

from __future__ import annotations

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
    "split_family_spec",
    "parse_family_spec",
    "FAMILY_NAMES",
    "disjoint_union",
    "join",
    "has_duplicate_closed_neighborhoods",
    "parse_graph6",
    "encode_graph6",
    "iter_graph6_records",
]


class Graph:
    """Immutable simple graph; `closed[v]` is the bitmask of N[v]."""

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
        return cls(n, closed)

    def closed_set(self, v: int) -> frozenset[int]:
        """N[v] as a set of vertex indices."""
        return frozenset(_bits(self.closed[v]))

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

    def edge_count(self) -> int:
        return sum(self.closed[v].bit_count() - 1 for v in range(self.n)) // 2

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

    def __reduce__(self):
        # default pickling would setattr onto the frozen instance
        return (Graph, (self.n, self.closed))

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


def split_family_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Split "name:params" strings such as "cycle:7" or
    "complete-cycle-join:2,5" into the name and the integer parameters."""
    name, sep, rest = spec.partition(":")
    if not sep:
        raise ParameterDomainError(f"family spec {spec!r} is missing ':params'")
    try:
        return name, tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ParameterDomainError(f"non-integer parameter in family spec {spec!r}") from None


def parse_family_spec(spec: str) -> Graph:
    """Build the graph a "name:params" spec names."""
    name, params = split_family_spec(spec)
    return build_family(name, *params)


# ---------------------------------------------------------------------------
# Graph operations
# ---------------------------------------------------------------------------

def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g together with h, h's vertices shifted up by g.n."""
    closed = list(g.closed) + [mask << g.n for mask in h.closed]
    return Graph(g.n + h.n, closed)


def join(g: Graph, h: Graph) -> Graph:
    """All of g and h plus every edge between the two sides."""
    n = g.n + h.n
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    closed = [mask | h_mask for mask in g.closed]
    closed += [(mask << g.n) | g_mask for mask in h.closed]
    return Graph(n, closed)


def has_duplicate_closed_neighborhoods(g: Graph) -> bool:
    """True iff two distinct vertices have identical closed neighborhoods."""
    return len(set(g.closed)) < g.n


# ---------------------------------------------------------------------------
# graph6 codec (format of the nauty tool suite). Short form covers
# n <= 62; the 4- and 8-byte headers cover n up to 2^36 - 1. sparse6 and
# digraph6 records are recognized and rejected so a wrong corpus file
# fails loudly.
# ---------------------------------------------------------------------------

_G6_MAX_N = (1 << 36) - 1
_G6_HEADER = b">>graph6<<"
# Each graph6 data byte, less 63, as its six bits, high bit first.
_G6_SIX_BITS = tuple(format(x, "06b") for x in range(64))


def parse_graph6(record: bytes | str) -> Graph:
    """Decode one graph6 record into a Graph."""
    data = record.encode("ascii") if isinstance(record, str) else record
    data = data.rstrip(b"\r\n")
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6ParseError("empty record", 0)
    if data[0:1] in (b":", b";"):
        raise Graph6FormatError("sparse6 records are not supported")
    if data[0:1] == b"&":
        raise Graph6FormatError("digraph6 records are not supported")

    n, pos = _decode_order(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated bit vector: need {nbytes} bytes for n={n}", len(data)
        )
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after bit vector", pos + nbytes)

    groups = []
    for i in range(pos, pos + nbytes):
        if not 63 <= data[i] <= 126:
            raise Graph6ParseError(f"byte {data[i]} outside graph6 range", i)
        groups.append(_G6_SIX_BITS[data[i] - 63])
    # Upper-triangle bits, column by column: (0,1), (0,2), (1,2), (0,3), ...
    flags = "".join(groups)
    if "1" in flags[nbits:]:
        raise Graph6ParseError("nonzero padding bit", pos + nbytes - 1)

    closed = [1 << v for v in range(n)]
    k = 0
    for v in range(1, n):
        for u in range(v):
            if flags[k] == "1":
                closed[u] |= 1 << v
                closed[v] |= 1 << u
            k += 1
    return Graph(n, closed)


def _decode_order(data: bytes) -> tuple[int, int]:
    b0 = data[0]
    if b0 != 126:
        if not 63 <= b0 <= 125:
            raise Graph6ParseError(f"invalid order byte {b0}", 0)
        return b0 - 63, 1
    if len(data) >= 2 and data[1] == 126:
        return _decode_bigendian(data, 2, 6), 8
    return _decode_bigendian(data, 1, 3), 4


def _decode_bigendian(data: bytes, start: int, count: int) -> int:
    if len(data) < start + count:
        raise Graph6ParseError("truncated order field", len(data))
    n = 0
    for i in range(start, start + count):
        if not 63 <= data[i] <= 126:
            raise Graph6ParseError(f"invalid order byte {data[i]}", i)
        n = (n << 6) | (data[i] - 63)
    return n


def encode_graph6(g: Graph) -> bytes:
    """Encode a Graph as one graph6 record (no header, no newline)."""
    n = g.n
    if n > _G6_MAX_N:
        raise Graph6RangeError(f"graph6 supports n <= {_G6_MAX_N}, got {n}")
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126]) + _encode_bigendian(n, 3)
    else:
        head = bytes([126, 126]) + _encode_bigendian(n, 6)

    bits = bytearray()
    group = 0
    filled = 0
    for v in range(1, n):
        col = g.closed[v]
        for u in range(v):
            group = (group << 1) | ((col >> u) & 1)
            filled += 1
            if filled == 6:
                bits.append(group + 63)
                group = 0
                filled = 0
    if filled:
        bits.append((group << (6 - filled)) + 63)
    return head + bytes(bits)


def _encode_bigendian(n: int, count: int) -> bytes:
    out = bytearray()
    for shift in range(6 * (count - 1), -1, -6):
        out.append(((n >> shift) & 0x3F) + 63)
    return bytes(out)


def iter_graph6_records(lines: Iterable[bytes | str]) -> Iterator[bytes]:
    """Yield raw graph6 records from file lines.

    Blank lines and a leading ">>graph6<<" header line are skipped;
    everything else is passed through stripped of the line terminator.
    """
    for line in lines:
        raw = line.encode("ascii") if isinstance(line, str) else line
        raw = raw.rstrip(b"\r\n")
        if not raw:
            continue
        if raw.startswith(_G6_HEADER):
            raw = raw[len(_G6_HEADER):]
            if not raw:
                continue
        yield raw
