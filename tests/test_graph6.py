import random
import re
from collections import Counter

import networkx as nx
import pytest

from dompoly.errors import Graph6FormatError, Graph6ParseError, Graph6RangeError, InputError
from dompoly.graphs import (
    Graph,
    complete,
    cycle,
    encode_graph6,
    iter_graph6_records,
    parse_graph6,
    path,
    wheel,
)
from dompoly.verify import classify_corpus

from conftest import load_corpus


def test_known_records():
    assert parse_graph6(b"@") == complete(1)
    assert parse_graph6(b"A_") == complete(2)
    assert parse_graph6(b"Bw") == complete(3)
    assert parse_graph6("Bw") == cycle(3)
    assert encode_graph6(complete(1)) == b"@"
    assert parse_graph6(b"?").n == 0


def test_parse_graph6_takes_bare_records():
    """Framing belongs to `iter_graph6_records`: a header or a line
    terminator left on a record is a parse error."""
    for record in (b">>graph6<<A_", b"A_\n"):
        with pytest.raises(Graph6ParseError):
            parse_graph6(record)


@pytest.mark.parametrize(
    "g",
    [cycle(n) for n in range(1, 11)]
    + [path(n) for n in range(1, 11)]
    + [complete(n) for n in range(1, 11)]
    + [wheel(n) for n in range(4, 11)],
    ids=lambda g: f"n{g.n}e{len(g.edges())}",
)
def test_roundtrip_builtin_families(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_roundtrip_against_networkx():
    """Cross-check the codec against an independent implementation."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 14)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        mine = encode_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine)
        assert set(back.edges()) == {tuple(sorted(e)) for e in g.edges()}


def test_long_form_orders():
    """Orders above 62 take graph6's long-form headers, which serve no 2^n
    walk: encoding refuses them, and so does parsing, at the first byte and
    for a whole corpus rather than as one record's parse error."""
    refusal = "graph6 orders above 62 are not supported"
    assert parse_graph6(encode_graph6(cycle(62))) == cycle(62)
    for n in (63, 64, 100):
        with pytest.raises(Graph6RangeError, match=refusal):
            encode_graph6(cycle(n))
        theirs = nx.to_graph6_bytes(nx.cycle_graph(n), header=False).strip()
        assert theirs[0] == 126
        with pytest.raises(Graph6RangeError, match=refusal):
            parse_graph6(theirs)
        with pytest.raises(Graph6RangeError, match=refusal):
            classify_corpus([b"A_", theirs])
    with pytest.raises(Graph6RangeError, match=refusal):
        parse_graph6(b"~~" + b"?" * 6)


def test_rejects_other_formats():
    with pytest.raises(Graph6FormatError):
        parse_graph6(b":Fa@x^")
    with pytest.raises(Graph6FormatError):
        parse_graph6(b"&B|o")


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"")
    assert exc.value.offset == 0
    # C_5 needs two bit-vector bytes after the order byte
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"Dh")
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"A_X")  # trailing junk
    assert exc.value.offset == 2
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(b"B" + bytes([30]))  # byte below the graph6 range
    assert exc.value.offset == 1
    for record, offset in ((b"B" + bytes([127]), 1), (b"D?" + bytes([127]), 2)):  # above it
        with pytest.raises(Graph6ParseError, match="^byte 127 outside graph6 range") as exc:
            parse_graph6(record)
        assert exc.value.offset == offset
    for record, offset in (("Bé", 1), ("\u00e9", 0), ("D?\u2603", 2)):  # str, not ASCII
        with pytest.raises(Graph6ParseError, match="^non-ASCII character") as exc:
            parse_graph6(record)
        assert exc.value.offset == offset


@pytest.mark.parametrize("record, offset, cleared", [
    (b"A@", 1, b"A?"),  # n = 2: one edge bit, then five padding bits
    (b"Dh@", 2, b"Dh?"),  # n = 5: ten edge bits, the lower of two padding bits set
    (b"DhA", 2, b"Dh?"),  # the higher one
])
def test_nonzero_padding_bit(record, offset, cleared):
    with pytest.raises(Graph6ParseError, match="^nonzero padding bit") as exc:
        parse_graph6(record)
    assert exc.value.offset == offset
    assert encode_graph6(parse_graph6(cleared)) == cleared


def test_roundtrip_over_corpora():
    """Every committed corpus record re-encodes to the same bytes."""
    for n in (4, 5, 6, 7, 8):
        for rec in load_corpus(n):
            g = parse_graph6(rec)
            assert g.n == n
            assert encode_graph6(g) == rec


def test_iter_graph6_records():
    lines = [b">>graph6<<", b"@", b"", b"A_", b"Bw\n"]
    records = list(iter_graph6_records(lines))
    assert records == [b"@", b"A_", b"Bw"]
    # header glued to the first record on one line
    assert list(iter_graph6_records([b">>graph6<<@"])) == [b"@"]


# ---------------------------------------------------------------------------
# The decoder against the same column loop built through the validating
# constructor
# ---------------------------------------------------------------------------

def _column_loop_parse_graph6(record):
    """The column-loop decoder followed by the validating `Graph` constructor,
    as `parse_graph6` built graphs before it skipped the re-check: the
    reference for its answers and errors."""
    data = record.encode("ascii") if isinstance(record, str) else record
    if not data:
        raise Graph6ParseError("empty record", 0)
    if data[0:1] in (b":", b";"):
        raise Graph6FormatError("sparse6 records are not supported")
    if data[0:1] == b"&":
        raise Graph6FormatError("digraph6 records are not supported")
    if data[0] == 126:
        raise Graph6RangeError("graph6 orders above 62 are not supported")
    if not 63 <= data[0] <= 125:
        raise Graph6ParseError(f"invalid order byte {data[0]}", 0)
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 < nbytes:
        raise Graph6ParseError(
            f"truncated bit vector: need {nbytes} bytes for n={n}", len(data)
        )
    if len(data) - 1 > nbytes:
        raise Graph6ParseError("trailing bytes after bit vector", 1 + nbytes)
    bits = 0
    for i in range(1, 1 + nbytes):
        if not 63 <= data[i] <= 126:
            raise Graph6ParseError(f"byte {data[i]} outside graph6 range", i)
        bits = bits << 6 | data[i] - 63
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bit", nbytes)
    closed = [1 << v for v in range(n)]
    shift = 6 * nbytes
    for v in range(1, n):
        shift -= v
        column = bits >> shift & ((1 << v) - 1)
        while column:
            low = column & -column
            u = v - low.bit_length()
            closed[u] |= 1 << v
            closed[v] |= 1 << u
            column ^= low
    return Graph(n, closed)


_OUT_OF_RANGE = bytes(range(63)) + bytes(range(127, 256))
_SIX_BITS = bytes((b & 63) + 63 for b in range(256))  # a random byte to a body byte


def _random_record(rng):
    """One graph6 record: valid, as bytes or str, or corrupted in one of six ways."""
    # Mostly small orders: the reference decoder's time grows as n^2.
    roll = rng.random()
    if roll < 0.88:
        n = rng.randrange(11)
    elif roll < 0.985:
        n = rng.randrange(11, 31)
    else:
        n = rng.randrange(31, 63)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    pad = 6 * nbytes - nbits
    rec = bytes([n + 63]) + rng.randbytes(nbytes).translate(_SIX_BITS)
    if nbytes:
        rec = rec[:-1] + bytes([(rec[-1] - 63 >> pad << pad) + 63])
    kind = rng.randrange(8)
    if kind == 1:  # truncated, down to the empty record
        rec = rec[:rng.randrange(len(rec))]
    elif kind == 2:  # trailing bytes
        rec += bytes(rng.randrange(63, 127) for _ in range(rng.randint(1, 3)))
    elif kind == 3:  # a byte outside 63..126 at any position
        i = rng.randrange(len(rec))
        rec = rec[:i] + bytes([rng.choice(_OUT_OF_RANGE)]) + rec[i + 1:]
    elif kind == 4 and pad:  # a nonzero padding bit
        rec = rec[:-1] + bytes([rec[-1] + rng.randrange(1, 1 << pad)])
    elif kind == 5:  # order bytes just outside and at the ends of the short form
        rec = bytes([rng.choice((62, 63, 125, 126, 127))]) + rec[1:]
    elif kind == 6:  # sparse6 and digraph6 prefixes, added or in the order byte's place
        rec = rng.choice((b":", b";", b"&")) + rec[rng.randrange(2):]
    elif kind == 7:  # a valid record as str
        rec = rec.decode("ascii")
    return rec


def _outcome(decode, record):
    try:
        return decode(record)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_decoder_matches_column_loop_reference():
    """200,000 seeded records, valid and corrupted: the same graph, or the
    same error class, message and offset, as the column-loop decoder."""
    rng = random.Random(20)
    seen = Counter()
    for _ in range(200_000):
        rec = _random_record(rng)
        want = _outcome(_column_loop_parse_graph6, rec)
        assert _outcome(parse_graph6, rec) == want, rec
        seen["graph" if isinstance(want, Graph) else re.sub(r"\b\d+\b", "#", want[1].partition(" (")[0])] += 1
    assert sorted(seen) == [
        "byte # outside graph6 range",
        "digraph6 records are not supported",
        "empty record",
        "graph",
        "graph6 orders above # are not supported",
        "invalid order byte #",
        "nonzero padding bit",
        "sparse6 records are not supported",
        "trailing bytes after bit vector",
        "truncated bit vector: need # bytes for n=#",
    ]
    assert min(seen.values()) > 1000


def test_parsed_corpora_pass_graph_validation():
    for n in (4, 5, 6, 7, 8):
        for rec in load_corpus(n):
            g = parse_graph6(rec)
            assert g == Graph(g.n, g.closed)

