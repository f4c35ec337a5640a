import random

import networkx as nx
import pytest

from dompoly.errors import Graph6FormatError, Graph6ParseError, Graph6RangeError
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
