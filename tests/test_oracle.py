import os
import random
import subprocess
import sys
from functools import cache, reduce
from itertools import islice
from math import comb
from operator import mul
from pathlib import Path

import pytest

from dompoly import oracle
from dompoly.errors import Graph6ParseError, SizeGuardError
from dompoly.graphs import Graph, _g6_layout, complete, cycle, disjoint_union, encode_graph6, join, parse_graph6, path, wheel
from dompoly.oracle import domination_number, domination_polynomial, domination_profile
from dompoly.polynomials import IntPolynomial

from conftest import load_corpus
import reference


def test_profile_examples():
    assert domination_profile(cycle(3)) == (3, 3, 1)
    assert domination_profile(complete(2)) == (2, 1)
    assert domination_profile(cycle(4)) == (0, 6, 4, 1)
    assert domination_profile(cycle(5)) == (0, 5, 10, 5, 1)
    assert domination_profile(cycle(6)) == (0, 3, 14, 15, 6, 1)


def test_polynomial_examples():
    assert domination_polynomial(complete(1)) == IntPolynomial((0, 1))
    assert domination_polynomial(disjoint_union(cycle(3), cycle(3))) == IntPolynomial(
        (0, 0, 9, 18, 15, 6, 1)
    )
    # W_4 = K_4: every nonempty subset dominates
    assert domination_polynomial(wheel(4)) == IntPolynomial((0, 4, 6, 4, 1))
    assert domination_polynomial(disjoint_union(cycle(4), cycle(3))) == IntPolynomial(
        (0, 0, 0, 18, 30, 21, 7, 1)
    )


def test_null_graph_conventions():
    null = Graph(0, ())
    assert domination_profile(null) == ()
    assert domination_polynomial(null) == IntPolynomial.one()
    assert domination_number(null) is None


def test_domination_number():
    assert domination_number(cycle(7)) == 3
    assert domination_number(complete(5)) == 1
    assert domination_number(disjoint_union(cycle(3), cycle(3))) == 2
    for n in range(1, 13):
        assert domination_number(cycle(n)) == (n + 2) // 3
    assert domination_number(cycle(30), guard=30) == 10


def _random_graph(rng, max_n=9):
    n = rng.randint(1, max_n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    return Graph.from_edges(n, edges)


def test_profile_invariants_on_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        g = _random_graph(rng)
        counts = domination_profile(g)
        assert counts[-1] == 1
        for i in range(g.n - 1):
            if counts[i] > 0:
                assert counts[i + 1] > 0
        for i, c in enumerate(counts, start=1):
            assert 0 <= c <= comb(g.n, i)


def test_union_product_law_random_pairs():
    rng = random.Random(5)
    for _ in range(25):
        g, h = _random_graph(rng, 6), _random_graph(rng, 6)
        assert domination_polynomial(disjoint_union(g, h)) == (
            domination_polynomial(g) * domination_polynomial(h)
        )


def test_relabeling_preserves_profile():
    # same structure, scrambled labels
    perm = [3, 0, 5, 1, 4, 2]
    scrambled = Graph.from_edges(
        6, [(perm[u], perm[v]) for u, v in cycle(6).edges()]
    )
    assert domination_profile(scrambled) == domination_profile(cycle(6))


def test_size_guard():
    g = cycle(6)
    with pytest.raises(SizeGuardError, match="guard"):
        domination_profile(g, guard=5)
    with pytest.raises(SizeGuardError, match="--guard-override"):
        domination_polynomial(g, guard=5)
    with pytest.raises(SizeGuardError):
        domination_number(g, guard=5)
    assert domination_profile(g, guard=6) == (0, 3, 14, 15, 6, 1)
    # Above MAX_ORDER a walk is refused whatever the guard.
    assert oracle.MAX_ORDER == 40
    oracle._check_guard(40, 40)
    for n, guard in ((41, 41), (60, 100)):
        with pytest.raises(SizeGuardError, match=f"order {n} exceeds 40"):
            oracle._check_guard(n, guard)


def test_each_walk_checks_the_guard_once(monkeypatch):
    checked = []
    check = oracle._check_guard
    monkeypatch.setattr(oracle, "_check_guard", lambda n, guard: checked.append(n) or check(n, guard))
    for walk in (domination_profile, domination_polynomial, domination_number):
        walk(cycle(5))
        assert checked == [5], walk.__name__
        checked.clear()
    assert domination_polynomial(Graph(0, ())) == IntPolynomial.one()
    assert checked == [0]


def _lowest_nonzero(counts):
    return next((k for k, c in enumerate(counts, start=1) if c), None)


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_profile_matches_the_reference_on_the_corpus(order):
    for record in load_corpus(order):
        g = parse_graph6(record)
        expected = reference.domination_profile(g.closed)
        assert domination_profile(g) == expected, record
        assert domination_number(g) == _lowest_nonzero(expected), record


@pytest.mark.parametrize("density", [0, 0.1, 0.3, 0.5, 1])
def test_profile_matches_the_reference_on_random_graphs(density):
    rng = random.Random(f"oracle-{density}")
    mixed = 0  # graphs with both an edge and an isolated vertex
    for n in range(15):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph.from_edges(n, edges)
        mixed += bool(edges) and any(c == 1 << v for v, c in enumerate(g.closed))
        expected = reference.domination_profile(g.closed)
        assert domination_profile(g) == expected, (n, edges)
        assert domination_number(g) == _lowest_nonzero(expected), (n, edges)
    assert density in (0, 1) or mixed


def test_profile_matches_the_reference_when_half_covers_are_distinct():
    # Edgeless: every subset of a half has its own cover. A perfect
    # matching across the halves also keeps every pair of half-covers
    # in the sum, the most it can hold.
    for g in (Graph.from_edges(16, []), Graph.from_edges(16, [(v, v + 8) for v in range(8)])):
        assert domination_profile(g) == reference.domination_profile(g.closed)


def test_profile_of_the_largest_complete_graph():
    # Every nonempty subset of K_40 dominates, so its coefficients are the
    # largest any order up to MAX_ORDER can hold.
    assert domination_profile(complete(40), guard=40) == tuple(comb(40, k) for k in range(1, 41))


def test_path_profile():
    assert domination_profile(path(6)) == (0, 1, 10, 13, 6, 1)


def test_routes_agree_on_the_order_8_corpus():
    # The literal reference is too slow at order 8, so the pair sum stands
    # in for it: the two routes share no code.
    records = load_corpus(8)
    assert len(records) == 12346
    assert 8 <= oracle.TRUTH_TABLE_MAX_ORDER
    for record in records:
        g = parse_graph6(record)
        table = oracle._truth_table_profile(g.closed)
        assert table == oracle._pair_sum_profile(g.closed), record
        assert domination_profile(g) == table, record


def _matching_across_halves(n):
    # Perfect at even n; the pair sum keeps every pair of half-covers.
    h = (n + 1) // 2
    return Graph.from_edges(n, [(v, v + h) for v in range(n - h)])


def _hub_and_matching(n):
    # Gamma 1, but the matching keeps its half-covers distinct, so the pair
    # sum still keeps about every pair of them.
    return join(complete(1), _matching_across_halves(n - 1))


_FAMILIES = {
    "cycle": cycle,
    "wheel": wheel,
    "complete": complete,
    "edgeless": lambda n: Graph.from_edges(n, []),
    "matching": _matching_across_halves,
    "hub": _hub_and_matching,
}


def _closed_form(family, n):
    """D(G, x) of `_FAMILIES[family](n)`, from no subset walk: C_n by the
    reference recurrence, W_n = x(1+x)^(n-1) + D(C_(n-1)) (a set holding
    the hub dominates, one without it must dominate the rim), K_n by
    (1+x)^n - 1, a matching of k edges and i isolated vertices by
    (x^2+2x)^k x^i, and the hub the same way as the wheel's."""
    x, one_plus_x = IntPolynomial((0, 1)), IntPolynomial((1, 1))

    def power(p, k):
        return reduce(mul, [p] * k, IntPolynomial.one())

    def cycle_poly(m):
        return IntPolynomial(next(islice(reference.cycle_coefficients(), m - 1, None)))

    def matching(m):
        return power(IntPolynomial((0, 2, 1)), m // 2) * power(x, m % 2)

    return {
        "cycle": lambda: cycle_poly(n),
        "wheel": lambda: x * power(one_plus_x, n - 1) + cycle_poly(n - 1),
        "complete": lambda: power(one_plus_x, n) + IntPolynomial((-1,)),
        "edgeless": lambda: power(x, n),
        "matching": lambda: matching(n),
        "hub": lambda: x * power(one_plus_x, n - 1) + matching(n - 1),
    }[family]()


def _profile(p):
    return tuple(p)[1:]


def test_the_closed_forms_are_the_definition():
    for n in range(4, 12):
        for family, build in _FAMILIES.items():
            assert _profile(_closed_form(family, n)) == reference.domination_profile(build(n).closed), (family, n)


@pytest.mark.parametrize("n", [oracle.TRUTH_TABLE_MAX_ORDER, oracle.TRUTH_TABLE_MAX_ORDER + 1,
                               oracle.SPLIT_MAX_ORDER, oracle.SPLIT_MAX_ORDER + 1])
def test_both_routes_match_the_reference_at_the_cutoff(n):
    # The routes that meet at a cutoff, each on both sides of it (the split
    # runs at any order from 10, its low side). Above SPLIT_MAX_ORDER the
    # pair sum is what `domination_profile` runs, so it is not run twice.
    routes = [oracle._split_profile]
    if n <= oracle.TRUTH_TABLE_MAX_ORDER + 1:
        routes.append(oracle._truth_table_profile)
    if n <= oracle.SPLIT_MAX_ORDER:
        routes.append(oracle._pair_sum_profile)
    for family, build in _FAMILIES.items():
        g = build(n)
        expected = _profile(_closed_form(family, n))
        for route in routes:
            assert route(g.closed) == expected, (route.__name__, family)
        assert domination_profile(g, guard=n) == expected, family


def test_split_matches_the_reference_on_random_graphs():
    rng = random.Random("split")
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1, 17):
        for density in (0.1, 0.3, 0.6):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            assert oracle._split_profile(g.closed) == reference.domination_profile(g.closed), (n, g.edges())


def test_split_matches_the_pair_sum_at_every_order():
    rng = random.Random("split-pair-sum")
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1, oracle.SPLIT_MAX_ORDER + 1):
        for density in (0.15, 0.4):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            assert oracle._split_profile(g.closed) == oracle._pair_sum_profile(g.closed), (n, g.edges())


@pytest.mark.parametrize("n", [11, 17, 24])
def test_split_matches_the_closed_forms_of_the_families(n):
    assert oracle.TRUTH_TABLE_MAX_ORDER < n <= oracle.SPLIT_MAX_ORDER
    for family, build in _FAMILIES.items():
        assert oracle._split_profile(build(n).closed) == _profile(_closed_form(family, n)), family


def test_the_order_alone_picks_the_route(monkeypatch):
    taken = []
    names = ("_truth_table_profile", "_split_profile", "_pair_sum_profile")
    for name in names:
        route = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda closed, name=name, route=route: taken.append(name) or route(closed))
    cutoff, split = oracle.TRUTH_TABLE_MAX_ORDER, oracle.SPLIT_MAX_ORDER
    for n in range(split + 3):
        domination_profile(Graph.from_edges(n, []), guard=split + 2)
    assert taken == [names[0]] * (cutoff + 1) + [names[1]] * (split - cutoff) + [names[2]] * 2


_TABLES_BUILT = """
from dompoly import oracle
from dompoly.graphs import cycle
built = oracle._truth_tables.cache_info().currsize
print(built)
for n in (5, 5, 11, 24):
    oracle.domination_profile(cycle(n))
    print(oracle._truth_tables.cache_info().currsize - built)
"""


def test_truth_tables_are_built_once_per_order_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _TABLES_BUILT], env=env,
                           capture_output=True, text=True, check=True)
    # None at import; order 5's once; the split's order-10 table at order
    # 11, and no other at 24.
    assert child.stdout.split() == ["0", "1", "1", "2", "2"]


def _walked_profiles(records):
    """`graph6_profiles`' buffer read back as one profile tuple per record:
    record r's counts are bytes r*n to r*n + n - 1."""
    n, profiles = records[0][0] - 63, oracle.graph6_profiles(records)
    assert len(profiles) == n * len(records)
    return [tuple(profiles[r * n:r * n + n]) for r in range(len(records))]


def _lane_profiles(records):
    """The bit lanes' profiles, LANES records at a time."""
    lanes = oracle.LANES
    return [p for i in range(0, len(records), lanes) for p in _walked_profiles(records[i:i + lanes])]


@pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
def test_graph6_profile_matches_the_parsed_walk_on_the_corpus(order):
    records = load_corpus(order)
    assert _lane_profiles(records) == [domination_profile(parse_graph6(r)) for r in records]


def test_graph6_profile_matches_the_parsed_walk_on_random_graphs():
    rng = random.Random(22)
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1):
        records = [
            encode_graph6(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                               if rng.random() < density]))
            for density in (0, 0.1, 0.3, 0.5, 0.7, 1) for _ in range(5)
        ]
        assert bytes([63 + n]) in oracle.graph6_lane_lengths(n)
        assert _lane_profiles(records) == [domination_profile(parse_graph6(r)) for r in records], n


@pytest.mark.parametrize("size", [1, 7, 8, 9, 8 * 5 - 1, 8 * 5 + 1, 8 * 16 - 1, 8 * 16, 8 * 16 + 1])
def test_bit_lanes_of_every_batch_size_match_the_parsed_walk(size):
    """Record t*w + j is bit t of byte j, w = ceil(size / 8): batches that
    leave the last bits of the last byte empty, or fill them, give every
    record its own profile at each order the lanes read."""
    rng = random.Random(size)
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1):
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        records = [
            encode_graph6(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                               if rng.random() < density]))
            for _ in range(size)
        ]
        assert _walked_profiles(records) == [domination_profile(parse_graph6(r)) for r in records], n


def test_graph6_tables_serve_only_orders_up_to_the_cutoff_and_the_guard(monkeypatch):
    layouts = cache(oracle._graph6_layout.__wrapped__)
    monkeypatch.setattr(oracle, "_graph6_layout", layouts)
    cutoff = oracle.TRUTH_TABLE_MAX_ORDER
    for n, guard in ((cutoff + 1, 40), (40, 40), (61, 62), (62, 62), (9, 8), (4, 3)):
        lengths = oracle.graph6_lane_lengths(guard)
        assert encode_graph6(cycle(n))[:1] not in lengths, n
        assert max(lengths) == bytes([63 + min(cutoff, guard)])
    assert layouts.cache_info().misses == 0
    record = encode_graph6(cycle(4))
    assert oracle.graph6_lane_lengths(4)[record[:1]] == len(record)
    assert _walked_profiles([record]) == [(0, 6, 4, 1)]
    assert layouts.cache_info().misses == 1


def test_byte_lanes_hold_every_count_up_to_the_cutoff():
    """Each count is unpacked into one byte, and d(G, k) <= C(n, k): below
    256 for every order the lanes read (C(10, 5) = 252), but not at 11
    (C(11, 5) = 462)."""
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1):
        assert max(comb(n, k) for k in range(n + 1)) < 256, n


def test_complete_10_fills_its_lane_without_a_carry():
    """K_10's d = 252 at k = 5 is the largest count a lane holds; beside
    the empty graph's lanes, a carry out of it would show in theirs."""
    k10, empty = encode_graph6(complete(10)), encode_graph6(Graph(10, [1 << v for v in range(10)]))
    full, alone = domination_profile(complete(10)), (0,) * 9 + (1,)
    profiles = _walked_profiles([k10, empty, k10, k10, empty])
    assert profiles == [full, alone, full, full, alone]
    assert full[4] == 252 == max(full)


def test_graph6_profiles_refuse_a_batch_of_two_orders_of_one_length():
    """Orders 0 and 1 share record length 1, and orders 2 and 3 length 2;
    read at the first record's order, the second would get a wrong profile."""
    assert domination_profile(parse_graph6(b"B_")) == (0, 2, 1)
    assert domination_profile(parse_graph6(b"@")) == (1,)
    assert oracle.graph6_profiles([b"A_", b"B_"]) is None
    assert oracle.graph6_profiles([b"?", b"@"]) is None
    assert _walked_profiles([b"B_", b"B_"]) == [(0, 2, 1)] * 2


def test_stated_graph6_layout_is_the_codec_bit_by_bit():
    """Each bit of each body byte, set alone in the edgeless record of each
    lane order: the codec decodes it to the one edge `_g6_layout` names
    there and encodes that graph back to the record, or refuses it as
    padding at the last byte. The bit lanes' layout puts each edge at the
    same position and allows exactly the bytes with no padding bit set."""
    for n in range(2, oracle.TRUTH_TABLE_MAX_ORDER + 1):
        length, edges = _g6_layout(n)
        named = {(i, b): (u, v) for u, v, i, b in edges}
        lane_length, allowed, lane_edges = oracle._graph6_layout(n)
        lanes = {(u, v): (i, bit) for i, bit, u, v in lane_edges}
        assert (lane_length, len(allowed), len(lanes)) == (length, length - 1, n * (n - 1) // 2)
        edgeless = bytes([63 + n]) + b"?" * (length - 1)
        for i in range(1, length):
            padding = 0
            for b in range(6):
                record = edgeless[:i] + bytes([63 + (1 << b)]) + edgeless[i + 1:]
                if (i, b) in named:
                    g = parse_graph6(record)
                    assert g.edges() == [named[i, b]] and encode_graph6(g) == record
                    position, bit = lanes[named[i, b]]
                    assert (position, bit[record[i]], bit[63]) == (i, 1, 0)
                else:
                    with pytest.raises(Graph6ParseError, match="nonzero padding bit") as refused:
                        parse_graph6(record)
                    assert refused.value.offset == i == length - 1
                    padding |= 1 << b
            assert allowed[i - 1] == bytes(c for c in range(63, 127) if not c - 63 & padding), (n, i)


@pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
def test_top_coefficients_count_the_sets_whose_complement_is_undominated(order):
    # V minus k vertices fails to dominate exactly when it misses some N[v]:
    # k = 1, an isolated vertex; k = 2, a vertex and its one neighbor (a K_2
    # component is that pair twice); k = 3 at minimum degree 2, N[v] of a
    # degree-2 vertex, counted once per distinct set.
    n = order
    exercised = [0, 0, 0]
    for record in load_corpus(order):
        g = parse_graph6(record)
        counts = domination_profile(g)
        degrees = [g.degree(v) for v in range(n)]
        assert counts[n - 2] == n - degrees.count(0), record
        exercised[0] += 1
        if min(degrees) < 1:
            continue
        k2 = sum(comp.bit_count() == 2 for comp in g.component_masks())
        assert counts[n - 3] == comb(n, 2) - degrees.count(1) + k2, record
        exercised[1] += 1
        if min(degrees) < 2:
            continue
        triples = {g.closed[v] for v in range(n) if degrees[v] == 2}
        assert counts[n - 4] == comb(n, 3) - len(triples), record
        exercised[2] += 1
    assert all(exercised), exercised
