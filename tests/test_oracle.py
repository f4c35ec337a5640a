import os
import random
import subprocess
import sys
from functools import cache
from math import comb
from pathlib import Path

import pytest

from dompoly import oracle
from dompoly.errors import SizeGuardError
from dompoly.graphs import Graph, complete, cycle, disjoint_union, encode_graph6, parse_graph6, path, wheel
from dompoly.oracle import domination_number, domination_polynomial, domination_profile
from dompoly.polynomials import IntPolynomial

from conftest import load_corpus


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


def _reference_profile(g):
    """The literal definition: OR the closed neighborhoods of each of the
    2^n subsets and count, by size, the subsets that reach every vertex."""
    full = (1 << g.n) - 1
    counts = [0] * (g.n + 1)
    for mask in range(1, 1 << g.n):
        cover = 0
        for v in range(g.n):
            if mask >> v & 1:
                cover |= g.closed[v]
        if cover == full:
            counts[mask.bit_count()] += 1
    return tuple(counts[1:])


def _lowest_nonzero(counts):
    return next((k for k, c in enumerate(counts, start=1) if c), None)


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_profile_matches_the_reference_on_the_corpus(order):
    for record in load_corpus(order):
        g = parse_graph6(record)
        reference = _reference_profile(g)
        assert domination_profile(g) == reference, record
        assert domination_number(g) == _lowest_nonzero(reference), record


@pytest.mark.parametrize("density", [0, 0.1, 0.3, 0.5, 1])
def test_profile_matches_the_reference_on_random_graphs(density):
    rng = random.Random(f"oracle-{density}")
    mixed = 0  # graphs with both an edge and an isolated vertex
    for n in range(15):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph.from_edges(n, edges)
        mixed += bool(edges) and any(c == 1 << v for v, c in enumerate(g.closed))
        reference = _reference_profile(g)
        assert domination_profile(g) == reference, (n, edges)
        assert domination_number(g) == _lowest_nonzero(reference), (n, edges)
    assert density in (0, 1) or mixed


def test_profile_matches_the_reference_when_half_covers_are_distinct():
    # Edgeless: every subset of a half has its own cover. A perfect
    # matching across the halves also keeps every pair of half-covers
    # in the sum, the most it can hold.
    for g in (Graph.from_edges(16, []), Graph.from_edges(16, [(v, v + 8) for v in range(8)])):
        assert domination_profile(g) == _reference_profile(g)


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


@pytest.mark.parametrize("n", [oracle.TRUTH_TABLE_MAX_ORDER, oracle.TRUTH_TABLE_MAX_ORDER + 1])
def test_both_routes_match_the_reference_at_the_cutoff(n):
    for g in (cycle(n), wheel(n), complete(n), Graph.from_edges(n, []), _matching_across_halves(n)):
        reference = _reference_profile(g)
        assert oracle._truth_table_profile(g.closed) == reference, g
        assert oracle._pair_sum_profile(g.closed) == reference, g
        assert domination_profile(g) == reference, g


def test_the_order_alone_picks_the_route(monkeypatch):
    taken = []
    for name in ("_truth_table_profile", "_pair_sum_profile"):
        route = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda closed, name=name, route=route: taken.append(name) or route(closed))
    cutoff = oracle.TRUTH_TABLE_MAX_ORDER
    for n in range(cutoff + 3):
        domination_profile(Graph.from_edges(n, []))
    assert taken == ["_truth_table_profile"] * (cutoff + 1) + ["_pair_sum_profile"] * 2


_TABLES_BUILT = """
from dompoly import oracle
from dompoly.graphs import cycle
built = oracle._truth_tables.cache_info().currsize
print(built)
for n in (5, 5, 11):
    oracle.domination_profile(cycle(n))
    print(oracle._truth_tables.cache_info().currsize - built)
"""


def test_truth_tables_are_built_once_per_order_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _TABLES_BUILT], env=env,
                           capture_output=True, text=True, check=True)
    # None at import; order 5's once; none for the pair sum's order 11.
    assert child.stdout.split() == ["0", "1", "1", "1"]


@pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
def test_graph6_profile_matches_the_parsed_walk_on_the_corpus(order):
    for record in load_corpus(order):
        assert oracle.graph6_profile(record, 9) == domination_profile(parse_graph6(record)), record


def test_graph6_profile_matches_the_parsed_walk_on_random_graphs():
    rng = random.Random(22)
    for n in range(oracle.TRUTH_TABLE_MAX_ORDER + 1):
        for density in (0, 0.1, 0.3, 0.5, 0.7, 1):
            for _ in range(5):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
                record = encode_graph6(Graph.from_edges(n, edges))
                assert oracle.graph6_profile(record, n) == domination_profile(parse_graph6(record)), record


def test_graph6_tables_serve_only_orders_up_to_the_cutoff_and_the_guard(monkeypatch):
    tables = cache(oracle._graph6_table.__wrapped__)
    monkeypatch.setattr(oracle, "_graph6_table", tables)
    cutoff = oracle.TRUTH_TABLE_MAX_ORDER
    for n, guard in ((cutoff + 1, 40), (40, 40), (61, 62), (62, 62), (9, 8), (4, 3)):
        assert oracle.graph6_profile(encode_graph6(cycle(n)), guard) is None, n
    assert tables.cache_info().misses == 0
    assert oracle.graph6_profile(encode_graph6(cycle(4)), 4) == (0, 6, 4, 1)
    assert tables.cache_info().misses == 1


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
