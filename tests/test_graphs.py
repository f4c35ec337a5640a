import random
import re

import pytest

from dompoly.errors import ParameterDomainError
from dompoly.graphs import (
    Graph,
    build_family,
    complete,
    complete_cycle_join,
    cycle,
    disjoint_union,
    join,
    path,
    wheel,
)


def assert_invariants(g: Graph):
    """Closure and symmetry must hold for every constructed graph."""
    for v in range(g.n):
        assert g.closed[v] >> v & 1
        for u in range(g.n):
            assert g.closed[v] >> u & 1 == g.closed[u] >> v & 1


ALL_FAMILIES = (
    [cycle(n) for n in range(1, 11)]
    + [path(n) for n in range(1, 11)]
    + [complete(n) for n in range(1, 11)]
    + [wheel(n) for n in range(4, 11)]
    + [complete_cycle_join(m, n) for m in (1, 2, 3) for n in (1, 3, 5)]
)


@pytest.mark.parametrize("g", ALL_FAMILIES, ids=lambda g: f"n{g.n}e{len(g.edges())}")
def test_family_invariants(g):
    assert_invariants(g)


def test_cycle_small_conventions():
    c3 = cycle(3)
    assert c3.closed == (0b111,) * 3
    c1 = cycle(1)
    assert c1.n == 1 and c1.closed == (0b1,)
    assert cycle(2) == complete(2)


def test_wheel_and_joins():
    assert wheel(4) == complete(4)
    assert join(complete(1), cycle(4)) == wheel(5)
    assert join(complete(1), complete(1)) == complete(2)
    assert join(complete(2), complete(2)) == complete(4)
    assert complete_cycle_join(1, 3) == wheel(4)


def test_join_covers_opposite_side():
    g, h = cycle(5), path(3)
    j = join(g, h)
    h_mask = ((1 << 3) - 1) << 5
    g_mask = (1 << 5) - 1
    for v in range(5):
        assert j.closed[v] & h_mask == h_mask
    for v in range(5, 8):
        assert j.closed[v] & g_mask == g_mask


def test_disjoint_union():
    u = disjoint_union(cycle(3), cycle(3))
    assert u.n == 6
    assert len(u.component_masks()) == 2
    two = disjoint_union(complete(1), complete(1))
    assert two.n == 2 and two.edges() == []
    mixed = disjoint_union(cycle(4), path(3))
    assert len(mixed.component_masks()) == (
        len(cycle(4).component_masks()) + len(path(3).component_masks())
    )
    assert_invariants(u)


def test_parameter_domain_errors():
    with pytest.raises(ParameterDomainError):
        wheel(3)
    with pytest.raises(ParameterDomainError):
        cycle(0)
    with pytest.raises(ParameterDomainError):
        complete_cycle_join(0, 5)
    with pytest.raises(ParameterDomainError):
        build_family("moebius", 5)
    with pytest.raises(ParameterDomainError):
        build_family("cycle", 3, 4)


def test_graph_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b11, 0b10))  # 0 adjacent to 1 but not vice versa
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b01))  # closure bit of vertex 1 missing
    with pytest.raises(ValueError):
        Graph(1, (0b11,))  # mask outside vertex range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def _random_edge_lists(seed, count):
    """(n, edges) pairs with edges in either orientation, some repeated."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 12)
        p = rng.random()
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield n, edges + rng.sample(edges, len(edges) // 3)


def test_from_edges_and_disjoint_union_pass_the_constructor_checks():
    """Both build through `Graph._valid`; every result must equal the same
    masks built through `Graph(n, closed)`, which runs the checks."""
    graphs = []
    for n, edges in _random_edge_lists(2025, 300):
        g = Graph.from_edges(n, edges)
        assert g == Graph(n, g.closed) and type(g.closed) is tuple
        assert set(g.edges()) == {(min(e), max(e)) for e in edges}
        graphs.append(g)
    for g, h in zip(graphs, graphs[1:]):
        u = disjoint_union(g, h)
        assert u == Graph(g.n + h.n, u.closed) and type(u.closed) is tuple
        assert u.edges() == g.edges() + [(a + g.n, b + g.n) for a, b in h.edges()]


@pytest.mark.parametrize("n, edges, message", (
    (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
    (0, [(0, 0)], "self-loop at vertex 0"),
    (2, [(0, 5)], "edge (0,5) out of range for order 2"),
    (3, [(-1, 2)], "edge (-1,2) out of range for order 3"),
    (-1, [(0, 1)], "edge (0,1) out of range for order -1"),
    (-1, [], "vertex count must be nonnegative"),
))
def test_from_edges_refusals(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph.from_edges(n, edges)


def test_graph_is_immutable_and_hashable():
    g = cycle(4)
    with pytest.raises(AttributeError):
        g.n = 7
    assert len({cycle(4), cycle(4), cycle(5)}) == 2


def test_null_graph():
    g = Graph(0, ())
    assert g.n == 0
    assert g.edges() == []
    assert g.component_masks() == []


def test_induced_subgraph():
    g = disjoint_union(cycle(3), cycle(4))
    comps = g.component_masks()
    assert sorted(g.induced_subgraph(m).n for m in comps) == [3, 4]
    assert g.induced_subgraph(comps[0]) == cycle(3)
