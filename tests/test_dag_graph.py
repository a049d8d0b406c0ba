"""``DagGraph`` against networkx, the oracle of every walk it hand-writes.

Random graphs mix node names whose ``str`` forms collide (``1`` and
``"1"``) and repeat edges, which networkx stores once.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import DagGraph, WorkflowDAG, canonical_node_key

NAMES = [0, 1, 2, 10, "1", "2", "10", "t2", "t10", "a", "b", ("t", 1)]


@st.composite
def graphs(draw, *, acyclic: bool = True, max_nodes: int = 7):
    """``(nodes, edges)``: an edge list with repeats, in drawn order.

    Acyclic graphs only draw edges forward in a shuffled rank, so the
    rank differs from the insertion order the walks tie-break on.
    """
    nodes = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=max_nodes, unique=True)
    )
    rank = draw(st.permutations(nodes))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = [
        (u, v)
        for u, v in draw(st.lists(pairs, max_size=3 * len(nodes)))
        if u != v and (not acyclic or rank.index(u) < rank.index(v))
    ]
    if edges and draw(st.booleans()):
        edges.append(edges[0])  # a repeated edge counts once
    return nodes, edges


def oracle(nodes, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_structure_matches_networkx(case):
    graph, nxg = DagGraph(*case), oracle(*case)
    assert list(graph) == list(nxg)
    assert list(graph.edges) == list(nxg.edges)
    for v in nxg:
        i = graph.number[v]
        assert graph.nodes[i] == v
        assert list(graph.predecessors(v)) == list(nxg.predecessors(v))
        assert list(graph.successors(v)) == list(nxg.successors(v))
        assert graph.preds[i] == {graph.number[u] for u in nxg.predecessors(v)}
        assert graph.succs[i] == {graph.number[w] for w in nxg.successors(v)}
        assert graph.in_degree(v) == nxg.in_degree(v)
        assert graph.out_degree(v) == nxg.out_degree(v)
    for u in nxg:
        for v in nxg:
            assert graph.has_edge(u, v) == nxg.has_edge(u, v)


@given(graphs(), st.lists(st.integers(0, 2), min_size=len(NAMES), max_size=len(NAMES)))
@settings(max_examples=200, deadline=None)
def test_sorts_match_networkx(case, ranks):
    graph, nxg = DagGraph(*case), oracle(*case)
    assert graph.topological_sort() == list(nx.topological_sort(nxg))
    assert graph.canonical_sort() == list(
        nx.lexicographical_topological_sort(nxg, key=canonical_node_key)
    )

    def priority(v):  # few distinct values, so the canonical key breaks ties
        return ranks[NAMES.index(v)]

    assert graph.canonical_sort(priority) == list(
        nx.lexicographical_topological_sort(
            nxg, key=lambda v: (priority(v), canonical_node_key(v))
        )
    )


@given(graphs(max_nodes=6))
@settings(max_examples=150, deadline=None)
def test_all_topological_sorts_match_networkx(case):
    graph, nxg = DagGraph(*case), oracle(*case)
    assert list(graph.all_topological_sorts()) == list(nx.all_topological_sorts(nxg))


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_is_chain_matches_networkx(case):
    nodes, edges = case
    nxg = oracle(nodes, edges)
    want = (
        nx.is_weakly_connected(nxg)
        and all(nxg.in_degree(v) <= 1 and nxg.out_degree(v) <= 1 for v in nxg)
        and nxg.number_of_edges() == len(nodes) - 1
    )
    assert WorkflowDAG(dict.fromkeys(nodes, 1.0), edges).is_chain() == want


@given(graphs(acyclic=False))
@settings(max_examples=200, deadline=None)
def test_find_cycle_reports_a_cycle(case):
    graph, nxg = DagGraph(*case), oracle(*case)
    cycle = graph.find_cycle()
    assert (cycle == []) == nx.is_directed_acyclic_graph(nxg)
    if cycle:
        assert all(nxg.has_edge(u, v) for u, v in cycle)
        heads = [u for u, _ in cycle]
        assert heads == [v for _, v in cycle[-1:] + cycle[:-1]]  # closed walk
        assert len(set(heads)) == len(heads)  # a simple cycle


def test_deep_chain_enumerates_without_recursion():
    nodes = list(range(3000))
    graph = DagGraph(nodes, zip(nodes, nodes[1:]))
    assert list(graph.all_topological_sorts()) == [nodes]
