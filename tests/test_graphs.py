import subprocess
import sys

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from cubartin import graphs


@st.composite
def node_pair_graphs(draw, max_nodes=9):
    """Nodes in a shuffled order, pairs with loops, repeats and both
    orientations, and a few endpoints that are not listed as nodes."""
    n = draw(st.integers(0, max_nodes))
    nodes = draw(st.permutations(range(n)))
    ends = st.integers(0, n + 2)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * max_nodes))
    return list(nodes), pairs


def nx_cliques(nodes, pairs):
    """networkx's cliques in its order, from three nodes up."""
    return [c for c in nx.enumerate_all_cliques(nx_graph(nodes, pairs)) if len(c) >= 3]


def nx_graph(nodes, pairs):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    return g


@settings(max_examples=300, deadline=None)
@given(node_pair_graphs())
def test_components_match_networkx_in_order(graph):
    nodes, pairs = graph
    assert graphs.components(nodes, pairs) == list(nx.connected_components(nx_graph(nodes, pairs)))


@settings(max_examples=300, deadline=None)
@given(node_pair_graphs(), st.data())
def test_bfs_matches_networkx(graph, data):
    nodes, pairs = graph
    g = nx_graph(nodes, pairs)
    adj = graphs.adjacency(nodes, pairs)
    assert list(adj) == list(g)
    if not adj:
        return
    source = data.draw(st.sampled_from(list(adj)))
    dist, tree = graphs.bfs(adj, source)
    assert dist == nx.single_source_shortest_path_length(g, source)
    assert set(tree) == set(nx.bfs_tree(g, source).edges())


@settings(max_examples=300, deadline=None)
@given(node_pair_graphs())
def test_cliques_match_networkx_in_order(graph):
    nodes, pairs = graph
    got = list(graphs.cliques(nodes, pairs))
    assert got == nx_cliques(nodes, pairs)


def test_cliques_of_a_dense_graph_in_order():
    nodes = [5, 3, 0, 4, 1, 2]
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (1, 4)]
    got = list(graphs.cliques(nodes, pairs))
    assert got == nx_cliques(nodes, pairs)
    assert len(got) == 2**6 - 1 - 2**4 - 6 - 14


def test_cli_import_loads_no_networkx():
    # nor fractions, which would pull in decimal and numbers
    probe = (
        "import sys, cubartin.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'fractions')))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
