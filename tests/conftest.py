import os
import random

import pytest


@pytest.fixture(scope="session")
def seed() -> int:
    return int(os.environ.get("CUBARTIN_SEED", "0"))


@pytest.fixture()
def rng(seed) -> random.Random:
    return random.Random(seed)


def link_graph(link):
    """The 1-skeleton of a vertex link as a networkx graph, for isomorphism checks."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(link.link_vertices)
    g.add_edges_from(tuple(pair) for _, pair in link.link_edges if len(pair) == 2)
    return g
