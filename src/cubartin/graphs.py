"""The graph routines the package needs, on plain node/pair lists.

Nodes are any hashable values; a graph is given by its nodes and an iterable
of (u, v) pairs.  Every result follows the order of first appearance (nodes,
then pair endpoints), so outputs stay deterministic.
"""

from __future__ import annotations

from collections import deque


def components(nodes, pairs) -> list[set]:
    """Connected components by union-find, in order of their first node."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(parent.setdefault(u, u)), find(parent.setdefault(v, v))
        if ru != rv:
            parent[rv] = ru
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def adjacency(nodes, pairs) -> dict:
    """Simple-graph adjacency: neighbours in order of first insertion, with
    loops and repeated pairs dropped."""
    adj = {v: {} for v in nodes}
    for u, v in pairs:
        nu, nv = adj.setdefault(u, {}), adj.setdefault(v, {})
        if u != v:
            nu[v] = nv[u] = None
    return adj


def bfs(adj, source) -> tuple[dict, list]:
    """Distances from source and the (parent, child) edges of its BFS tree."""
    dist = {source: 0}
    tree = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                tree.append((u, v))
                queue.append(v)
    return dist, tree


def cliques(nodes, pairs):
    """Every clique of three or more nodes as a list in node order; cliques
    come by size, and those of one size in lexicographic node order."""
    adj = adjacency(nodes, pairs)
    order = list(adj)
    index = {v: i for i, v in enumerate(order)}
    # candidate sets are bitmasks over node indices, so extending a clique by
    # u costs one AND with the later neighbours of u, however large the hub
    later = [sum(1 << index[v] for v in adj[u] if index[v] > i) for i, u in enumerate(order)]
    queue = deque(
        ([u, order[j], order[k]], later[i] & later[j] & later[k])
        for i, u in enumerate(order)
        for j in bits(later[i])
        for k in bits(later[i] & later[j])
    )
    while queue:
        base, candidates = queue.popleft()
        yield base
        # the same walk as bits, inlined: a generator per clique costs
        # about a third more on the dense links of a Salvetti base
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            queue.append((base + [order[i]], candidates & later[i]))


def bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
