"""Output checks that do not use the engine.

Each check recomputes what the engine should have produced from the input
documents alone, by direct counting over the JSON data.  ``nx_match_count``
repeats the match count with networkx's VF2 matcher as a second,
independent implementation; networkx is used by the benchmark only.
"""

from __future__ import annotations

from collections import Counter


# -- apply: node and edge counts of H ----------------------------------------------


def expected_h_counts(rule_kind: str, host: dict, v=None) -> tuple:
    """``(nodes, edges)`` of the result of one step, from the host document,
    the rule's kind and ``v``, the host node the rule rewrites.

    ``clone``: SQPO clone of ``v``; an edge at ``v`` is copied once per clone
    end, so a non-loop edge doubles and a loop quadruples.
    ``clone_out``: PSQPO clone where the second copy only keeps outgoing
    edges; every edge leaving ``v`` (loops included) gains one copy.
    ``delete``: ``v`` goes with every edge touching it.
    ``identity``: the host is rebuilt unchanged.
    ``web_copy``: typed copy of page ``v``; every ``link`` edge leaving it
    (loops included) gains one copy, everything else is kept once.
    ``delete_edge``: the matched edge goes.
    """
    n = len(host["nodes"])
    m = len(host["edges"])
    if rule_kind == "identity":
        return n, m
    if rule_kind == "delete_edge":
        return n, m - 1
    edges = host["edges"]
    if rule_kind == "clone":
        touching = sum(1 for e in edges if e["src"] == v or e["tgt"] == v)
        loops = sum(1 for e in edges if e["src"] == v and e["tgt"] == v)
        return n + 1, m + touching + 2 * loops
    if rule_kind == "clone_out":
        return n + 1, m + sum(1 for e in edges if e["src"] == v)
    if rule_kind == "delete":
        return n - 1, m - sum(1 for e in edges if e["src"] == v or e["tgt"] == v)
    if rule_kind == "web_copy":
        return n + 1, m + sum(1 for e in edges if e["src"] == v and e.get("type") == "link")
    raise ValueError(f"unknown rule kind {rule_kind!r}")


def graph_counts(doc: dict) -> tuple:
    """``(nodes, edges)`` of a GraphDoc, after checking ids are unique and
    endpoints exist."""
    nodes = [x["id"] for x in doc["nodes"]]
    edges = doc["edges"]
    node_set = set(nodes)
    if len(node_set) != len(nodes) or len({e["id"] for e in edges}) != len(edges):
        raise ValueError("duplicate ids in result graph")
    if any(e["src"] not in node_set or e["tgt"] not in node_set for e in edges):
        raise ValueError("dangling edge in result graph")
    return len(nodes), len(edges)


# -- matches: the full list, in the engine's order ----------------------------------


def expected_matches(pattern: str, host: dict) -> list:
    """Every match of a benchmark pattern, as MorphismDocs, in lexicographic
    order of the assignment (pattern nodes by sorted id, then pattern edges
    by sorted id).

    ``edge``: ``a -e-> b``, plain.  ``typed_edge``: ``a:tn -te-> b:tn``.
    ``path``: ``a -e1-> b -e2-> c``, plain.  Matches are injective, so
    endpoints are distinct and loops never match.
    """
    edges = host["edges"]
    if pattern in ("edge", "typed_edge"):
        want = "te" if pattern == "typed_edge" else None
        keyed = sorted(
            (e["src"], e["tgt"], e["id"]) for e in edges
            if e["src"] != e["tgt"] and (want is None or e.get("type") == want)
        )
        return [{"nodes": {"a": a, "b": b}, "edges": {"e": e}} for a, b, e in keyed]
    if pattern == "path":
        out_of = {}
        for e in edges:
            out_of.setdefault(e["src"], []).append(e)
        keyed = []
        for e1 in edges:
            a, b = e1["src"], e1["tgt"]
            if a == b:
                continue
            for e2 in out_of.get(b, ()):
                c = e2["tgt"]
                if c != a and c != b:
                    keyed.append((a, b, c, e1["id"], e2["id"]))
        keyed.sort()
        return [{"nodes": {"a": a, "b": b, "c": c}, "edges": {"e1": e1, "e2": e2}}
                for a, b, c, e1, e2 in keyed]
    raise ValueError(f"unknown pattern {pattern!r}")


def nx_match_count(pattern: str, host: dict) -> int:
    """The number of matches, counted with networkx's ``MultiDiGraphMatcher``.

    The matcher yields injective node maps; each map extends to as many
    matches as there are choices of parallel host edges for the pattern
    edges.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import MultiDiGraphMatcher

    etype = "te" if pattern == "typed_edge" else None
    big = nx.MultiDiGraph()
    for x in host["nodes"]:
        big.add_node(x["id"], type=x.get("type"))
    mult = Counter()
    for e in host["edges"]:
        if etype is None or e.get("type") == etype:
            big.add_edge(e["src"], e["tgt"])
            mult[(e["src"], e["tgt"])] += 1
    small = nx.MultiDiGraph()
    if pattern == "path":
        small.add_edges_from([("a", "b"), ("b", "c")])
    else:
        small.add_edge("a", "b")
    node_match = None
    if etype is not None:
        for x in small.nodes:
            small.nodes[x]["type"] = "tn"
        node_match = lambda u, v: u["type"] == v["type"]  # noqa: E731
    matcher = MultiDiGraphMatcher(big, small, node_match=node_match)
    total = 0
    for mapping in matcher.subgraph_monomorphisms_iter():
        inv = {p: h for h, p in mapping.items()}
        ways = 1
        for u, v in small.edges():
            ways *= mult[(inv[u], inv[v])]
        total += ways
    return total
