"""Seeded input documents for the benchmark.

Everything here is plain JSON-shaped data built with ``random.Random`` from
a string seed, so the same seed gives byte-identical documents in any
process, whatever its ``PYTHONHASHSEED``.  Nothing here imports the engine:
the documents are what a CLI user would write by hand.
"""

from __future__ import annotations

import json
import random

# The type graph of the web-page example: one node type, two edge types.
WEB_TYPEGRAPH = {
    "nodes": [{"id": "page"}],
    "edges": [
        {"id": "link", "src": "page", "tgt": "page"},
        {"id": "sub", "src": "page", "tgt": "page"},
    ],
}

# Two node types, so that typed matching filters node candidates by type.
TWO_TYPE_TYPEGRAPH = {
    "nodes": [{"id": "tm"}, {"id": "tn"}],
    "edges": [
        {"id": "te", "src": "tn", "tgt": "tn"},
        {"id": "tf", "src": "tn", "tgt": "tm"},
        {"id": "tg", "src": "tm", "tgt": "tm"},
    ],
}


def rng_for(*parts) -> random.Random:
    """A generator seeded by a string, independent of the hash seed."""
    return random.Random("/".join(str(p) for p in parts))


def dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- hosts -----------------------------------------------------------------------


def node_ids(n: int) -> list:
    width = len(str(max(n - 1, 0)))
    return [f"n{i:0{width}d}" for i in range(n)]


def plain_host(rng: random.Random, n: int, m: int) -> dict:
    """A random multigraph with ``n`` nodes and ``m`` edges (loops allowed)."""
    nodes = node_ids(n)
    width = len(str(max(m - 1, 0)))
    return {
        "nodes": [{"id": x} for x in nodes],
        "edges": [
            {"id": f"e{i:0{width}d}", "src": rng.choice(nodes), "tgt": rng.choice(nodes)}
            for i in range(m)
        ],
    }


def typed_host(rng: random.Random, n: int, m: int, typegraph: dict) -> dict:
    """A random graph typed over ``typegraph``; every edge type is drawn
    uniformly, then its endpoints among the nodes of the right types."""
    types = [t["id"] for t in typegraph["nodes"]]
    etypes = typegraph["edges"]
    nodes = node_ids(n)
    node_type = {x: types[i % len(types)] for i, x in enumerate(nodes)}
    by_type = {t: [x for x in nodes if node_type[x] == t] for t in types}
    width = len(str(max(m - 1, 0)))
    edges = []
    for i in range(m):
        et = rng.choice(etypes)
        edges.append({
            "id": f"e{i:0{width}d}",
            "src": rng.choice(by_type[et["src"]]),
            "tgt": rng.choice(by_type[et["tgt"]]),
            "type": et["id"],
        })
    return {"nodes": [{"id": x, "type": node_type[x]} for x in nodes], "edges": edges}


# -- rules -----------------------------------------------------------------------


def _graph(nodes, edges=(), types=None):
    """A GraphDoc from node ids and ``(id, src, tgt[, type])`` edge tuples."""
    out_nodes = []
    for x in nodes:
        entry = {"id": x}
        if types is not None:
            entry["type"] = types[x]
        out_nodes.append(entry)
    out_edges = []
    for e in edges:
        entry = {"id": e[0], "src": e[1], "tgt": e[2]}
        if len(e) > 3:
            entry["type"] = e[3]
        out_edges.append(entry)
    return {"nodes": out_nodes, "edges": out_edges}


def _map(nodes=None, edges=None):
    return {"nodes": dict(nodes or {}), "edges": dict(edges or {})}


def _identity_map(nodes, edges=()):
    return _map({x: x for x in nodes}, {e: e for e in edges})


def clone_node_rule() -> dict:
    """SQPO: clone a node together with all of its edges (|K| = 2)."""
    k = ["k0", "k1"]
    return {"mode": "SQPO", "L": _graph(["x"]), "K": _graph(k), "R": _graph(k),
            "l": _map({"k0": "x", "k1": "x"}), "r": _identity_map(k)}


def clone_outgoing_rule() -> dict:
    """PSQPO: clone a node; the copy ``k1`` keeps only outgoing edges."""
    doc = clone_node_rule()
    doc["mode"] = "PSQPO"
    doc["polarity"] = {"plus": ["k0", "k1"], "minus": ["k0"]}
    return doc


def delete_node_rule() -> dict:
    """SQPO: delete a node with every edge that touches it."""
    return {"mode": "SQPO", "L": _graph(["x"]), "K": _graph([]), "R": _graph([]),
            "l": _map(), "r": _map()}


def identity_rule(size: int) -> dict:
    """SQPO identity on ``size`` discrete nodes (|K| = size)."""
    k = [f"k{i}" for i in range(size)]
    return {"mode": "SQPO", "L": _graph(k), "K": _graph(k), "R": _graph(k),
            "l": _identity_map(k), "r": _identity_map(k)}


def web_copy_rule() -> dict:
    """Typed AGREE: copy a page; the copy ``p1`` keeps only its outgoing links."""
    page = {"p0": "page", "p1": "page", "ctx": "page"}
    tk_edges = [
        (f"{kind[0]}_{s}_{t}", s, t, kind)
        for kind in ("link", "sub")
        for s in ("ctx", "p0")
        for t in ("ctx", "p0")
    ] + [("l_p1_ctx", "p1", "ctx", "link"), ("l_p1_p0", "p1", "p0", "link")]
    k = ["p0", "p1"]
    return {
        "mode": "AGREE",
        "typegraph": WEB_TYPEGRAPH,
        "L": _graph(["p"], types={"p": "page"}),
        "K": _graph(k, types=page),
        "R": _graph(k, types=page),
        "TK": _graph(["ctx", "p0", "p1"], tk_edges, types=page),
        "l": _map({"p0": "p", "p1": "p"}),
        "r": _identity_map(k),
        "t": _identity_map(k),
    }


def delete_edge_rule(typed: bool = False) -> dict:
    """SQPO: delete the edge ``a -e-> b`` and keep both endpoints.

    Typed, the pattern is ``a:tn -te-> b:tn`` over the two-type type graph.
    """
    types = {"a": "tn", "b": "tn"} if typed else None
    edge = ("e", "a", "b", "te") if typed else ("e", "a", "b")
    k = ["a", "b"]
    doc = {"mode": "SQPO", "L": _graph(k, [edge], types), "K": _graph(k, types=types),
           "R": _graph(k, types=types), "l": _identity_map(k), "r": _identity_map(k)}
    if typed:
        doc["typegraph"] = TWO_TYPE_TYPEGRAPH
    return doc


def delete_middle_rule() -> dict:
    """SQPO: match the path ``a -e1-> b -e2-> c`` and delete ``b``."""
    k = ["a", "c"]
    return {"mode": "SQPO",
            "L": _graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")]),
            "K": _graph(k), "R": _graph(k), "l": _identity_map(k), "r": _identity_map(k)}


# -- the shipped scenario graphs --------------------------------------------------


def chain_graph() -> dict:
    """``a -> v -> b``."""
    return _graph(["a", "b", "v"], [("av", "a", "v"), ("vb", "v", "b")])


def web_graph() -> dict:
    """Three linked pages and one sub-page of ``v``."""
    page = {x: "page" for x in ("sp", "u", "v", "w")}
    return _graph(["sp", "u", "v", "w"],
                  [("uv", "u", "v", "link"), ("vs", "v", "sp", "sub"),
                   ("vw", "v", "w", "link"), ("wu", "w", "u", "link")], types=page)
