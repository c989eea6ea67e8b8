"""``io.parse_graph`` as it was before the column pass: one loop over the
entries that validates, collects positioned errors and builds the object.

Kept verbatim as a test-only oracle.  ``conftest.py`` checks every
``parse_graph`` call in the suite against it, and ``test_parse.py`` against
mutated documents: the column pass must accept the same documents, build
equal objects, and leave the row pass to word the same errors.
``parse_outcome`` and ``assert_same_parse`` make that comparison.
"""

from __future__ import annotations

from typing import Optional

from agree.core import GRPOL, Graph, typed_over
from agree.errors import DocumentError


def _array(doc: dict, key: str, path: str, errors: list) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        errors.append((f"{path}/{key}", f"'{key}' must be an array"))
        return []
    return value


def _report_non_strings(entry: dict, keys, p: str, errors: list):
    for key in keys:
        if not isinstance(entry.get(key, ""), str):
            errors.append((f"{p}/{key}", f"'{key}' must be a string, got {entry[key]!r}"))


def parse_graph(doc, typegraph: Optional[Graph] = None, path: str = "", polarized: bool = False):
    """Parse a GraphDoc.

    With ``typegraph`` the result is a typed graph; otherwise ``polarized``
    or the presence of any ``polarity`` key selects a polarized graph, else
    a plain one.
    """
    errors = []
    if not isinstance(doc, dict):
        raise DocumentError([(path or "/", "graph document must be an object")])
    nodes = _array(doc, "nodes", path, errors)
    edges = _array(doc, "edges", path, errors)

    seen_nodes = {}
    for i, entry in enumerate(nodes):
        p = f"{path}/nodes/{i}"
        if not isinstance(entry, dict) or "id" not in entry:
            errors.append((p, "node entries need an 'id'"))
            continue
        nid = entry["id"]
        if not (isinstance(nid, str) and isinstance(entry.get("type", ""), str)):
            _report_non_strings(entry, ("id", "type"), p, errors)
            continue
        if nid in seen_nodes:
            errors.append((p, f"duplicate node id {nid!r}"))
            continue
        if "polarity" in entry:
            polarized = True
            pol = entry["polarity"]
            if not isinstance(pol, list) or any(c not in ("+", "-") for c in pol):
                errors.append((p + "/polarity", f"polarity must be an array of '+' and '-', got {pol!r}"))
                continue
        seen_nodes[nid] = entry

    seen_edges = {}
    for i, entry in enumerate(edges):
        p = f"{path}/edges/{i}"
        if not isinstance(entry, dict) or not {"id", "src", "tgt"} <= set(entry):
            errors.append((p, "edge entries need 'id', 'src' and 'tgt'"))
            continue
        eid = entry["id"]
        if not (isinstance(eid, str) and isinstance(entry["src"], str) and isinstance(entry["tgt"], str)
                and isinstance(entry.get("type", ""), str)):
            _report_non_strings(entry, ("id", "src", "tgt", "type"), p, errors)
            continue
        if eid in seen_edges:
            errors.append((p, f"duplicate edge id {eid!r}"))
            continue
        for end in ("src", "tgt"):
            if entry[end] not in seen_nodes:
                errors.append((p + f"/{end}", f"dangling endpoint: {entry[end]!r} is not a node id"))
        seen_edges[eid] = entry

    if typegraph is not None:
        if polarized:
            errors.append((f"{path}/nodes", "typed documents cannot carry polarity"))
        for nid, entry in seen_nodes.items():
            if "type" not in entry:
                errors.append((f"{path}/nodes", f"node {nid!r} is missing a type"))
            elif entry["type"] not in typegraph.nodes:
                errors.append((f"{path}/nodes", f"node {nid!r} has unknown type {entry['type']!r}"))
        for eid, entry in seen_edges.items():
            if "type" not in entry:
                errors.append((f"{path}/edges", f"edge {eid!r} is missing a type"))
            elif entry["type"] not in typegraph.src:
                errors.append((f"{path}/edges", f"edge {eid!r} has unknown type {entry['type']!r}"))
    elif any("type" in e for e in list(seen_nodes.values()) + list(seen_edges.values())):
        errors.append((path or "/", "type fields need a type graph"))
    if errors:
        raise DocumentError(errors)

    graph = Graph.build(seen_nodes, {eid: (e["src"], e["tgt"]) for eid, e in seen_edges.items()})
    if typegraph is not None:
        for eid, entry in seen_edges.items():
            et = entry["type"]
            ends = (seen_nodes[entry["src"]]["type"], seen_nodes[entry["tgt"]]["type"])
            if (typegraph.src[et], typegraph.tgt[et]) != ends:
                errors.append((f"{path}/edges", f"edge {eid!r} type {et!r} does not match its endpoint types"))
        node_labels = {nid: e["type"] for nid, e in seen_nodes.items()}
        edge_labels = {eid: e["type"] for eid, e in seen_edges.items()}
        instance = typed_over(typegraph)
    elif polarized:
        node_labels = {nid: frozenset(e.get("polarity", [])) for nid, e in seen_nodes.items()}
        for eid, entry in seen_edges.items():
            if "+" not in node_labels[entry["src"]]:
                errors.append((f"{path}/edges", f"edge {eid!r} leaves node {entry['src']!r} without + polarity"))
            if "-" not in node_labels[entry["tgt"]]:
                errors.append((f"{path}/edges", f"edge {eid!r} enters node {entry['tgt']!r} without - polarity"))
        edge_labels = None
        instance = GRPOL
    else:
        return graph
    if errors:
        raise DocumentError(errors)
    return Graph(graph.nodes, graph.src, graph.tgt, node_labels, edge_labels, instance.typegraph)


# -- comparing a parser with this one -------------------------------------------


def parse_outcome(parse, *args, **kwargs):
    """What a graph parser makes of a document: the object, or the errors
    of the ``DocumentError`` it raises."""
    try:
        return parse(*args, **kwargs)
    except DocumentError as exc:
        return exc.errors


def assert_same_parse(got, expected):
    """Equal objects with equal labels, built in the same order, or the
    same list of positioned errors; else raise ``AssertionError``, also
    under ``python -O``."""
    if type(got) is not type(expected):
        raise AssertionError(f"parsed to a {type(got).__name__}, the reference to a {type(expected).__name__}")
    if got != expected:
        raise AssertionError(f"parsed to {got!r}, the reference to {expected!r}")
    if not isinstance(expected, list):
        if (got.node_labels, got.edge_labels) != (expected.node_labels, expected.edge_labels):
            raise AssertionError(f"labels {got.node_labels!r}, {got.edge_labels!r}, the reference's "
                                 f"{expected.node_labels!r}, {expected.edge_labels!r}")
        if list(got.src) != list(expected.src):
            raise AssertionError("the edges were built in another order than the reference's")
