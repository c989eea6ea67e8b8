"""JSON documents for graphs, morphisms, rules and traces, plus DOT export.

Serialization is canonical: object keys are emitted sorted, arrays are
sorted by id, text is UTF-8 with LF line endings.  Parsing validates and
reports every problem with a JSON-pointer-like position and the violated
invariant, not just the first one.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import attrgetter, contains, itemgetter, methodcaller
from typing import Optional

from .core import GR, CategoryInstance, Graph, Morphism, typed_over
from .errors import DocumentError, StructuralError
from .rewrite import Rule, RewriteTrace, agree_rule, psqpo_rule, sqpo_rule

__all__ = [
    "dumps",
    "graph_doc",
    "parse_graph",
    "morphism_doc",
    "parse_morphism",
    "rule_doc",
    "parse_rule",
    "trace_doc",
    "export_dot",
]


def dumps(doc) -> str:
    """Canonical JSON text for a document.

    The text is that of ``json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False)`` plus a final newline, written directly: with
    ``indent`` set, ``json`` falls back to its pure-Python encoder.  A
    graph object or a morphism anywhere in ``doc`` is written as its
    :func:`graph_doc` or :func:`morphism_doc` would be, straight from its
    columns or maps, and only if the ``parse_*`` functions read that back:
    an id, a type, a key or an image that is not a ``str``, a map that is
    not a mapping, or a dict key above it that is not a ``str`` raises
    :class:`TypeError`.  A document is written as any other dict.
    """
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring


def _write(value, newline: str, out: list):
    """Append the text of ``value`` to ``out``; ``newline`` is a line break
    followed by the indentation of the line ``value`` starts on.  Graph
    objects and morphisms are written as their documents would be."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        sep = "[" + inner
        layout = None  # the last arrow layout: the matches of one rule share it
        for item in value:
            out.append(sep)
            if type(item) is str:
                out.append(_encode_str(item))
            elif isinstance(item, Morphism):
                layout = _arrow_layout(item, inner, layout)
                out.append(_arrow_text(item, layout))
            else:
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict) and value and all(map(isinstance, value, repeat(str))):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) is str:  # most values are ids: no call for them
                out.append(sep + _encode_str(key) + ": " + _encode_str(item))
            else:
                out.append(sep + _encode_str(key) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, Graph):
        out.append(_graph_text(value, newline))
    elif isinstance(value, Morphism):
        out.append(_arrow_text(value, _arrow_layout(value, newline)))
    else:
        # Numbers, constants, empty containers and dicts with non-string
        # keys, which ``json`` refuses if they hold a graph or a morphism.
        text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
        out.append(text.replace("\n", newline))


def _arrow_layout(f: Morphism, newline: str, last: Optional[tuple] = None) -> tuple:
    """The fixed text of ``morphism_doc(f)`` (``newline`` as for :func:`_write`):
    the maps' key sets and sorted keys, four parts per key with a slot for
    its value last, and the closing text.  ``last``, another arrow's layout,
    is kept if its key sets are ``f``'s.  A map that is not a mapping, or a
    key that is not a ``str``, raises :class:`TypeError`."""
    try:
        keys = f.edgemap.keys(), f.nodemap.keys()
    except AttributeError:
        raise TypeError("a morphism's maps must be mappings") from None
    if last is not None and keys == last[:2]:
        return last
    inner, key_line = newline + "  ", newline + "    "
    orders, parts, text = (sorted(keys[0]), sorted(keys[1])), [], "{" + inner + '"edges": '
    for order, after in zip(orders, ("," + inner + '"nodes": ', newline + "}")):
        block = ["," + key_line, None, ": ", None] * len(order)
        block[1::4] = map(_encode_str, order)
        if order:  # the first key opens the map
            block[0] = text + "{" + key_line
        parts += block
        text = (inner + "}" if order else text + "{}") + after
    return (*keys, *orders, parts + [text])


def _arrow_text(f: Morphism, layout: tuple) -> str:
    """The text of ``morphism_doc(f)`` in ``layout``; an image that is not
    a ``str`` raises :class:`TypeError`."""
    parts = layout[4].copy()
    values = chain(map(f.edgemap.__getitem__, layout[2]), map(f.nodemap.__getitem__, layout[3]))
    parts[3::4] = map(_encode_str, values)
    return "".join(parts)


def _records(count: int, columns: list, newline: str) -> str:
    """The text of a list of ``count`` records; ``newline`` is as for
    :func:`_write`.  ``columns`` holds each key, in sorted order, with an
    iterable of the texts of its ``count`` values, written at
    ``newline + "    "``.  The columns and the fixed text between them are
    laid out in one list by slice assignment, then joined once."""
    if not count:
        return "[]"
    inner, key_line = newline + "  ", newline + "    "
    width = 2 * len(columns)
    # Per record: the text before each value, then the value.
    parts = [None] * (width * count)
    for i, (key, texts) in enumerate(columns):
        parts[2 * i::width] = [("," if i else "{") + key_line + _encode_str(key) + ": "] * count
        parts[2 * i + 1::width] = texts
    # The text before a record's first value also closes the record before it.
    opening = parts[0]
    parts[0::width] = [inner + "}," + inner + opening] * count
    parts[0] = "[" + inner + opening
    return "".join(parts) + inner + "}" + newline + "]"


def _str_list(items, newline: str) -> str:
    """The text of a list of ``str``; ``newline`` is as for :func:`_write`."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(_encode_str, items)) + newline + "]"


def _graph_text(obj, newline: str) -> str:
    """The text of ``graph_doc(obj)``, written from ``obj``'s columns;
    ``newline`` is as for :func:`_write`.  An id or a type that is not a
    ``str`` raises :class:`TypeError`.  The endpoint columns are encoded
    through the node ids' texts; the constructor has checked that every
    endpoint is a node and every item of a labelled graph has its label."""
    src, tgt = obj.src, obj.tgt
    nids, eids = sorted(obj.nodes), sorted(src)
    inner = newline + "  "
    key_line = inner + "    "
    node_texts = list(map(_encode_str, nids))
    node_text = dict(zip(nids, node_texts)).__getitem__
    typed = obj.kind == "typed"
    node_columns = [("id", node_texts)]
    edge_columns = [("id", map(_encode_str, eids)), ("src", map(node_text, map(src.__getitem__, eids))),
                    ("tgt", map(node_text, map(tgt.__getitem__, eids)))]
    for columns, ids, labels in ((node_columns, nids, obj.node_labels), (edge_columns, eids, obj.edge_labels)):
        if not labels:
            continue
        column = list(map(labels.__getitem__, ids))
        # Labels are names of the type graph's items or capability sets, so
        # they are hashable, and each distinct one is encoded once.
        if typed:
            field, texts = "type", {label: _encode_str(label) for label in set(column)}
        else:
            field, texts = "polarity", {caps: _str_list(_POLARITY[caps], key_line) for caps in set(column)}
        columns.append((field, map(texts.__getitem__, column)))
    return ("{" + inner + '"edges": ' + _records(len(eids), edge_columns, inner)
            + "," + inner + '"nodes": ' + _records(len(nids), node_columns, inner) + newline + "}")


# -- graphs -------------------------------------------------------------------


def graph_doc(obj) -> dict:
    """Serialize a graph of any setting to a GraphDoc.

    The graph's setting chooses the label field: a typed graph's labels
    are written as ``type``, whatever their ids are, a polarized graph's
    as ``polarity``, a list of capabilities."""
    nodes = [{"id": n} for n in sorted(obj.nodes)]
    src, tgt = obj.src, obj.tgt
    edges = [{"id": e, "src": src[e], "tgt": tgt[e]} for e in sorted(src)]
    typed = obj.kind == "typed"
    for entries, labels in ((nodes, obj.node_labels), (edges, obj.edge_labels)):
        if not labels:
            continue
        if typed:
            for entry in entries:
                entry["type"] = labels[entry["id"]]
        else:
            for entry in entries:
                entry["polarity"] = _POLARITY[labels[entry["id"]]][:]
    return {"nodes": nodes, "edges": edges}


# The polarity field of each capability set.
_POLARITY = {frozenset(caps): list(caps) for caps in ("", "-", "+", "+-")}
# One object per capability set, shared by every parsed node that has it.
_CAPABILITIES = {caps: caps for caps in _POLARITY}


def parse_graph(doc, typegraph: Optional[Graph] = None, path: str = "", polarized: bool = False) -> Graph:
    """Parse a GraphDoc.

    With ``typegraph`` the result is a typed graph; otherwise ``polarized``
    or the presence of any ``polarity`` key selects a polarized graph, in
    which a node without that key has no capabilities, else a plain one.
    The document is read column by column; only a rejected one is read
    again entry by entry, to say where each of its problems is.
    """
    if not isinstance(doc, dict):
        raise DocumentError([(path or "/", "graph document must be an object")])
    try:
        obj = _read_columns(doc, typegraph, polarized)
    except StructuralError:  # the constructor refused the graph the columns describe
        obj = None
    if obj is None:
        errors = _row_errors(doc, typegraph, path, polarized)
        if not errors:
            raise StructuralError("the column pass rejected a graph document the row pass accepts")
        raise DocumentError(errors)
    return obj


def _parse_unpolarized(doc, typegraph: Optional[Graph] = None, path: str = "") -> Graph:
    """:func:`parse_graph` for a document of a setting without polarity:
    a typed one over ``typegraph``, else a plain one, which is refused at
    its first node with a ``polarity`` key before any other problem.  The
    document is scanned only to word that refusal."""
    try:
        obj = parse_graph(doc, typegraph, path)
        if obj.kind != "grpol":
            return obj
    except DocumentError:
        if typegraph is not None or _first_polarity(doc) is None:
            raise
    raise DocumentError([(f"{path}/nodes/{_first_polarity(doc)}/polarity", "a plain graph's nodes carry no polarity")])


def _strings(column: list) -> bool:
    return all(map(isinstance, column, repeat(str)))


def _columns(entries, keys: tuple) -> Optional[list]:
    """The columns ``keys`` of a list of objects, or ``None`` if an entry is
    not an object or lacks one of them."""
    if not (isinstance(entries, list) and all(map(isinstance, entries, repeat(dict)))):
        return None
    try:
        return [list(map(itemgetter(key), entries)) for key in keys]
    except KeyError:
        return None


_SIGNS = ("+", "-")


def _read_columns(doc: dict, typegraph: Optional[Graph], polarized: bool = False):
    """The graph a document describes, or ``None`` if a check of
    :func:`_row_errors` that the constructor does not make fails.  Every
    check is a pass over whole columns.  Endpoints, types and the polarity
    edges need are checked by ``Graph``, whose :class:`StructuralError`
    :func:`parse_graph` takes as a rejection."""
    nodes, edges = doc.get("nodes", []), doc.get("edges", [])
    typed = typegraph is not None
    node_cols = _columns(nodes, ("id", "type") if typed else ("id",))
    edge_cols = _columns(edges, ("id", "src", "tgt", "type") if typed else ("id", "src", "tgt"))
    if node_cols is None or edge_cols is None or not all(map(_strings, node_cols + edge_cols)):
        return None
    nids, (eids, srcs, tgts) = node_cols[0], edge_cols[:3]
    node_set = frozenset(nids)
    if len(node_set) != len(nids) or len(set(eids)) != len(eids):
        return None
    src, tgt = dict(zip(eids, srcs)), dict(zip(eids, tgts))

    if typed:
        if any(map(contains, nodes, repeat("polarity"))):
            return None
        return Graph(node_set, src, tgt, dict(zip(nids, node_cols[1])), dict(zip(eids, edge_cols[3])), typegraph)
    if any(map(contains, chain(nodes, edges), repeat("type"))):
        return None
    if not (polarized or any(map(contains, nodes, repeat("polarity")))):
        return Graph(node_set, src, tgt)
    pols = list(map(methodcaller("get", "polarity", []), nodes))
    if not (all(map(isinstance, pols, repeat(list))) and all(map(_SIGNS.__contains__, chain.from_iterable(pols)))):
        return None
    return Graph(node_set, src, tgt, dict(zip(nids, map(_CAPABILITIES.__getitem__, map(frozenset, pols)))))


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


def _row_errors(doc: dict, typegraph: Optional[Graph], path: str, polarized: bool = False) -> list:
    """Every problem of a graph document, with its position, found entry by
    entry.  Problems of the labelling are looked for only in a document
    that has none of the others."""
    errors = []
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
            if not isinstance(pol, list) or any(c not in _SIGNS for c in pol):
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
        return errors

    if typegraph is not None:
        for eid, entry in seen_edges.items():
            et = entry["type"]
            ends = (seen_nodes[entry["src"]]["type"], seen_nodes[entry["tgt"]]["type"])
            if (typegraph.src[et], typegraph.tgt[et]) != ends:
                errors.append((f"{path}/edges", f"edge {eid!r} type {et!r} does not match its endpoint types"))
    elif polarized:
        for eid, entry in seen_edges.items():
            if "+" not in seen_nodes[entry["src"]].get("polarity", []):
                errors.append((f"{path}/edges", f"edge {eid!r} leaves node {entry['src']!r} without + polarity"))
            if "-" not in seen_nodes[entry["tgt"]].get("polarity", []):
                errors.append((f"{path}/edges", f"edge {eid!r} enters node {entry['tgt']!r} without - polarity"))
    return errors


# -- morphisms ----------------------------------------------------------------


def morphism_doc(f: Morphism, with_objects: bool = False) -> dict:
    """Serialize a morphism; with ``with_objects`` the endpoint graphs are
    embedded so the file stands alone."""
    doc = {
        "nodes": {k: f.nodemap[k] for k in sorted(f.nodemap)},
        "edges": {k: f.edgemap[k] for k in sorted(f.edgemap)},
    }
    if with_objects:
        doc["source"] = graph_doc(f.source)
        doc["target"] = graph_doc(f.target)
    return doc


def parse_morphism(doc, source=None, target=None, typegraph: Optional[Graph] = None,
                   path: str = "") -> Morphism:
    """Parse a MorphismDoc against known endpoints, or its embedded ones.

    Both ends are read in one setting: typed over ``typegraph`` if there is
    one, else polarized if a given end is or an embedded one has a
    ``polarity`` key, else plain."""
    if not isinstance(doc, dict):
        raise DocumentError([(path or "/", "morphism document must be an object")])
    errors = []
    polarized = typegraph is None and any(
        _first_polarity(doc.get(key)) is not None if end is None else end.kind == "grpol"
        for key, end in (("source", source), ("target", target)))
    if source is None:
        if "source" not in doc:
            raise DocumentError([(f"{path}/source", "no source graph given or embedded")])
        source = parse_graph(doc["source"], typegraph, f"{path}/source", polarized)
    if target is None:
        if "target" not in doc:
            raise DocumentError([(f"{path}/target", "no target graph given or embedded")])
        target = parse_graph(doc["target"], typegraph, f"{path}/target", polarized)

    maps = {}
    for key, item, known_src, known_tgt in (("nodes", "node", source.nodes, target.nodes),
                                            ("edges", "edge", source.src, target.src)):
        mapping = maps[key] = doc.get(key, {})
        if not isinstance(mapping, dict):
            errors.append((f"{path}/{key}", f"'{key}' must be an object mapping ids to ids"))
            continue
        for k, v in mapping.items():
            if k not in known_src:
                errors.append((f"{path}/{key}/{k}", f"unknown source {item} id {k!r}"))
            if not isinstance(v, str):
                errors.append((f"{path}/{key}/{k}", f"image must be a string id, got {v!r}"))
            elif v not in known_tgt:
                errors.append((f"{path}/{key}/{k}", f"unknown target {item} id {v!r}"))
    if errors:
        raise DocumentError(errors)
    return Morphism(source, target, dict(maps["nodes"]), dict(maps["edges"]))


def _first_polarity(doc) -> Optional[int]:
    """The index of the first node with a ``polarity`` key if ``doc`` is a
    graph document that has one, else ``None``."""
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if not isinstance(nodes, list):
        return None
    return next((i for i, node in enumerate(nodes) if isinstance(node, dict) and "polarity" in node), None)


# -- rules ---------------------------------------------------------------------


def rule_doc(rule: Rule, instance: CategoryInstance) -> dict:
    doc = {
        "mode": rule.mode,
        "L": graph_doc(rule.lhs),
        "K": graph_doc(rule.interface),
        "R": graph_doc(rule.rhs),
        "l": morphism_doc(rule.l),
        "r": morphism_doc(rule.r),
    }
    if rule.mode == "AGREE":
        doc["TK"] = graph_doc(rule.t.target)
        doc["t"] = morphism_doc(rule.t)
    if rule.mode == "PSQPO":
        doc["polarity"] = {"plus": sorted(rule.nplus), "minus": sorted(rule.nminus)}
    if instance.typegraph is not None:
        doc["typegraph"] = graph_doc(instance.typegraph)
    return doc


def parse_rule(doc, path: str = ""):
    """Parse a RuleDoc; returns ``(rule, instance)``.

    Mode-dependent required fields mirror the rule invariants: ``AGREE``
    needs ``TK``/``t``, ``SQPO`` takes the span only, ``PSQPO`` needs a
    ``polarity`` block over plain graphs.
    """
    if not isinstance(doc, dict):
        raise DocumentError([(path or "/", "rule document must be an object")])
    mode = doc.get("mode")
    if mode not in ("AGREE", "SQPO", "PSQPO"):
        raise DocumentError([(f"{path}/mode", f"mode must be AGREE, SQPO or PSQPO, got {mode!r}")])
    for key in ("L", "K", "R", "l", "r"):
        if key not in doc:
            raise DocumentError([(f"{path}/{key}", "missing required field")])
    errors = []
    if mode == "AGREE":
        for key in ("TK", "t"):
            if key not in doc:
                errors.append((f"{path}/{key}", "AGREE rules need an explicit embedding"))
        if "polarity" in doc:
            errors.append((f"{path}/polarity", "polarity belongs to PSQPO rules"))
    else:
        for key in ("TK", "t"):
            if key in doc:
                errors.append((f"{path}/{key}", f"{mode} rules materialize their embedding; drop this field"))
        if mode == "PSQPO":
            if "polarity" not in doc:
                errors.append((f"{path}/polarity", "PSQPO rules need a polarity block"))
            if "typegraph" in doc:
                errors.append((f"{path}/typegraph", "PSQPO rules live over plain graphs"))
        elif "polarity" in doc:
            errors.append((f"{path}/polarity", "polarity belongs to PSQPO rules"))
    if errors:
        raise DocumentError(errors)

    typegraph = None
    instance = GR
    if "typegraph" in doc:
        typegraph = _parse_unpolarized(doc["typegraph"], path=f"{path}/typegraph")
        instance = typed_over(typegraph)

    lhs = _parse_unpolarized(doc["L"], typegraph, f"{path}/L")
    k = _parse_unpolarized(doc["K"], typegraph, f"{path}/K")
    rhs = _parse_unpolarized(doc["R"], typegraph, f"{path}/R")
    l = parse_morphism(doc["l"], source=k, target=lhs, path=f"{path}/l")
    r = parse_morphism(doc["r"], source=k, target=rhs, path=f"{path}/r")

    if mode == "AGREE":
        tk = _parse_unpolarized(doc["TK"], typegraph, f"{path}/TK")
        t = parse_morphism(doc["t"], source=k, target=tk, path=f"{path}/t")
        return agree_rule(l, r, t, instance), instance
    if mode == "SQPO":
        return sqpo_rule(l, r, instance), instance
    pol = doc["polarity"]
    if not isinstance(pol, dict):
        raise DocumentError([(f"{path}/polarity", "polarity must be an object with 'plus' and 'minus' arrays")])
    for key in ("plus", "minus"):
        ids = pol.get(key, [])
        if not isinstance(ids, list):
            errors.append((f"{path}/polarity/{key}", f"'{key}' must be an array of interface node ids"))
            continue
        for nid in ids:
            if not isinstance(nid, str) or nid not in k.nodes:
                errors.append((f"{path}/polarity/{key}", f"unknown interface node {nid!r}"))
    if errors:
        raise DocumentError(errors)
    return psqpo_rule(l, r, pol.get("plus", []), pol.get("minus", [])), instance


# -- traces ---------------------------------------------------------------------


# The objects and arrows of a step's diagram, in the order DOT draws them:
# each with its name and where the trace holds it, each arrow also with the
# names of its source and target objects.
_TRACE_OBJECTS = tuple((name, attrgetter(path)) for name, path in (
    ("L", "rule.lhs"), ("K", "rule.interface"), ("R", "rule.rhs"), ("TK", "rule.t.target"),
    ("G", "match.target"), ("D", "context"), ("H", "result"), ("TL", "m_bar.target"),
))
_TRACE_ARROWS = tuple((name, attrgetter(path), src, tgt) for name, path, src, tgt in (
    ("l", "rule.l", "K", "L"),
    ("r", "rule.r", "K", "R"),
    ("t", "rule.t", "K", "TK"),
    ("n", "n", "K", "D"),
    ("m", "match", "L", "G"),
    ("m_bar", "m_bar", "G", "TL"),
    ("l_prime", "l_prime", "TK", "TL"),
    ("g", "g", "D", "G"),
    ("n_prime", "n_prime", "D", "TK"),
    ("h", "h", "D", "H"),
    ("p", "p", "R", "H"),
))


def trace_doc(trace: RewriteTrace) -> dict:
    """Every object and arrow a rewrite step constructed: the trace's own
    graph objects and morphisms, which :func:`dumps` writes as their
    :func:`graph_doc` and :func:`morphism_doc`."""
    return {
        "mode": trace.rule.mode,
        "objects": {name: get(trace) for name, get in _TRACE_OBJECTS},
        "arrows": {name: get(trace) for name, get, _, _ in _TRACE_ARROWS},
    }


# -- DOT ---------------------------------------------------------------------


def _dot(text: str) -> str:
    """A DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label_text(label, typed: bool) -> str:
    return f":{label}" if typed else "".join(c for c in "+-" if c in label)


def _dot_attrs(item: str, text: Optional[str]) -> str:
    attrs = [] if text is None else [f"label={_dot(text)}"]
    if item.startswith("*"):
        attrs.append("style=dashed")
    return f" [{', '.join(attrs)}]" if attrs else ""


def _graph_dot_lines(obj, prefix: str = "", indent: str = "  "):
    node_labels, edge_labels = obj.node_labels, obj.edge_labels
    typed = obj.kind == "typed"  # the setting chooses the label text, as in graph_doc
    lines = []
    for n in sorted(obj.nodes):
        text = None if node_labels is None else n + _label_text(node_labels[n], typed)
        lines.append(f"{indent}{_dot(prefix + n)}{_dot_attrs(n, text)};")
    for e in sorted(obj.src):
        text = e if edge_labels is None else e + _label_text(edge_labels[e], typed)
        lines.append(f"{indent}{_dot(prefix + obj.src[e])} -> {_dot(prefix + obj.tgt[e])}{_dot_attrs(e, text)};")
    return lines


def export_dot(x) -> str:
    """Deterministic DOT text for a graph object or a whole rewrite trace."""
    if isinstance(x, RewriteTrace):
        lines = ["digraph trace {", "  compound=true;"]
        for name, get in _TRACE_OBJECTS:
            lines.append(f"  subgraph cluster_{name} {{")
            lines.append(f'    label="{name}";')
            lines.append(f'    "{name}.__anchor" [shape=point, style=invis];')
            lines.extend(_graph_dot_lines(get(x), prefix=f"{name}.", indent="    "))
            lines.append("  }")
        for arrow, _, src, tgt in _TRACE_ARROWS:
            lines.append(
                f'  "{src}.__anchor" -> "{tgt}.__anchor"'
                f' [label="{arrow}", ltail=cluster_{src}, lhead=cluster_{tgt}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines = ["digraph G {"]
    lines.extend(_graph_dot_lines(x))
    lines.append("}")
    return "\n".join(lines) + "\n"
