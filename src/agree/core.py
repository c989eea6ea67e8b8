"""Graphs in three settings, with checked morphisms.

Directed multigraphs over opaque string ids are the objects of every
setting, all of one class, :class:`Graph`.  Its label columns,
``node_labels`` and ``edge_labels``, say which setting a graph is in:

- a plain graph leaves its items unlabelled: both columns are ``None``;
- a graph typed over a type graph labels every node and edge with its
  type, an item of its ``typegraph``, so that the labels form a
  homomorphism into the type graph;
- a polarized graph labels every node with its capabilities, a subset of
  ``{"+", "-"}`` (only nodes with ``+`` may have outgoing edges, only nodes
  with ``-`` incoming ones), and leaves its edges unlabelled.

The constructor checks the invariant of the graph's setting.
:func:`TypedGraph` and :func:`PolarizedGraph` build the labelled graphs
from a typing arrow, or from the nodes that have each capability.

A :class:`CategoryInstance` selects a setting and holds the only
per-setting knowledge the constructions use, a small table: the order on
labels and their meet, the empty object, the star nodes of the
enlargement, and the edge labels allowed between two node labels.  From
it, a morphism is valid when it is a homomorphism that sends every label
to one above it; it is an admissible mono when it is injective and
label-preserving, and an iso when it is bijective and label-preserving.

Values hold plain ``dict``s, so they are not hashable; every function here
treats them as read-only, and callers must not mutate them after
construction.  That contract is load-bearing: :func:`derived` keeps facts
computed from a value on the value itself (a morphism's validation report,
an object's enlargement, an instance's classifier points), and every later
call reads the kept fact instead of looking at the value again.  A value
changed after construction would answer with facts about its old self.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, Optional

from .errors import PreconditionError, StructuralError

__all__ = [
    "Graph",
    "TypedGraph",
    "PolarizedGraph",
    "Morphism",
    "MorphismReport",
    "CategoryInstance",
    "GR",
    "GRPOL",
    "typed_over",
    "set_category",
    "derived",
    "belongs",
    "require_object",
    "identity",
    "compose",
    "validate_morphism",
    "pol_forget",
    "pol_induce",
    "pol_minimal",
]


# Writes a record's field past its ``__setattr__``, which refuses every write.
_put = object.__setattr__


class _Record:
    """Base of the engine's immutable records.

    A record class lists its fields, in order, in ``_fields``, holds them
    in slots of those names, and writes them in its ``__init__``, through
    :meth:`_fill` or, in the hot records, one at a time.  Two records are
    equal when they are of the same class and their fields are equal; the
    hash is that of the fields, so a record holding a dict has none;
    ``repr`` lists the fields by name.  Fields cannot be assigned or
    deleted.  The instance dict holds the facts :func:`derived` keeps,
    which take no part in any of these.
    """

    __slots__ = ("__dict__", "__weakref__")
    _fields: tuple = ()

    def _fill(self, *values):
        for name, value in zip(self._fields, values):
            _put(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are built by the constructor from the fields.
        return type(self), self._values()


class Graph(_Record):
    """A finite directed multigraph: node ids, edge ids, endpoint maps, and
    the label columns of its setting, with the type graph of a typed one."""

    _fields = __slots__ = ("nodes", "src", "tgt", "node_labels", "edge_labels", "typegraph")

    def __init__(self, nodes: frozenset, src: dict, tgt: dict, node_labels: Optional[dict] = None,
                 edge_labels: Optional[dict] = None, typegraph: Optional[Graph] = None):
        if src.keys() != tgt.keys():
            raise StructuralError("src and tgt must be defined on the same edge set")
        if not (nodes.issuperset(src.values()) and nodes.issuperset(tgt.values())):
            for e, n in list(src.items()) + list(tgt.items()):
                if n not in nodes:
                    raise StructuralError(f"edge {e!r} has dangling endpoint {n!r}")
        _put(self, "nodes", nodes)
        _put(self, "src", src)
        _put(self, "tgt", tgt)
        _put(self, "node_labels", node_labels)
        _put(self, "edge_labels", edge_labels)
        _put(self, "typegraph", typegraph)
        if typegraph is not None:
            _check_types(self)
        elif edge_labels is not None:
            raise StructuralError("edge labels need a type graph")
        elif node_labels is not None:
            _check_capabilities(self)

    def __eq__(self, other):
        # The fields written out, not read through ``_fields``: graphs are
        # compared often enough that the loop would show.
        if other.__class__ is self.__class__:
            return ((self.nodes, self.src, self.tgt, self.node_labels, self.edge_labels, self.typegraph)
                    == (other.nodes, other.src, other.tgt, other.node_labels, other.edge_labels, other.typegraph))
        return NotImplemented

    __hash__ = _Record.__hash__  # a class that defines ``__eq__`` loses its inherited hash

    @classmethod
    def build(cls, nodes: Iterable[str] = (), edges: Optional[Mapping[str, tuple]] = None,
              node_labels: Optional[dict] = None, edge_labels: Optional[dict] = None,
              typegraph: Optional[Graph] = None) -> Graph:
        """Build a graph from a node list and an ``{edge: (src, tgt)}`` mapping,
        with the label columns of its setting."""
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise StructuralError("duplicate node id")
        edges = dict(edges or {})
        return cls(
            frozenset(nodes),
            {e: st[0] for e, st in edges.items()},
            {e: st[1] for e, st in edges.items()},
            node_labels, edge_labels, typegraph,
        )

    @property
    def kind(self) -> str:
        """The setting, named as :class:`CategoryInstance` names it."""
        if self.typegraph is not None:
            return "typed"
        return "gr" if self.node_labels is None else "grpol"

    def ends(self, e: str) -> tuple:
        return (self.src[e], self.tgt[e])


def _check_total(labels, items, item: str):
    if labels is None or labels.keys() != items:
        raise StructuralError(f"the {item} labels must be defined on exactly the {item}s")


def _check_types(g: Graph):
    """Every item typed by an item of the type graph, every edge by a type
    that runs between the types of its ends."""
    node_types, edge_types, tg = g.node_labels, g.edge_labels, g.typegraph
    _check_total(node_types, g.nodes, "node")
    _check_total(edge_types, g.src.keys(), "edge")
    if not tg.nodes.issuperset(node_types.values()):
        x = next(x for x, t in node_types.items() if t not in tg.nodes)
        raise StructuralError(f"node {x!r} has unknown type {node_types[x]!r}")
    src, tgt, type_src, type_tgt = g.src, g.tgt, tg.src, tg.tgt
    for e, t in edge_types.items():
        if t not in type_src:
            raise StructuralError(f"edge {e!r} has unknown type {t!r}")
        if type_src[t] != node_types[src[e]] or type_tgt[t] != node_types[tgt[e]]:
            raise StructuralError(f"edge {e!r} type {t!r} does not match its endpoint types")


def _check_capabilities(g: Graph):
    """Every node labelled by a set of capabilities, every edge leaving a
    ``+`` node and entering a ``-`` node."""
    caps = g.node_labels
    _check_total(caps, g.nodes, "node")
    if not _CAPABILITY_SETS.issuperset(caps.values()):
        x = next(x for x, label in caps.items() if label not in _CAPABILITY_SETS)
        raise StructuralError(f"node {x!r} has label {caps[x]!r}, not a set of capabilities")
    src, tgt = g.src, g.tgt
    if not ({n for n, c in caps.items() if "+" not in c}.isdisjoint(src.values())
            and {n for n, c in caps.items() if "-" not in c}.isdisjoint(tgt.values())):
        for e in src:  # only to word the error: the first edge that lacks support
            if "+" not in caps[src[e]]:
                raise StructuralError(f"edge {e!r} leaves node {src[e]!r} without + polarity")
            if "-" not in caps[tgt[e]]:
                raise StructuralError(f"edge {e!r} enters node {tgt[e]!r} without - polarity")


# A polarized node's label: the set of its capabilities, listed as
# ``below`` gives them: none, -, +, both.
_CAPABILITIES = {(p, m): frozenset(c for c, has in (("+", p), ("-", m)) if has)
                 for p in (False, True) for m in (False, True)}
_CAPABILITY_SETS = frozenset(_CAPABILITIES.values())


def TypedGraph(graph: Graph, typegraph: Graph, typing: Morphism) -> Graph:
    """``graph`` typed over ``typegraph`` by the two maps of ``typing``."""
    return Graph(graph.nodes, graph.src, graph.tgt, typing.nodemap, typing.edgemap, typegraph)


def PolarizedGraph(graph: Graph, nplus, nminus) -> Graph:
    """``graph`` polarized: the nodes in ``nplus`` may have outgoing edges,
    those in ``nminus`` incoming ones."""
    if not (graph.nodes.issuperset(nplus) and graph.nodes.issuperset(nminus)):
        raise StructuralError("polarity sets must be subsets of the node set")
    return Graph(graph.nodes, graph.src, graph.tgt,
                 {n: _CAPABILITIES[n in nplus, n in nminus] for n in graph.nodes})


class Morphism(_Record):
    """A pair of maps on node and edge ids between two objects.

    Construction does not validate; run :func:`validate_morphism`.  The
    engine's constructions build their arrows valid by construction.
    """

    _fields = __slots__ = ("source", "target", "nodemap", "edgemap")

    def __init__(self, source, target, nodemap: dict, edgemap: dict):
        _put(self, "source", source)
        _put(self, "target", target)
        _put(self, "nodemap", nodemap)
        _put(self, "edgemap", edgemap)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.target, self.nodemap, self.edgemap)
                    == (other.source, other.target, other.nodemap, other.edgemap))
        return NotImplemented

    __hash__ = _Record.__hash__


def derived(value, name: str, build: Callable, *args):
    """The fact ``name`` about the read-only ``value``: ``build(*args)``,
    computed on the first call and kept on ``value`` for every later one.

    The fact sits in ``value``'s instance dict, outside its fields, so it
    takes no part in equality or ``repr`` and lives and dies with
    ``value``.  ``build(*args)`` must give the same answer on every call
    that reaches it with this ``value``, and never ``None``.  A ``build``
    that raises keeps nothing, so the next call raises again.
    """
    facts = vars(value)
    fact = facts.get(name)
    if fact is None:
        fact = facts[name] = build(*args)
    return fact


class CategoryInstance(_Record):
    """One of the three settings, with the table every construction reads.

    ``kind`` is ``"gr"``, ``"typed"`` or ``"grpol"``; typed instances carry
    their ``typegraph``.  The table follows from these two and cannot be set:

    - ``leq(a, b)``: the label order; equality of types, inclusion of
      capability sets.
    - ``meet(a, b)``: the label of a pullback item whose components are
      labelled ``a`` and ``b``.
    - ``empty``: the empty object, initial in this setting; its label
      columns are those every object of the setting carries.
    - ``stars``: ``{id suffix: label}``, one star node per maximal label;
      enlargements name them ``*<suffix>``.
    - ``edge_labels_between(a, b)``: the labels an edge from a node
      labelled ``a`` to one labelled ``b`` may carry (``None`` for an
      unlabelled edge).
    - ``below(a)``: the node labels ``leq`` ``a``, in a fixed order
      (``None`` where nodes are unlabelled).

    Plain graphs carry no labels, so the constructions skip label work there.
    Facts that depend on the setting alone, such as the classifier's final
    object and the two points of its enlargement, are built on first use
    and kept on the instance (see :func:`derived`).
    """

    _fields = ("kind", "typegraph")
    _table = ("leq", "meet", "empty", "stars", "edge_labels_between", "below")
    __slots__ = _fields + _table

    def __init__(self, kind: str, typegraph: Optional[Graph] = None):
        if kind not in ("gr", "typed", "grpol"):
            raise PreconditionError(f"unknown category kind {kind!r}")
        if (kind == "typed") != (typegraph is not None):
            raise PreconditionError("typed instances need a type graph, others must not have one")
        if kind == "gr":
            table = (operator.eq, _first, Graph(frozenset(), {}, {}), {"": None},
                     lambda a, b: _UNLABELLED, lambda a: _UNLABELLED)
        elif kind == "typed":
            between = {}
            for et in sorted(typegraph.src):
                between.setdefault((typegraph.src[et], typegraph.tgt[et]), []).append(et)
            table = (operator.eq, _first, Graph(frozenset(), {}, {}, {}, {}, typegraph),
                     {f":{t}": t for t in sorted(typegraph.nodes)},
                     lambda a, b: between.get((a, b), ()),
                     lambda a: (a,))
        else:
            table = (operator.le, operator.and_, Graph(frozenset(), {}, {}, {}), {"": _CAPABILITIES[True, True]},
                     lambda a, b: _UNLABELLED if "+" in a and "-" in b else (),
                     lambda a: [caps for caps in _CAPABILITIES.values() if caps <= a])
        self._fill(kind, typegraph)
        for name, value in zip(self._table, table):
            _put(self, name, value)

    def star(self, label) -> str:
        """Id suffix of the star node that absorbs items labelled ``label``."""
        return next(s for s, top in self.stars.items() if self.leq(label, top))


_UNLABELLED = (None,)


def _first(a, b):
    return a


GR = CategoryInstance("gr")
GRPOL = CategoryInstance("grpol")


def typed_over(typegraph: Graph) -> CategoryInstance:
    """The instance of graphs typed over ``typegraph``."""
    return CategoryInstance("typed", typegraph)


def set_category() -> CategoryInstance:
    """Plain sets, encoded as graphs typed over a one-node, edge-free base."""
    return typed_over(Graph.build(["elem"]))


def belongs(obj, instance: CategoryInstance) -> bool:
    return isinstance(obj, Graph) and obj.kind == instance.kind and obj.typegraph == instance.typegraph


# How refusals name a graph of each setting.
_SETTING_NAMES = {"gr": "Graph", "typed": "TypedGraph", "grpol": "PolarizedGraph"}


def require_object(obj, instance: CategoryInstance):
    if not belongs(obj, instance):
        name = _SETTING_NAMES[obj.kind] if isinstance(obj, Graph) else type(obj).__name__
        raise PreconditionError(f"object {name} does not belong to instance {instance.kind!r}")
    return obj


def identity(obj: Graph) -> Morphism:
    return Morphism(obj, obj, {n: n for n in obj.nodes}, {e: e for e in obj.src})


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``; targets and sources must match exactly."""
    if f.target != g.source:
        raise PreconditionError("composition mismatch: target of the inner arrow differs from source of the outer")
    return Morphism(
        f.source,
        g.target,
        {x: g.nodemap[y] for x, y in f.nodemap.items()},
        {e: g.edgemap[d] for e, d in f.edgemap.items()},
    )


class MorphismReport(_Record):
    _fields = __slots__ = ("valid", "is_mono_in_M", "is_iso", "problems")

    def __init__(self, valid: bool, is_mono_in_M: bool, is_iso: bool, problems: tuple = ()):
        self._fill(valid, is_mono_in_M, is_iso, problems)


def _structural_check(f: Morphism):
    sg, tg = f.source, f.target
    for x in f.nodemap:
        if x not in sg.nodes:
            raise StructuralError(f"nodemap mentions unknown source node {x!r}")
    for y in f.nodemap.values():
        if y not in tg.nodes:
            raise StructuralError(f"nodemap targets unknown node {y!r}")
    for e in f.edgemap:
        if e not in sg.src:
            raise StructuralError(f"edgemap mentions unknown source edge {e!r}")
    for d in f.edgemap.values():
        if d not in tg.src:
            raise StructuralError(f"edgemap targets unknown edge {d!r}")


def _label_order(f: Morphism, leq) -> tuple:
    """``(preserved, below)``: whether every label equals, resp. is ``leq``
    its image's label."""
    preserved = below = True
    if f.source.node_labels is None and f.source.edge_labels is None:
        return preserved, below
    for own, theirs, image in ((f.source.node_labels, f.target.node_labels, f.nodemap),
                               (f.source.edge_labels, f.target.edge_labels, f.edgemap)):
        if own is not None:
            images = {x: theirs[image[x]] for x in own}
            if images != own:
                preserved = False
                below = below and all(leq(label, images[x]) for x, label in own.items())
    return preserved, below


def validate_morphism(f: Morphism, instance: CategoryInstance) -> MorphismReport:
    """Check the morphism obligations of ``f`` in the given instance.

    Valid means total, homomorphic and label-monotone; an admissible mono
    is also injective and label-preserving, an iso bijective and
    label-preserving.  Dangling map entries raise :class:`StructuralError`;
    a well-formed map that fails an obligation yields ``valid=False`` with
    the reasons.  The ends and the map entries are checked on every call:
    the first checks the entries in the pass that computes the report and
    keeps the report on ``f``, every later one checks them on their own
    and reads the kept report.
    """
    require_object(f.source, instance)
    require_object(f.target, instance)
    kept = vars(f).get("_report")
    if kept is not None:
        _structural_check(f)
        return kept
    # The ends pin the setting, so the report is a fact about ``f`` alone.
    return derived(f, "_report", _report, f, instance.leq)


def _report(f: Morphism, leq) -> MorphismReport:
    """The report of ``f``, computed in one pass over its map entries that
    also checks them; a dangling entry is worded by :func:`_structural_check`."""
    sg, tg = f.source, f.target
    nodemap, edgemap = f.nodemap, f.edgemap

    problems = []
    preserved = False
    node_total = nodemap.keys() == sg.nodes
    edge_total = edgemap.keys() == sg.src.keys()
    if not (node_total and edge_total):
        _structural_check(f)
        if not node_total:
            problems.append("nodemap is not total on the source nodes")
        if not edge_total:
            problems.append("edgemap is not total on the source edges")
    else:
        if not tg.nodes.issuperset(nodemap.values()):
            _structural_check(f)
        ssrc, stgt, tsrc, ttgt = sg.src, sg.tgt, tg.src, tg.tgt
        bent = None
        try:
            # No early exit: every image is looked up, so a dangling one raises.
            for e, d in edgemap.items():
                if (nodemap[ssrc[e]] != tsrc[d] or nodemap[stgt[e]] != ttgt[d]) and bent is None:
                    bent = e
        except KeyError:
            _structural_check(f)
            raise
        if bent is not None:
            problems.append(f"edge {bent!r} is not mapped homomorphically")
        preserved, below = _label_order(f, leq)
        if not below:
            problems.append("labels are not preserved")

    valid = not problems
    mono = (valid and preserved and len(set(nodemap.values())) == len(nodemap)
            and len(set(edgemap.values())) == len(edgemap))
    iso = mono and len(tg.nodes) == len(sg.nodes) and len(tg.src) == len(sg.src)
    return MorphismReport(valid, mono, iso, tuple(problems))


# -- polarity functors -------------------------------------------------------
#
# On morphisms they keep the maps: maps are read-only, and facts derived
# from a morphism are kept on the morphism, not on its maps.

def pol_forget(x):
    """Drop polarity: polarized graphs/morphisms to plain ones."""
    if isinstance(x, Morphism):
        return Morphism(pol_forget(x.source), pol_forget(x.target), x.nodemap, x.edgemap)
    if not belongs(x, GRPOL):
        raise PreconditionError("pol_forget expects a polarized graph or morphism")
    return Graph(x.nodes, x.src, x.tgt)


def pol_induce(x):
    """Give every node both capabilities; on morphisms this is strict."""
    if isinstance(x, Morphism):
        return Morphism(pol_induce(x.source), pol_induce(x.target), x.nodemap, x.edgemap)
    if not belongs(x, GR):
        raise PreconditionError("pol_induce expects a plain graph or morphism")
    return Graph(x.nodes, x.src, x.tgt, dict.fromkeys(x.nodes, _CAPABILITIES[True, True]))


def pol_minimal(x):
    """The least polarity supporting the edges: + where an edge leaves, - where one enters."""
    if isinstance(x, Morphism):
        return Morphism(pol_minimal(x.source), pol_minimal(x.target), x.nodemap, x.edgemap)
    if not belongs(x, GR):
        raise PreconditionError("pol_minimal expects a plain graph or morphism")
    return PolarizedGraph(x, frozenset(x.src.values()), frozenset(x.tgt.values()))
