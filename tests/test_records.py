"""The engine's records: plain immutable classes over a ``_fields`` tuple.

Equality holds only within a class, a record hashes when its fields do,
``repr`` is the ``Name(field=value, ...)`` text, fields cannot be assigned
or deleted, and importing the engine loads no code-generating module.
"""

import copy
import pickle
import weakref

import pytest

from agree import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    MorphismReport,
    PolarizedGraph,
    identity,
    typed_over,
)
from agree.catops import Pullback, Pushout
from agree.classifier import Characteristic, ClassifiedObject
from agree.core import derived
from agree.laws import LawReport
from agree.rewrite import Fpbc, FpbcReport, RewriteTrace, Rule

from test_determinism import _fresh_python

A = Graph.build(["a"])
F = identity(A)
EMPTY = Graph(frozenset(), {}, {})
ZERO = Morphism(EMPTY, EMPTY, {}, {})

A_TEXT = "Graph(nodes=frozenset({'a'}), src={}, tgt={}, node_labels=None, edge_labels=None, typegraph=None)"
F_TEXT = f"Morphism(source={A_TEXT}, target={A_TEXT}, nodemap={{'a': 'a'}}, edgemap={{}})"
EMPTY_TEXT = "Graph(nodes=frozenset(), src={}, tgt={}, node_labels=None, edge_labels=None, typegraph=None)"
ZERO_TEXT = f"Morphism(source={EMPTY_TEXT}, target={EMPTY_TEXT}, nodemap={{}}, edgemap={{}})"
T_TEXT = "Graph(nodes=frozenset({'t'}), src={}, tgt={}, node_labels=None, edge_labels=None, typegraph=None)"
AGREE_TEXT = f"Rule(l={ZERO_TEXT}, r={ZERO_TEXT}, t={ZERO_TEXT}, mode='AGREE', nplus=None, nminus=None)"

# Each record, built small, with the text its repr must give.
REPRS = {
    "graph": (Graph.build(["a"], {"e": ("a", "a")}),
              "Graph(nodes=frozenset({'a'}), src={'e': 'a'}, tgt={'e': 'a'}, "
              "node_labels=None, edge_labels=None, typegraph=None)"),
    "typed graph": (Graph(frozenset(["a"]), {}, {}, {"a": "t"}, {}, Graph.build(["t"])),
                    f"Graph(nodes=frozenset({{'a'}}), src={{}}, tgt={{}}, node_labels={{'a': 't'}}, "
                    f"edge_labels={{}}, typegraph={T_TEXT})"),
    "polarized graph": (PolarizedGraph(A, ["a"], []),
                        "Graph(nodes=frozenset({'a'}), src={}, tgt={}, "
                        "node_labels={'a': frozenset({'+'})}, edge_labels=None, typegraph=None)"),
    "morphism": (F, F_TEXT),
    "plain instance": (GR, "CategoryInstance(kind='gr', typegraph=None)"),
    "polarized instance": (GRPOL, "CategoryInstance(kind='grpol', typegraph=None)"),
    "typed instance": (typed_over(Graph.build(["t"])), f"CategoryInstance(kind='typed', typegraph={T_TEXT})"),
    "morphism report": (MorphismReport(True, False, False),
                        "MorphismReport(valid=True, is_mono_in_M=False, is_iso=False, problems=())"),
    "pullback": (Pullback(A, F, F, F, F), f"Pullback(apex={A_TEXT}, p1={F_TEXT}, p2={F_TEXT}, f={F_TEXT}, g={F_TEXT})"),
    "pushout": (Pushout(A, F, F), f"Pushout(result={A_TEXT}, h={F_TEXT}, p={F_TEXT})"),
    "classified object": (ClassifiedObject(A, F), f"ClassifiedObject(total={A_TEXT}, unit={F_TEXT})"),
    "characteristic": (Characteristic(F, F, F), f"Characteristic(chi={F_TEXT}, true_pt={F_TEXT}, false_pt={F_TEXT})"),
    "rule": (Rule(F, F, F, "PSQPO", frozenset(["a"]), frozenset()),
             f"Rule(l={F_TEXT}, r={F_TEXT}, t={F_TEXT}, mode='PSQPO', nplus=frozenset({{'a'}}), nminus=frozenset())"),
    "trace": (RewriteTrace(Rule(ZERO, ZERO, ZERO, "AGREE"), ZERO, ZERO, ZERO, EMPTY, ZERO, ZERO, ZERO, EMPTY, ZERO, ZERO),
              f"RewriteTrace(rule={AGREE_TEXT}, match={ZERO_TEXT}, l_prime={ZERO_TEXT}, m_bar={ZERO_TEXT}, "
              f"context={EMPTY_TEXT}, g={ZERO_TEXT}, n_prime={ZERO_TEXT}, n={ZERO_TEXT}, result={EMPTY_TEXT}, "
              f"h={ZERO_TEXT}, p={ZERO_TEXT})"),
    "fpbc": (Fpbc(F, F), f"Fpbc(n={F_TEXT}, a={F_TEXT})"),
    "fpbc report": (FpbcReport(False, (1, 2), 3, {"reason": "no factoring arrow"}),
                    "FpbcReport(ok=False, bound=(1, 2), cones_checked=3, counterexample={'reason': 'no factoring arrow'})"),
    "law report": (LawReport("LOCALITY", "gr", 10, True, 0, None, 0, (4, 5)),
                   "LawReport(law='LOCALITY', instance='gr', count=10, passed=True, failures=0, "
                   "first_counterexample=None, seed=0, size_bound=(4, 5))"),
}


@pytest.mark.parametrize("case", sorted(REPRS))
def test_repr_lists_the_fields_by_name(case):
    record, text = REPRS[case]
    assert repr(record) == text


@pytest.mark.parametrize("case", sorted(REPRS))
def test_fields_cannot_be_assigned_or_deleted(case):
    record, text = REPRS[case]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


@pytest.mark.parametrize("case", sorted(REPRS))
def test_copies_and_pickles_are_equal_records(case):
    record, text = REPRS[case]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == text
        assert twin == record
    assert weakref.ref(record)() is record


def test_equality_holds_only_within_a_class():
    assert Fpbc(F, F) == Fpbc(F, identity(Graph.build(["a"])))
    assert Fpbc(F, F) != ClassifiedObject(F, F)
    assert Pushout(A, F, F) != Characteristic(A, F, F)
    assert Morphism(A, A, {"a": "a"}, {}) == F
    assert F != (A, A, {"a": "a"}, {})
    assert A != Graph.build(["b"])
    assert Graph.__eq__(A, A._values()) is NotImplemented
    assert Morphism.__eq__(F, Fpbc(F, F)) is NotImplemented
    assert Rule.__eq__(Rule(F, F, F, "AGREE"), F) is NotImplemented


def test_kept_facts_take_no_part_in_equality_or_repr():
    g = Graph.build(["a"])
    derived(g, "_fact", lambda: "kept")
    assert vars(g)["_fact"] == "kept"
    assert g == A and repr(g) == A_TEXT
    assert GR == CategoryInstance("gr") and repr(GR) == "CategoryInstance(kind='gr', typegraph=None)"


def test_a_record_hashes_when_its_fields_do():
    with pytest.raises(TypeError):
        hash(Graph.build(["a"]))
    with pytest.raises(TypeError):
        hash(F)
    with pytest.raises(TypeError):
        hash(typed_over(Graph.build(["t"])))
    assert hash(GR) == hash(CategoryInstance("gr"))
    assert hash(GRPOL) == hash(CategoryInstance("grpol"))
    assert len({GR, GRPOL, CategoryInstance("gr")}) == 2
    assert hash(MorphismReport(True, True, False)) == hash(MorphismReport(True, True, False, ()))
    assert hash(LawReport("L", "gr", 1, True, 0, None, 0, (1, 2))) == hash(LawReport("L", "gr", 1, True, 0, None, 0, (1, 2)))


def test_positional_and_keyword_construction_with_defaults():
    assert Graph(nodes=frozenset(["a"]), src={}, tgt={}) == A
    assert Graph(frozenset(["a"]), {}, {}, None, None, None) == A
    assert Morphism(source=A, target=A, nodemap={"a": "a"}, edgemap={}) == F
    assert CategoryInstance(kind="gr") == GR == CategoryInstance("gr", None)
    assert MorphismReport(True, False, False).problems == ()
    assert MorphismReport(valid=True, is_mono_in_M=True, is_iso=True, problems=("x",)).problems == ("x",)
    rule = Rule(l=F, r=F, t=F, mode="AGREE")
    assert (rule.nplus, rule.nminus) == (None, None) and rule == Rule(F, F, F, "AGREE", None, None)
    assert FpbcReport(True, (1, 1), 0).counterexample is None
    assert FpbcReport(ok=True, bound=(1, 1), cones_checked=0) == FpbcReport(True, (1, 1), 0, None)
    assert Fpbc(n=F, a=F).context == A
    with pytest.raises(TypeError):
        Morphism(A, A, {"a": "a"})
    with pytest.raises(TypeError):
        Graph(frozenset(), {}, {}, colour=None)


def test_importing_the_engine_loads_no_code_generation():
    loaded = _fresh_python(
        "import json, sys, agree.cli, agree.laws; "
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)))")
    assert loaded == []
