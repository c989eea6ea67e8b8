"""Command-line entry point.

Exit codes: 0 success, 1 input/validation error, 2 check/law failure,
3 no match found.  Diagnostics go to standard error; results to standard
output or the requested files, always in canonical form.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from . import io as docio
from .catops import enumerate_monos
from .classifier import t_object
from .core import GR, GRPOL, typed_over, validate_morphism
from .errors import DocumentError, GraphError
from .laws import LAW_IDS, LAWS, default_instance, run_law
from .rewrite import (
    _strict_complement,
    agree_step,
    enumerate_matches,
    fpbc,
    fpbc_verify,
    is_local_rule,
)

# The settings `agree laws` sweeps each law in when no --law is given: those
# of its `LAWS` entry, but FPBC_FINAL not over polarized graphs, where its
# finality checks take seconds per seed.
_LAW_CATEGORIES = {law: tuple(kind for kind in settings if (law, kind) != ("FPBC_FINAL", "grpol"))
                   for law, (_, _, settings) in LAWS.items()}


def _load(path):
    """The JSON value in the file ``path``.  Text that is not JSON, not
    UTF-8, nested deeper than ``json`` reads or holding an integer longer
    than it converts, is refused with the file named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError([(path, f"not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}")]) from None
        except UnicodeDecodeError as exc:
            raise DocumentError([(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}")]) from None
        except ValueError:  # after its subclasses: raised for an integer too long to convert
            raise DocumentError([(path, "an integer literal has more digits than can be read")]) from None
        except RecursionError:
            raise DocumentError([(path, "JSON nested too deeply to read")]) from None


def _emit(text, path=None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _typegraph(path):
    """The type graph in the file ``path``, or ``None`` without a path."""
    if not path:
        return None
    return docio._parse_unpolarized(_load(path))


def _instance(obj, typegraph):
    """The setting of a parsed graph object: typed over ``typegraph`` if
    there is one, else polarized or plain as the parser chose."""
    if typegraph is not None:
        return typed_over(typegraph)
    return GRPOL if obj.kind == "grpol" else GR


def _rule_and_graph(args):
    rule, instance = docio.parse_rule(_load(args.rule))
    return rule, docio._parse_unpolarized(_load(args.graph), instance.typegraph), instance


def cmd_matches(args) -> int:
    rule, host, instance = _rule_and_graph(args)
    matches = enumerate_matches(rule.lhs, host, instance)
    _emit(docio.dumps(matches))
    return 0


def _pick_match(args, rule, host, instance):
    if args.match:
        m = docio.parse_morphism(_load(args.match), source=rule.lhs, target=host)
        if not validate_morphism(m, instance).is_mono_in_M:
            raise DocumentError([(args.match, "the given match is not an admissible mono")])
        return m
    index = args.match_index if args.match_index is not None else 0
    if not 0 <= index <= sys.maxsize:  # no host has more matches than islice can skip
        return None
    # Matches come in a fixed order, so the search stops at the one asked for.
    return next(islice(enumerate_monos(rule.lhs, host, instance), index, None), None)


def cmd_apply(args) -> int:
    rule, host, instance = _rule_and_graph(args)
    m = _pick_match(args, rule, host, instance)
    if m is None:
        print("no match found", file=sys.stderr)
        return 3
    trace = agree_step(rule, m, instance)
    _emit(docio.dumps(trace.result), args.out)
    if args.trace:
        _emit(docio.dumps(docio.trace_doc(trace)), args.trace)
    if args.dot:
        _emit(docio.export_dot(trace), args.dot)
    return 0


def cmd_classifier(args) -> int:
    gdoc = _load(args.graph)
    tg = _typegraph(args.typegraph)
    obj = docio.parse_graph(gdoc, tg)
    cls = t_object(obj, _instance(obj, tg))
    _emit(docio.dumps({"total": cls.total, "unit": cls.unit}))
    return 0


def cmd_fpbc(args) -> int:
    ldoc = _load(args.l)
    mdoc = _load(args.m)
    tg = _typegraph(args.typegraph)
    l = docio.parse_morphism(ldoc, typegraph=tg)
    m = docio.parse_morphism(mdoc, source=l.target, target=None, typegraph=tg)
    instance = _instance(l.target, tg)
    problems = validate_morphism(l, instance).problems
    if problems:
        raise DocumentError([(args.l, f"not a valid arrow: {problem}") for problem in problems])
    if not validate_morphism(m, instance).is_mono_in_M:
        raise DocumentError([(args.m, "not an admissible mono")])
    result = fpbc(l, m, instance)
    # Verify first, so that a bound the oracle refuses leaves no output behind.
    report = fpbc_verify(l, m, result.n, result.a, instance, size_bound=args.bound) if args.verify else None
    _emit(docio.dumps({
        "D": result.context,
        "n": result.n,
        "a": result.a,
    }))
    if report is not None:
        print(f"finality: {'ok' if report.ok else 'FAILED'} "
              f"(bound={report.bound}, cones={report.cones_checked})", file=sys.stderr)
        if not report.ok:
            print(docio.dumps(report.counterexample), file=sys.stderr)
            return 2
    return 0


def cmd_check_rule(args) -> int:
    rule, instance = docio.parse_rule(_load(args.rule))
    in_m = validate_morphism(rule.t, instance).is_mono_in_M
    local = is_local_rule(rule, instance)
    print(f"mode: {rule.mode}")
    print(f"embedding-in-M: {str(in_m).lower()}")
    print(f"local: {str(local).lower()}")
    return 0


def cmd_complement(args) -> int:
    mdoc = _load(args.m)
    tg = _typegraph(args.typegraph)
    m = docio.parse_morphism(mdoc, typegraph=tg)
    instance = _instance(m.target, tg)
    if not validate_morphism(m, instance).is_mono_in_M:
        raise DocumentError([(args.m, "strict complements are taken of admissible monos")])
    comp, incl = _strict_complement(m, instance)
    _emit(docio.dumps({"complement": comp, "inclusion": incl}))
    return 0


def cmd_laws(args) -> int:
    instance = default_instance(args.category)
    ids = [args.law] if args.law else [law for law, kinds in _LAW_CATEGORIES.items() if instance.kind in kinds]
    bound = (args.bound, args.bound + 1)
    failed = False
    for law in ids:
        report = run_law(law, seed=args.seed, size_bound=bound, instance=instance)
        status = "PASS" if report.passed else "FAIL"
        print(f"{law} [{report.instance}]: {status} "
              f"(instances={report.count}, seed={report.seed}, bound={report.size_bound})")
        if not report.passed:
            failed = True
            print(docio.dumps(report.first_counterexample), file=sys.stderr)
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agree",
        description="Graph rewriting with controlled embedding: apply rules, "
                    "inspect classifiers and complements, verify the law suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matches", help="list all admissible matches of a rule in a graph")
    p.add_argument("--rule", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_matches)

    p = sub.add_parser("apply", help="apply a rule at a match")
    p.add_argument("--rule", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--match", help="morphism document for the match")
    p.add_argument("--match-index", type=int, default=None,
                   help="index into the deterministic match enumeration (default 0)")
    p.add_argument("--out", help="write the result graph here instead of stdout")
    p.add_argument("--trace", help="write the full step trace here")
    p.add_argument("--dot", help="write a DOT rendering of the trace here")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("classifier", help="emit the enlargement T(G) and its unit")
    p.add_argument("--graph", required=True)
    p.add_argument("--typegraph")
    p.set_defaults(func=cmd_classifier)

    p = sub.add_parser("fpbc", help="final pullback complement of l and m")
    p.add_argument("--l", required=True, help="arrow document K -> L with embedded graphs")
    p.add_argument("--m", required=True, help="arrow document L -> G with embedded target")
    p.add_argument("--typegraph")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_fpbc)

    p = sub.add_parser("check-rule", help="report a rule's mode, embedding and locality")
    p.add_argument("--rule", required=True)
    p.set_defaults(func=cmd_check_rule)

    p = sub.add_parser("complement", help="strict complement of a mono")
    p.add_argument("--m", required=True, help="arrow document with embedded graphs")
    p.add_argument("--typegraph")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("laws", help="run the law suite")
    p.add_argument("--law", choices=LAW_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=4, help="node bound; edge bound is one more")
    p.add_argument("--category", choices=("gr", "typed", "pol"), default="gr")
    p.set_defaults(func=cmd_laws)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        for path, msg in exc.errors:
            print(f"error: {path}: {msg}", file=sys.stderr)
        return 1
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
