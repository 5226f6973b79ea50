"""Command line interface.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
parse error, 3 search bound exceeded, 4 validation or verification failure.
Words on the command line are whitespace-tokenized, never character-split.
The ``--porcelain`` flag switches to stable line-oriented ``key value``
output for scripting; the exit code and porcelain verdict always agree.
"""

from __future__ import annotations

import argparse
import sys

from .automata import AutomatonError, accepts, validate
from .formats import ParseError, load_automaton, load_structure, write_structure
from .gastructure import SearchBoundExceeded, StructureError, verify
from .groups import ExprError, oracle_from_expr, structure_from_expr
from .langops import LangOpError
from .shortlex import (
    OrderedAlphabet,
    SearchCapExceeded,
    ShortlexError,
    geodesic_normal_form,
)

OK, NO, USAGE, BOUND, INVALID = 0, 1, 2, 3, 4
# errors of a malformed word or structure; a manifest's multiplier files are
# read when a command first uses them, so these can come from any command
_USAGE_ERRORS = (ParseError, OSError, StructureError)


class _Exit(Exception):
    """Ends a command with ``code``; a None message: already reported."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _tokens(text):
    """Whitespace-separated tokens; a lone EPS is the empty word, as printed."""
    tokens = tuple(text.split())
    return () if tokens == ("EPS",) else tokens


def _emit(args, porcelain_line, human_line):
    print(porcelain_line if args.porcelain else human_line)


def _load_ref(args):
    try:
        if args.group is not None:
            return structure_from_expr(args.group)
        return load_structure(args.structure)
    except (ExprError, LangOpError, *_USAGE_ERRORS) as exc:
        raise _Exit(USAGE, str(exc))


def _searched(args, compute):
    """compute() for nf, wp and eq: an exceeded search bound is reported as
    bound-exceeded with exit 3, a malformed word or structure exits 2."""
    try:
        return compute()
    except SearchBoundExceeded as exc:
        _emit(args, f"bound-exceeded {exc.bound}", str(exc))
        raise _Exit(BOUND, None)
    except _USAGE_ERRORS as exc:
        raise _Exit(USAGE, str(exc))


def _oracle_for(args, structure):
    spec = args.oracle
    if spec is None:
        if args.group is not None:
            spec = args.group
        else:
            raise _Exit(USAGE, "--structure verification needs --oracle")
    try:
        return oracle_from_expr(spec, structure)
    except ExprError as exc:
        raise _Exit(USAGE, str(exc))


def cmd_accept(args):
    try:
        machine = load_automaton(args.automaton)
    except (ParseError, OSError) as exc:
        raise _Exit(USAGE, str(exc))
    report = validate(machine)
    if not report.ok:
        raise _Exit(INVALID, "; ".join(report.errors))
    try:
        verdict = accepts(machine, _tokens(args.word))
    except AutomatonError as exc:
        raise _Exit(USAGE, str(exc))
    _emit(args, f"accepted {'true' if verdict else 'false'}",
          "accepted" if verdict else "rejected")
    return OK if verdict else NO


def cmd_nf(args):
    if args.trace and args.algo != "graph":
        raise _Exit(USAGE, "--trace needs --algo graph")
    structure = _load_ref(args)
    result = _searched(args, lambda: structure.normal_form(
        _tokens(args.word), algo=args.algo, with_trace=args.trace))
    nf, trace = result if args.trace else (result, None)
    rendered = " ".join(nf) if nf else "EPS"
    _emit(args, f"normal-form {rendered}", rendered)
    if trace is not None:
        for step in trace.steps:
            _emit(args,
                  f"step {step.generator} levels {step.levels} "
                  f"max_s {step.max_s} max_t {step.max_t} "
                  f"pruned {step.pruned} "
                  f"D {step.machine_states} E {step.machine_degree} "
                  f"F {step.machine_growth} K {step.machine_eps_bound} "
                  f"k {step.machine_counters}",
                  f"# step {step.generator}: levels={step.levels} "
                  f"max|S_j|={step.max_s} max|T_j|={step.max_t} "
                  f"pruned={step.pruned} "
                  f"D={step.machine_states} E={step.machine_degree} "
                  f"F={step.machine_growth} K={step.machine_eps_bound} "
                  f"k={step.machine_counters}")
            if args.porcelain:
                # the paper's bound on |S_j|: 2*D*(2*F*j + 1)**k
                for j, size, edges, cmax in step.per_level:
                    bound = 2 * step.machine_states * (
                        2 * step.machine_growth * j + 1) ** step.machine_counters
                    print(f"level {j} S {size} T {edges} c {cmax} bound {bound}")
    return OK


def cmd_wp(args):
    structure = _load_ref(args)
    trivial = _searched(args, lambda: structure.word_problem(_tokens(args.word)))
    _emit(args, f"trivial {'true' if trivial else 'false'}",
          "trivial" if trivial else "nontrivial")
    return OK if trivial else NO


def cmd_eq(args):
    structure = _load_ref(args)
    equal = _searched(args, lambda: structure.are_equal(
        _tokens(args.word1), _tokens(args.word2)))
    _emit(args, f"equal {'true' if equal else 'false'}",
          "equal" if equal else "distinct")
    return OK if equal else NO


def cmd_verify(args):
    structure = _load_ref(args)
    oracle = _oracle_for(args, structure)
    try:
        report = verify(structure, args.radius, oracle)
    except _USAGE_ERRORS as exc:
        raise _Exit(USAGE, str(exc))
    failures = sorted(report.failures, key=lambda f: (f.witness, f.kind))
    if args.porcelain:
        print(f"failures {len(failures)}")
        print(f"words {report.words_checked}")
        print(f"elements {report.elements}")
        for f in failures:
            print(f"witness {f.kind} {' '.join(f.witness) or 'EPS'}")
    else:
        print(f"checked {report.words_checked} words, "
              f"{report.elements} elements at radius {args.radius}")
        for f in failures:
            print(f"FAIL {f.kind}: {' '.join(f.witness) or 'EPS'} ({f.detail})")
        print("verification " + ("passed" if report.ok else "FAILED"))
    return OK if report.ok else INVALID


def cmd_build(args):
    try:
        structure = structure_from_expr(args.expr)
        write_structure(structure, args.out)
    except (ExprError, LangOpError, OSError) as exc:
        raise _Exit(USAGE, str(exc))
    except StructureError as exc:
        raise _Exit(INVALID, str(exc))
    _emit(args, f"written {args.out}", f"wrote {structure.name} to {args.out}")
    return OK


def cmd_shortlex_nf(args):
    if args.max_len < 0:
        raise _Exit(USAGE, f"--max-len must be non-negative, got {args.max_len}")
    try:
        oracle = oracle_from_expr(args.oracle)
        order = OrderedAlphabet(tuple(oracle.generators.tokens()))
    except (ExprError, StructureError) as exc:
        raise _Exit(USAGE, str(exc))
    word = _tokens(args.word)
    for tok in word:
        if tok not in oracle.generators:
            raise _Exit(USAGE, f"unknown generator {tok!r} of {oracle.name}")
    try:
        nf = geodesic_normal_form(oracle, order, word, max_len=args.max_len)
    except SearchCapExceeded:
        _emit(args, f"cap-exceeded {args.max_len}",
              f"no representative within length {args.max_len}")
        return BOUND
    except ShortlexError as exc:
        raise _Exit(USAGE, str(exc))
    rendered = " ".join(nf) if nf else "EPS"
    _emit(args, f"normal-form {rendered}", rendered)
    return OK


def _add_structure_ref(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--group", help="builtin or combinator expression")
    group.add_argument("--structure", help="manifest directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ga",
        description="counter-automaton graph-automatic group toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("accept", help="run an automaton file on a word")
    p.add_argument("automaton")
    p.add_argument("word")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_accept)

    p = sub.add_parser("nf", help="compute a normal form")
    _add_structure_ref(p)
    p.add_argument("word")
    p.add_argument("--algo", choices=("graph", "enum"), default="graph")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("wp", help="word problem: is the word trivial?")
    _add_structure_ref(p)
    p.add_argument("word")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("eq", help="do two words represent the same element?")
    _add_structure_ref(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("verify", help="sweep a generator ball against an oracle")
    _add_structure_ref(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--oracle", help="oracle expression (default: the --group one)")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="write a combinator expression to disk")
    p.add_argument("expr")
    p.add_argument("--out", required=True)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("shortlex-nf", help="oracle-driven shortlex geodesic")
    p.add_argument("word")
    p.add_argument("--oracle", required=True)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cmd_shortlex_nf)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        if exc.message is not None:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
