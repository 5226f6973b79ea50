"""Textual file formats: automaton definitions and structure manifests.

Automaton format, one directive per line, '#'-prefixed comment lines ignored,
tokens whitespace-separated::

    automaton <name>
    alphabet <tok> <tok> ...
    counters <k>
    blind <true|false>
    states <s> <s> ...
    start <s>
    accept <s> <s> ...
    trans <src> <label|EPS> <program> <dst>

Programs are semicolon-separated steps, each a comma-separated k-vector over
``+c -c =0 !0 Z .``; the empty program is ``-`` (or all-noop steps).  Parsing
is bit-exact: unknown tokens are errors.  A written ``blind`` line is computed
from the transitions (no ``=0``, ``!0`` or ``Z``); a parsed ``blind true`` is
a claim that ``validate`` checks.
"""

from __future__ import annotations

import os

from .automata import (
    EPSILON,
    EMPTY_PROGRAM,
    INC,
    NO_OP,
    SETZ,
    TEST0,
    TESTN0,
    AutomatonError,
    CounterAutomaton,
    Transition,
    dec,
    inc,
)
from .gastructure import (
    FamilySpec,
    GeneratorSet,
    GraphAutomaticStructure,
    GrowthPolicy,
    StructureError,
)
from .shortlex import ShortlexError


class ParseError(Exception):
    def __init__(self, message, line=None, path=None):
        where = ""
        if path:
            where += f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)
        self.line = line
        self.path = path


def _natural(text):
    """The value of a plain decimal numeral, None for anything else."""
    return int(text) if text.isascii() and text.isdigit() else None


def _read_text(path):
    """A file's UTF-8 text; other bytes are a ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=path)


def _directive_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


# program entries other than +c / -c, and their inverse for writing
_PROGRAM_ENTRIES = {".": NO_OP, "=0": TEST0, "!0": TESTN0, "Z": SETZ}
_ENTRY_TEXT = {instr.kind: text for text, instr in _PROGRAM_ENTRIES.items()}


def parse_program(text, counters, lineno=None, path=None):
    if text == "-":
        return EMPTY_PROGRAM
    steps = []
    for step_text in text.split(";"):
        entries = step_text.split(",")
        if len(entries) != counters:
            raise ParseError(
                f"program step {step_text!r} has {len(entries)} entries, "
                f"expected {counters}", line=lineno, path=path)
        step = []
        for entry in entries:
            entry = entry.strip()
            if entry in _PROGRAM_ENTRIES:
                step.append(_PROGRAM_ENTRIES[entry])
            elif entry[:1] == "+" and _natural(entry[1:]):
                step.append(inc(int(entry[1:])))
            elif entry[:1] == "-" and _natural(entry[1:]):
                step.append(dec(int(entry[1:])))
            else:
                raise ParseError(f"unknown program token {entry!r}",
                                 line=lineno, path=path)
        steps.append(tuple(step))
    if all(instr is NO_OP for step in steps for instr in step):
        return EMPTY_PROGRAM
    return tuple(steps)


def format_program(program):
    if not program:
        return "-"
    parts = []
    for step in program:
        entries = []
        for instr in step:
            entries.append(_ENTRY_TEXT.get(instr.kind) or
                           f"{'+' if instr.kind == INC else '-'}{instr.amount}")
        parts.append(",".join(entries))
    return ";".join(parts)


def parse_automaton(text, path=None) -> CounterAutomaton:
    name = None
    alphabet = []
    counters = None
    blind = False
    states = []
    start = None
    accepts = []
    raw_transitions = []
    seen = set()

    for lineno, words in _directive_lines(text):
        directive, args = words[0], words[1:]
        if directive == "automaton":
            if len(args) != 1:
                raise ParseError("automaton needs one name", lineno, path=path)
            name = args[0]
        elif directive == "alphabet":
            alphabet.extend(args)
        elif directive == "counters":
            counters = _natural(args[0]) if len(args) == 1 else None
            if counters is None:
                raise ParseError("counters needs one integer", lineno, path=path)
        elif directive == "blind":
            if args not in (["true"], ["false"]):
                raise ParseError("blind must be true or false", lineno, path=path)
            blind = args == ["true"]
        elif directive == "states":
            states.extend(args)
        elif directive == "start":
            if len(args) != 1:
                raise ParseError("start needs one state", lineno, path=path)
            start = args[0]
        elif directive == "accept":
            accepts.extend(args)
        elif directive == "trans":
            if len(args) < 4:
                raise ParseError("trans needs src label program dst",
                                 lineno, path=path)
            raw_transitions.append((lineno, args))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, path=path)
        if directive in ("automaton", "counters", "start", "blind"):
            if directive in seen:
                raise ParseError(f"duplicate {directive} directive",
                                 lineno, path=path)
            seen.add(directive)

    if name is None or counters is None or start is None:
        raise ParseError("missing automaton, counters or start directive",
                         path=path)
    alphabet_set = set(alphabet)
    state_set = set(states)
    transitions = []
    programs = {}  # program text -> parsed program; big files repeat few
    for lineno, args in raw_transitions:
        src, label, dst = args[0], args[1], args[-1]
        program_text = "".join(args[2:-1])
        if src not in state_set:
            raise ParseError(f"dangling state {src!r}", lineno, path=path)
        if dst not in state_set:
            raise ParseError(f"dangling state {dst!r}", lineno, path=path)
        if label == "EPS":
            label = EPSILON
        elif label not in alphabet_set:
            raise ParseError(f"label {label!r} not in alphabet", lineno, path=path)
        program = programs.get(program_text)
        if program is None:
            program = programs[program_text] = parse_program(
                program_text, counters, lineno, path)
        transitions.append(Transition(src, label, program, dst))
    for s in [start] + accepts:
        if s not in state_set:
            raise ParseError(f"dangling state {s!r}", path=path)
    return CounterAutomaton(name, alphabet, counters, states, start, accepts,
                            transitions, blind=blind)


def format_automaton(machine: CounterAutomaton) -> str:
    lines = [f"automaton {machine.name}"]
    for chunk in _chunks(machine.alphabet, 16):
        lines.append("alphabet " + " ".join(chunk))
    lines.append(f"counters {machine.counters}")
    lines.append(f"blind {'true' if machine.blind else 'false'}")
    for chunk in _chunks(machine.states, 16):
        lines.append("states " + " ".join(chunk))
    lines.append(f"start {machine.start}")
    for chunk in _chunks(sorted(machine.accepts), 16):
        lines.append("accept " + " ".join(chunk))
    programs = {}  # id(program) -> its text; transitions share programs
    for t in machine.transitions:
        label = "EPS" if t.label is EPSILON else t.label
        text = programs.get(id(t.program))
        if text is None:
            text = programs[id(t.program)] = format_program(t.program)
        lines.append(f"trans {t.src} {label} {text} {t.dst}")
    return "\n".join(lines) + "\n"


def load_automaton(path) -> CounterAutomaton:
    return parse_automaton(_read_text(path), path=str(path))


def _chunks(items, size):
    items = list(items)
    if not items:
        return
    for i in range(0, len(items), size):
        yield items[i:i + size]


# ---------------------------------------------------------------------------
# structure manifests


MANIFEST_NAME = "structure.txt"
# manifest directives with a fixed argument count
_MANIFEST_ARITY = {"structure": 1, "nf": 1, "mult": 2, "quasigeodesic-C": 1,
                   "growth": 2}


def _parse_word(args):
    if args == ["EPS"]:
        return ()
    return tuple(args)


def _format_word(word):
    return " ".join(word) if word else "EPS"


def parse_generators_line(args, lineno=None, path=None):
    tokens = []
    family = None
    if "|" in args:
        split = args.index("|")
        tokens = args[:split]
        fam = args[split + 1:]
        if len(fam) != 3 or fam[0] != "family" or fam[2] != "INT":
            raise ParseError("family clause must be: | family <base> INT",
                             lineno, path=path)
        family = FamilySpec(fam[1])
    else:
        tokens = args
    pairs = []
    seen = set()
    for tok in tokens:
        if tok in seen:
            continue
        if tok.endswith("-") and tok[:-1] in tokens:
            continue  # handled with its positive partner
        inv = tok + "-"
        if inv not in tokens:
            raise ParseError(f"generator {tok!r} has no inverse token",
                             lineno, path=path)
        seen.update((tok, inv))
        pairs.append((tok, inv))
    return pairs, family


def load_structure(directory) -> GraphAutomaticStructure:
    """The structure of a manifest directory.  Every directive is checked and
    nf.aut parsed now; each multiplier file must exist, but is read only
    when the structure first uses its generator."""
    path = os.path.join(directory, MANIFEST_NAME)
    text = _read_text(path)

    name = None
    symbols = None
    pairs = []
    family = None
    nf = None
    multipliers = {}
    seed_p = ()
    seed_q = ()
    quasi = None
    growth = GrowthPolicy(1, 4)
    order = None

    for lineno, words in _directive_lines(text):
        directive, args = words[0], words[1:]
        arity = _MANIFEST_ARITY.get(directive)
        if arity is not None and len(args) != arity:
            raise ParseError(f"{directive} takes {arity} argument(s)",
                             lineno, path=path)
        if directive in ("quasigeodesic-C", "growth") and args != ["none"] \
                and None in map(_natural, args):
            raise ParseError(f"{directive} needs integers", lineno, path=path)
        if directive == "structure":
            name = args[0]
        elif directive == "lambda":
            symbols = (symbols or ()) + tuple(args)
        elif directive == "generators":
            pairs, family = parse_generators_line(args, lineno, path)
        elif directive == "nf":
            nf = _machine_loader(os.path.join(directory, args[0]))()
        elif directive == "mult":
            mult_path = os.path.join(directory, args[1])
            if not os.path.isfile(mult_path):
                raise ParseError(f"no multiplier file {mult_path}", lineno,
                                 path=path)
            multipliers[args[0]] = _machine_loader(mult_path)
        elif directive == "lmult":
            pass  # left multipliers are not used; the file is not read
        elif directive == "seed-p":
            seed_p = _parse_word(args)
        elif directive == "seed-q":
            seed_q = _parse_word(args)
        elif directive == "quasigeodesic-C":
            quasi = None if args == ["none"] else int(args[0])
        elif directive == "growth":
            try:
                growth = GrowthPolicy(*map(int, args))
            except StructureError as exc:
                raise ParseError(str(exc), lineno, path=path)
        elif directive == "order":
            order = (order or ()) + tuple(args)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, path=path)

    if name is None or symbols is None or nf is None:
        raise ParseError("manifest must give structure, lambda and nf", path=path)
    try:
        return GraphAutomaticStructure(
            name, symbols, GeneratorSet(pairs, family), nf, multipliers,
            seed_p=seed_p, seed_q=seed_q, quasigeodesic_c=quasi, growth=growth,
            order=order)
    except (AutomatonError, ShortlexError, StructureError) as exc:
        # tokens outside an alphabet, repeated order letters, seed words
        # outside L, multipliers of unknown generators, symbols that L does
        # not read or that no pair letter can hold
        raise ParseError(str(exc), path=path)


def _machine_loader(path):
    """Reads a structure's machine file when called, as a multiplier's is
    when the structure first needs it; a file that cannot be read, or whose
    machine has an epsilon cycle (not quasi-realtime, so an epsilon closure
    need not end), is a ParseError naming it, and the loader's ``path`` lets
    the structure name it too."""

    def load():
        try:
            machine = load_automaton(path)
        except OSError as exc:
            raise ParseError(exc.strerror or str(exc), path=path) from exc
        if machine.epsilon_bound() is None:
            raise ParseError("epsilon cycle: the machine is not quasi-realtime",
                             path=path)
        return machine

    load.path = path
    return load


def _safe_filename(token):
    return "".join(ch if ch.isalnum() or ch in "._-" else f"&{ord(ch)}&"
                   for ch in token)


def write_structure(structure: GraphAutomaticStructure, directory):
    os.makedirs(directory, exist_ok=True)
    lines = [f"structure {structure.name}"]
    for chunk in _chunks(structure.symbols, 16):
        lines.append("lambda " + " ".join(chunk))
    gen_tokens = structure.generators.tokens()
    gen_line = "generators " + " ".join(gen_tokens)
    family = structure.generators.family
    if family is not None and family.max_index is None:
        gen_line += f" | family {family.base} INT"
    lines.append(gen_line)

    nf_file = "nf.aut"
    with open(os.path.join(directory, nf_file), "w", encoding="utf-8") as handle:
        handle.write(format_automaton(structure.nf_automaton))
    lines.append(f"nf {nf_file}")
    for tok in gen_tokens:
        machine = structure.multiplier(tok)
        fname = f"mult_{_safe_filename(tok)}.aut"
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as handle:
            handle.write(format_automaton(machine))
        lines.append(f"mult {tok} {fname}")
    lines.append(f"seed-p {_format_word(structure.seed_p)}")
    lines.append(f"seed-q {_format_word(structure.seed_q)}")
    quasi = structure.quasigeodesic_c
    lines.append(f"quasigeodesic-C {'none' if quasi is None else quasi}")
    # the manifest has no family term, so the beta covers the family's steps
    lines.append(f"growth {structure.growth.alpha} "
                 f"{structure.step_beta(gen_tokens)}")
    for chunk in _chunks(structure.order.letters, 16):
        lines.append("order " + " ".join(chunk))
    with open(os.path.join(directory, MANIFEST_NAME), "w",
              encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
