"""Nondeterministic quasi-realtime k-counter automata.

A counter automaton is a finite automaton over a token alphabet, augmented
with k integer counters.  Counters start at zero; transitions carry
instruction programs that may increment, decrement, zero-test or reset them.
A word is accepted when some run reads exactly the word and ends in an
accepting state with every counter equal to zero.

Blind machines never read their counters (no tests, no resets).
Quasi-realtime means a fixed bound on consecutive epsilon moves; here it is
enforced structurally by requiring the epsilon-transition graph to be acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add
from typing import NamedTuple, Optional

EPSILON = None  # transition label for moves that read no input

# instruction kinds
INC = "inc"
DEC = "dec"
TEST_ZERO = "test_zero"
TEST_NONZERO = "test_nonzero"
SET_ZERO = "set_zero"
NOOP = "noop"

_KINDS = (INC, DEC, TEST_ZERO, TEST_NONZERO, SET_ZERO, NOOP)
_READS = (TEST_ZERO, TEST_NONZERO, SET_ZERO)


class AutomatonError(Exception):
    """Structural problem in an automaton definition."""


class TokenError(AutomatonError):
    """A word contains a token outside the machine's alphabet."""


@dataclass(frozen=True)
class CounterInstruction:
    """One action on one counter. ``amount`` is used by inc/dec only."""

    kind: str
    amount: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AutomatonError(f"unknown instruction kind {self.kind!r}")
        if self.kind in (INC, DEC) and self.amount < 1:
            raise AutomatonError(f"{self.kind} amount must be >= 1")


NO_OP = CounterInstruction(NOOP)


def inc(amount: int = 1) -> CounterInstruction:
    return CounterInstruction(INC, amount)


def dec(amount: int = 1) -> CounterInstruction:
    return CounterInstruction(DEC, amount)


TEST0 = CounterInstruction(TEST_ZERO)
TESTN0 = CounterInstruction(TEST_NONZERO)
SETZ = CounterInstruction(SET_ZERO)

# An instruction program is a tuple of steps; each step is a k-tuple of
# CounterInstruction (entry i acts on counter i).  Steps apply in order.
# Guards in a step are evaluated against the counter values current at that
# step, before any of the step's mutations; a failed guard blocks the whole
# transition with no counter changed.
Program = tuple


EMPTY_PROGRAM: Program = ()


def delta_program(k: int, index: int, delta: int) -> Program:
    """One-step program adding ``delta`` to counter ``index`` (empty if 0)."""
    if delta == 0:
        return EMPTY_PROGRAM
    instr = inc(delta) if delta > 0 else dec(-delta)
    step = [NO_OP] * k
    step[index] = instr
    return (tuple(step),)


def pad_program(prog: Program, new_k: int, offset: int = 0) -> Program:
    """Re-home a program's counters into ``new_k`` from index ``offset``."""
    out = []
    for step in prog:
        padded = [NO_OP] * new_k
        for i, instr in enumerate(step):
            padded[offset + i] = instr
        out.append(tuple(padded))
    return tuple(out)


def apply_program(prog: Program, counters: tuple) -> Optional[tuple]:
    """Run a program on a counter vector; None if a guard fails."""
    cur = counters
    for step in prog:
        nxt = None
        for i, instr in enumerate(step):
            kind = instr.kind
            if kind is NOOP or kind == NOOP:
                continue
            if kind == TEST_ZERO:
                if cur[i] != 0:
                    return None
            elif kind == TEST_NONZERO:
                if cur[i] == 0:
                    return None
            else:
                if nxt is None:
                    nxt = list(cur)
                if kind == INC:
                    nxt[i] += instr.amount
                elif kind == DEC:
                    nxt[i] -= instr.amount
                else:  # SET_ZERO
                    nxt[i] = 0
        if nxt is not None:
            cur = tuple(nxt)
    return cur


def program_step(prog: Program):
    """A program compiled for repeated runs: None when it leaves every
    counter as it is, else a function from a counter vector to the vector
    after it, or to None where a guard fails.  A blind program is one net
    shift, since INC and DEC never fail; a program that tests or resets a
    counter runs through apply_program."""
    if program_reads_counters(prog):
        return partial(apply_program, prog)
    delta = _net_changes(prog)
    if not any(delta):
        return None
    return lambda counters: tuple(map(add, counters, delta))


def program_reads_counters(prog: Program) -> bool:
    return any(instr.kind in _READS for step in prog for instr in step)


def _net_changes(prog: Program) -> list:
    """Per counter, what the program's INC and DEC add after its last
    SET_ZERO of that counter."""
    net = [0] * (len(prog[0]) if prog else 0)
    for step in prog:
        for i, instr in enumerate(step):
            if instr.kind == INC:
                net[i] += instr.amount
            elif instr.kind == DEC:
                net[i] -= instr.amount
            elif instr.kind == SET_ZERO:
                net[i] = 0
    return net


def program_max_delta(prog: Program) -> int:
    """Largest |net additive change| any counter can get from this program."""
    return max(map(abs, _net_changes(prog)), default=0)


class Transition(NamedTuple):
    src: str
    label: Optional[str]  # token, or EPSILON
    program: Program
    dst: str


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    epsilon_bound: Optional[int] = None  # longest epsilon-only path, None on cycle
    blind: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors


class CounterAutomaton:
    """Immutable k-counter automaton.  All operations are pure.  The blind
    argument is a parsed file's claim; validate checks it against ``blind``."""

    def __init__(self, name, alphabet, counters, states, start, accepts,
                 transitions, blind=False):
        self.name = name
        self.alphabet = tuple(alphabet)
        self.alphabet_set = frozenset(self.alphabet)
        self.counters = counters
        self.states = tuple(states)
        self.start = start
        self.accepts = frozenset(accepts)
        self.transitions = tuple(
            t if isinstance(t, Transition) else Transition(*t) for t in transitions
        )
        self.declared_blind = blind

    # -- derived tables ----------------------------------------------------

    @property
    def materialized(self) -> "CounterAutomaton":
        """The machine with every state built: this one (see LazyAutomaton)."""
        return self

    # How runs see the start and accept states.  A lazy machine's runs name
    # states by keys of their own, so it sets these apart from start and
    # accepts, which it reads off its materialized machine.
    @cached_property
    def origin(self):
        return self.start

    @cached_property
    def final(self):
        return self.accepts

    @cached_property
    def blind(self) -> bool:
        """Whether no transition tests or resets a counter."""
        programs = {id(t.program): t.program for t in self.transitions}
        return not any(map(program_reads_counters, programs.values()))

    @cached_property
    def moves(self):
        """dict state -> list of its (label, program, dst) moves, in
        transition order: the one arrow table, which every other is read
        off (a LazyAutomaton's is a LazyTable)."""
        table = {}
        for t in self.transitions:
            table.setdefault(t.src, []).append(t[1:])
        return table

    @cached_property
    def _steps(self):
        return {}  # id(program) -> program_step(program)

    def compile(self, prog):
        """program_step(prog), made once per program object; transitions
        share program objects."""
        try:
            return self._steps[id(prog)]
        except KeyError:
            step = self._steps[id(prog)] = program_step(prog)
            return step

    def _arrows(self, state, label):
        """(step, dst) of state's moves on label, steps from compile."""
        return [(self.compile(prog), dst)
                for move_label, prog, dst in self.moves.get(state) or ()
                if move_label == label]

    @cached_property
    def letter_steps(self):
        """LazyTable (state, token) -> its (step, dst) arrows."""
        return LazyTable(lambda key: self._arrows(*key))

    @cached_property
    def eps_steps(self):
        """state -> its epsilon (step, dst) arrows: on a materialized
        machine a dict of the states that have some, which measured faster
        than a LazyTable on the searches' hot path."""
        if isinstance(self.moves, LazyTable):
            return LazyTable(partial(self._arrows, label=EPSILON))
        return {state: arrows for state in self.moves
                if (arrows := self._arrows(state, EPSILON))}

    def epsilon_bound(self):
        """Length of the longest epsilon-only path; None if the epsilon graph
        has a cycle (quasi-realtime violated)."""
        return self._eps_bound

    @cached_property
    def _eps_bound(self):
        return longest_path((t.src, t.dst) for t in self.transitions
                            if t.label is EPSILON)

    @cached_property
    def _max_delta(self):
        return max((program_max_delta(t.program) for t in self.transitions),
                   default=0)

    def max_transition_delta(self) -> int:
        return self._max_delta

    @cached_property
    def _degree(self):
        outs = {}
        ins = {}
        for t in self.transitions:
            outs[t.src] = outs.get(t.src, 0) + 1
            ins[t.dst] = ins.get(t.dst, 0) + 1
        return max([*outs.values(), *ins.values()], default=0)

    def degree_bound(self) -> int:
        """Max in- or out-degree over states (the constant E of the search)."""
        return self._degree

    # -- semantics ----------------------------------------------------------

    @cached_property
    def _zero(self) -> tuple:
        return (0,) * self.counters

    def zero_vector(self) -> tuple:
        return self._zero

    def initial_configs(self):
        """Epsilon closure of the start configuration."""
        return self.eps_closure({(self.origin, self.zero_vector())})

    def accepting(self, configs) -> bool:
        """Whether some configuration is accepting with all counters zero."""
        accepts, zero = self.final, self._zero
        for q, c in configs:
            if c == zero and q in accepts:
                return True
        return False

    def eps_closure(self, configs):
        """All configurations reachable by epsilon moves (input set included)."""
        eps = self.eps_steps
        out = set(configs)
        stack = [c for c in out if c[0] in eps]
        while stack:
            state, counters = stack.pop()
            for step, dst in eps[state]:
                nxt = counters if step is None else step(counters)
                if nxt is None:
                    continue
                cfg = (dst, nxt)
                if cfg not in out:
                    out.add(cfg)
                    if dst in eps:
                        stack.append(cfg)
        return out

    def step(self, configs, token):
        table = self.letter_steps
        out = set()
        for state, counters in configs:
            for step, dst in table.get((state, token)) or ():
                nxt = counters if step is None else step(counters)
                if nxt is not None:
                    out.add((dst, nxt))
        return out

    def _check_word(self, word):
        for tok in word:
            if tok not in self.alphabet_set:
                raise TokenError(f"token {tok!r} not in alphabet of {self.name}")

    def run(self, word):
        """Configuration set after consuming the word (epsilon-closed)."""
        self._check_word(word)
        configs = self.initial_configs()
        for tok in word:
            configs = self.eps_closure(self.step(configs, tok))
            if not configs:
                break
        return configs

    def accepts_word(self, word) -> bool:
        return self.accepting(self.run(word))


class LazyTable(dict):
    """A dict that fills a missing key on its first lookup with fill(key).
    Filling is race-safe: setdefault keeps the first value stored, and fill
    gives equal values for a key.  ``key in table`` says whether the key's
    value is truthy, and get takes no default, since every key has a
    value: it is the lookup, at a plain dict's speed for a filled key."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self.fill(key))

    def __contains__(self, key):
        return bool(self[key])

    get = dict.__getitem__


def longest_path(edges):
    """Length of the longest path in the graph of the (src, dst) edges,
    walked in topological order; None if the graph has a cycle."""
    successors, indegree = {}, {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
        indegree[dst] = indegree.get(dst, 0) + 1
    ready = [state for state in successors if state not in indegree]
    depth = dict.fromkeys(ready, 0)
    done = 0
    while ready:
        state = ready.pop()
        done += 1
        for dst in successors.get(state, ()):
            depth[dst] = max(depth.get(dst, 0), depth[state] + 1)
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    if done < len(successors.keys() | indegree.keys()):
        return None
    return max(depth.values(), default=0)


def validate(m: CounterAutomaton) -> ValidationReport:
    """Structural validation: epsilon bound and blindness verdicts."""
    report = ValidationReport()
    state_set = set(m.states)
    if m.start not in state_set:
        report.errors.append(f"start state {m.start!r} not declared")
    for s in m.accepts:
        if s not in state_set:
            report.errors.append(f"accept state {s!r} not declared")
    for t in m.transitions:
        if t.src not in state_set:
            report.errors.append(f"dangling source state {t.src!r}")
        if t.dst not in state_set:
            report.errors.append(f"dangling target state {t.dst!r}")
        if t.label is not EPSILON and t.label not in m.alphabet_set:
            report.errors.append(f"transition label {t.label!r} not in alphabet")
        for step in t.program:
            if len(step) != m.counters:
                report.errors.append(
                    f"program step arity {len(step)} != counters {m.counters}"
                )

    report.blind = m.blind
    if m.declared_blind and not m.blind:
        report.errors.append("blind flag contradicted by a read/reset instruction")

    bound = m.epsilon_bound()
    report.epsilon_bound = bound
    if bound is None:
        report.errors.append("epsilon cycle detected (quasi-realtime violated)")

    return report


def accepts(m: CounterAutomaton, word) -> bool:
    """Membership: some run reads the word and ends accepting with zero counters."""
    return m.accepts_word(word)


def counter_growth_bound(m: CounterAutomaton, n: int) -> int:
    """Linear ceiling F*n on counter magnitude after reading n tokens,
    with F = 3 * max(K,1) * (max per-transition change)."""
    K = m.epsilon_bound()
    if K is None:
        raise AutomatonError("epsilon cycle: growth bound undefined")
    return 3 * max(K, 1) * m.max_transition_delta() * n
