"""Small construction kit for the rigid machines the group builders need:
epsilon-free regex-style fragments, deterministic run-pattern rows, and a
two-row convolution product that overlays both rows' counter activity on one
shared blind counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    EMPTY_PROGRAM,
    CounterAutomaton,
    Transition,
    delta_program,
)
from .langops import embed, explore, pair_alphabet, tuple_token, trim


# ---------------------------------------------------------------------------
# epsilon-free fragments (states are 0..size-1, start is always 0)


@dataclass(frozen=True)
class Frag:
    size: int
    transitions: tuple  # (src, token, program, dst)
    accepts: frozenset

    @property
    def nullable(self):
        return 0 in self.accepts

    def start_out(self):
        return [t for t in self.transitions if t[0] == 0]


def lit(token, program=EMPTY_PROGRAM) -> Frag:
    return Frag(2, ((0, token, program, 1),), frozenset({1}))


def eps_frag() -> Frag:
    return Frag(1, (), frozenset({0}))


def one_of(tokens) -> Frag:
    return Frag(2, tuple((0, tok, EMPTY_PROGRAM, 1) for tok in tokens),
                frozenset({1}))


def _shift(frag: Frag, offset: int):
    return [(s + offset, tok, prog, d + offset) for s, tok, prog, d in frag.transitions]


def seq(*frags) -> Frag:
    out = frags[0]
    for b in frags[1:]:
        offset = out.size
        transitions = list(out.transitions) + _shift(b, offset)
        for fa in out.accepts:
            for s, tok, prog, d in b.start_out():
                transitions.append((fa, tok, prog, d + offset))
        accepts = {d + offset for d in b.accepts if d != 0}
        if b.nullable:
            accepts |= set(out.accepts)
        out = Frag(out.size + b.size, tuple(transitions), frozenset(accepts))
    return out


def alt(*frags) -> Frag:
    size = 1
    transitions = []
    accepts = set()
    nullable = False
    for frag in frags:
        offset = size
        transitions.extend(_shift(frag, offset))
        for s, tok, prog, d in frag.start_out():
            transitions.append((0, tok, prog, d + offset))
        accepts |= {d + offset for d in frag.accepts if d != 0}
        nullable = nullable or frag.nullable
        size += frag.size
    if nullable:
        accepts.add(0)
    return Frag(size, tuple(transitions), frozenset(accepts))


def star(frag: Frag) -> Frag:
    offset = 1
    transitions = _shift(frag, offset)
    starts = frag.start_out()
    for s, tok, prog, d in starts:
        transitions.append((0, tok, prog, d + offset))
    for fa in frag.accepts:
        if fa == 0:
            continue
        for s, tok, prog, d in starts:
            transitions.append((fa + offset, tok, prog, d + offset))
    accepts = {0} | {d + offset for d in frag.accepts if d != 0}
    return Frag(frag.size + offset, tuple(transitions), frozenset(accepts))


def repeat(frag: Frag, count: int) -> Frag:
    if count == 0:
        return eps_frag()
    return seq(*([frag] * count))


def build(frag: Frag, name, alphabet, counters=0) -> CounterAutomaton:
    transitions = [
        Transition(f"f{s}", tok, prog, f"f{d}") for s, tok, prog, d in frag.transitions
    ]
    machine = CounterAutomaton(
        name, alphabet, counters, [f"f{i}" for i in range(frag.size)], "f0",
        [f"f{i}" for i in frag.accepts], transitions, blind=True,
    )
    return trim(machine)


def concat_machines(a: CounterAutomaton, b: CounterAutomaton,
                    name=None) -> CounterAutomaton:
    """Epsilon-free concatenation: copies of b's start-out edges hang off every
    accept state of a."""
    counters = max(a.counters, b.counters)
    alphabet = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    b_moves = embed(b, "b.", counters)
    transitions = embed(a, "a.", counters) + b_moves
    b_start_out = [t for t in b_moves if t.src == "b." + b.start]
    for fa in (s for s in a.states if s in a.accepts):
        for t in b_start_out:
            transitions.append(Transition("a." + fa, t.label, t.program, t.dst))
    accepts = ["b." + s for s in b.accepts]
    if b.start in b.accepts:
        accepts.extend("a." + s for s in a.accepts)
    states = ["a." + s for s in a.states] + ["b." + s for s in b.states]
    machine = CounterAutomaton(
        name or f"{a.name}.{b.name}", alphabet, counters, states, "a." + a.start,
        accepts, transitions, blind=a.declared_blind and b.declared_blind,
    )
    return trim(machine)


# ---------------------------------------------------------------------------
# deterministic single-row run patterns: [#] run # run # run # run


@dataclass
class RowPattern:
    """DFA over {run token, '#'} for one convolution row of a case language.

    Runs are either exact-length or free; each run carries a counter delta
    applied per letter.  Acceptance here is purely structural; counters are
    settled by the surrounding product.
    """

    start: int
    accepts: frozenset
    table: dict  # (state, token) -> (delta, state)
    size: int


def row_pattern(lead_hash: bool, runs, run_token: str,
                hash_token: str = "#") -> RowPattern:
    """runs: four (exact_length_or_None, per_letter_delta) pairs."""
    table = {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    start = fresh()
    cur = start
    if lead_hash:
        nxt = fresh()
        table[(cur, hash_token)] = (0, nxt)
        cur = nxt
    for pos, (exact, delta) in enumerate(runs):
        if exact is None:
            table[(cur, run_token)] = (delta, cur)
            end = cur
        else:
            end = cur
            for _ in range(exact):
                nxt = fresh()
                table[(end, run_token)] = (delta, nxt)
                end = nxt
        if pos < len(runs) - 1:
            nxt = fresh()
            table[(end, hash_token)] = (0, nxt)
            cur = nxt
    return RowPattern(start, frozenset({end}), table, counter[0])


def convolution_product_shared(row_a: RowPattern, row_b: RowPattern,
                               base_alphabet, name) -> CounterAutomaton:
    """Convolutions of (row A word, row B word) with one shared blind counter
    accumulating both rows' deltas; padding may appear only once a row's
    pattern has been completed."""
    ENDED = "$"

    def row_moves(row: RowPattern):
        # state -> (letter component, delta, next state); None = padding
        moves = {s: [] for s in range(row.size)}
        for (s, tok), (delta, nxt) in row.table.items():
            moves[s].append((tok, delta, nxt))
        for s in row.accepts:
            moves[s].append((None, 0, ENDED))
        moves[ENDED] = [(None, 0, ENDED)]
        return moves

    a_moves, b_moves = row_moves(row_a), row_moves(row_b)

    def expand(key):
        sa, sb = key
        for ca, da, na in a_moves[sa]:
            for cb, db, nb in b_moves[sb]:
                if ca is not None or cb is not None:
                    yield (tuple_token((ca, cb)), delta_program(1, 0, da + db),
                           (na, nb))

    def accepting(key):
        sa, sb = key
        return (sa == ENDED or sa in row_a.accepts) and \
               (sb == ENDED or sb in row_b.accepts)

    return explore(name, tuple(pair_alphabet(base_alphabet).letters()), 1,
                   (row_a.start, row_b.start), expand, accepting, blind=True)
