"""Convolution of word tuples and closure operations on counter automata.

Tuple letters stack one token per row, with the padding symbol filling rows
whose word has already ended.  They are serialized as single tokens like
``(a|b)`` and ``(a|_)``, ``_`` standing for the padding symbol; components may
themselves be tuple tokens, e.g. ``((a|_)|b)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial

from .automata import (
    EPSILON,
    EMPTY_PROGRAM,
    AutomatonError,
    CounterAutomaton,
    LazyTable,
    Transition,
    longest_path,
    pad_program,
)

DIAMOND = "_"  # display form of the padding symbol inside tuple tokens


class LangOpError(AutomatonError):
    pass


class AlphabetMismatch(LangOpError):
    pass


# ---------------------------------------------------------------------------
# tuple letters and convolution


def tuple_token(components) -> str:
    """Serialize a tuple letter; None components become the padding symbol."""
    parts = [DIAMOND if c is None else c for c in components]
    return "(" + "|".join(parts) + ")"


def parse_tuple_token(token: str):
    """Inverse of tuple_token; splits only on top-level ``|``."""
    if not (token.startswith("(") and token.endswith(")")):
        raise LangOpError(f"not a tuple token: {token!r}")
    inner = token[1:-1]
    parts = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "|" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur.append(ch)
    parts.append("".join(cur))
    if depth != 0 or len(parts) < 2:
        raise LangOpError(f"malformed tuple token: {token!r}")
    return tuple(None if p == DIAMOND else p for p in parts)


def pair_letters(base) -> tuple:
    """Every pair letter over the tokens of ``base`` and padding but the
    all-padding one, in itertools.product order with padding last."""
    padded = tuple(base) + (None,)
    return tuple(tuple_token(pair) for pair in itertools.product(padded, repeat=2)
                 if pair != (None, None))


def convolve(*words):
    """Stack words letterwise into a tuple word of length max |w_i|."""
    if len(words) < 2:
        raise LangOpError("convolve needs at least two words")
    words = [tuple(w) for w in words]
    length = max((len(w) for w in words), default=0)
    out = []
    for i in range(length):
        out.append(tuple_token(tuple(w[i] if i < len(w) else None for w in words)))
    return tuple(out)


# ---------------------------------------------------------------------------
# letter homomorphisms


@dataclass(frozen=True)
class LetterHomomorphism:
    """Token-to-word map phi; phi(w) concatenates the images of w's tokens."""

    source: tuple
    target: tuple
    mapping: dict = field(hash=False)

    def __post_init__(self):
        for tok in self.source:
            if tok not in self.mapping:
                raise LangOpError(f"homomorphism undefined on {tok!r}")
        for word in self.mapping.values():
            for out in word:
                if out not in self.target:
                    raise LangOpError(f"image token {out!r} not in target alphabet")

    @property
    def epsilon_free(self) -> bool:
        return all(len(self.mapping[tok]) > 0 for tok in self.source)

    def apply(self, word):
        out = []
        for tok in word:
            if tok not in self.mapping:
                raise LangOpError(f"token {tok!r} not in homomorphism source")
            out.extend(self.mapping[tok])
        return tuple(out)


# ---------------------------------------------------------------------------
# reachable/co-reachable trimming


def trim(m: CounterAutomaton) -> CounterAutomaton:
    """Drop states that are unreachable or cannot reach an accept state."""
    fwd = {}
    back = {}
    for t in m.transitions:
        fwd.setdefault(t.src, []).append(t.dst)
        back.setdefault(t.dst, []).append(t.src)

    def closure(seeds, edges):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            q = stack.pop()
            for nxt in edges.get(q, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reachable = closure({m.start}, fwd)
    useful = closure(set(m.accepts), back) & reachable
    keep = useful | {m.start}
    states = [s for s in m.states if s in keep]
    transitions = [t for t in m.transitions if t.src in keep and t.dst in keep]
    return CounterAutomaton(
        m.name, m.alphabet, m.counters, states, m.start,
        [s for s in m.accepts if s in keep], transitions)


def explore(name, alphabet, counters, start, expand, accepting):
    """Build a machine by forward exploration with compact state names.

    ``expand(key)`` yields (label, program, successor key) and
    ``accepting(key)`` says whether a key accepts; keys are arbitrary
    hashables, renamed to s0, s1, ... in discovery order.  The result is
    trimmed.
    """
    names = {start: "s0"}
    order = [start]
    transitions = []
    i = 0
    while i < len(order):
        key = order[i]
        i += 1
        for label, prog, nxt in expand(key):
            if nxt not in names:
                names[nxt] = f"s{len(names)}"
                order.append(nxt)
            transitions.append(Transition(names[key], label, prog, names[nxt]))
    states = [names[k] for k in order]
    accepts = [names[k] for k in order if accepting(k)]
    return trim(CounterAutomaton(name, alphabet, counters, states, "s0",
                                 accepts, transitions))


class LazyAutomaton(CounterAutomaton):
    """A machine given by explore's ``start`` key and ``expand`` and
    ``accepting`` callbacks, whose runs fill each state the first time they
    reach it, as RE2's lazy DFA builds only the states a match visits (Cox,
    "Regular Expression Matching in the Wild", 2010).  The runs name states
    by their keys: ``moves`` and ``final`` are LazyTables over keys, and so
    is every table read off ``moves``.  ``moves`` leaves out a move into a
    state that has none and does not accept, as trim would; other states
    that cannot reach acceptance stay.

    ``states``, ``start``, ``accepts`` and ``transitions``, and all that is
    read off them (validate, formats, trim, quotient, relabel, a trace's
    machine sizes), come from ``materialized``: the named, trimmed machine
    that ``build()`` makes, once, the one the eager construction gives.

    ``parts`` lists (machine, counter offset) for the machines whose states
    make up a key, one per key entry; each moves by its own arrows or stays
    put.  ``acyclic`` is (True, top, bottom) as _acyclic gives it, taken
    from the construction, not from a walk."""

    def __init__(self, name, alphabet, counters, start, expand, accepting,
                 build, parts, acyclic):
        self.name = name
        self.alphabet = tuple(alphabet)
        self.alphabet_set = frozenset(self.alphabet)
        self.counters = counters
        self.declared_blind = False
        self.origin = start
        expanded = LazyTable(lambda key: list(expand(key)))
        self.final = LazyTable(accepting)
        self.moves = LazyTable(lambda key: [
            move for move in expanded[key]
            if expanded[move[2]] or move[2] in self.final])
        self._build = build
        self.parts = parts
        self.acyclic = acyclic

    @cached_property
    def materialized(self) -> CounterAutomaton:
        return self._build()

    states = property(lambda self: self.materialized.states)
    start = property(lambda self: self.materialized.start)
    accepts = property(lambda self: self.materialized.accepts)
    transitions = property(lambda self: self.materialized.transitions)


# ---------------------------------------------------------------------------
# intersection, composition, union


def padded_moves(machine: CounterAutomaton, total: int, offset: int):
    """LazyTable state -> (epsilon arrows, dict label -> letter arrows) of
    machine's moves, arrows (program, target) in transition order, each
    program padded once to ``total`` counters, the machine's own at
    ``offset``."""
    padded = {}  # id(program) -> its padded copy, one per program object

    def fill(state):
        eps, letters = [], {}
        for label, prog, dst in machine.moves.get(state) or ():
            wide = padded.get(id(prog))
            if wide is None:
                wide = padded[id(prog)] = pad_program(prog, total, offset)
            if label is EPSILON:
                eps.append((wide, dst))
            else:
                letters.setdefault(label, []).append((wide, dst))
        return eps, letters
    return LazyTable(fill)


def program_joiner():
    """A join(pm, pn) giving pm + pn, one object per pair of program
    objects: a product's moves then share program objects as its factors'
    do, and each object is compiled once (CounterAutomaton.compile)."""
    joined = {}
    return lambda pm, pn: joined.setdefault((id(pm), id(pn)), pm + pn)


def intersect(m: CounterAutomaton, n: CounterAutomaton,
              name=None) -> CounterAutomaton:
    """Product machine on a shared alphabet; counters are laid side by side,
    so L(result) = L(m) & L(n) with k+l counters."""
    if m.alphabet_set != n.alphabet_set:
        raise AlphabetMismatch(f"{m.name} and {n.name} have different alphabets")
    k, l = m.counters, n.counters
    total = k + l
    m_moves, n_moves = padded_moves(m, total, 0), padded_moves(n, total, k)
    join = program_joiner()

    def expand(key):
        s, t = key
        m_eps, mine = m_moves[s]
        n_eps, theirs = n_moves[t]
        for prog, dst in m_eps:
            yield EPSILON, prog, (dst, t)
        for prog, dst in n_eps:
            yield EPSILON, prog, (s, dst)
        if not mine or not theirs:
            return
        for label, arrows in mine.items():
            if label not in theirs:
                continue
            for pm, dm in arrows:
                for pn, dn in theirs[label]:
                    yield label, join(pm, pn), (dm, dn)

    m_acc, n_acc = m.accepts, n.accepts
    return explore(
        name or f"({m.name}&{n.name})", m.alphabet, total, (m.start, n.start),
        expand, lambda key: key[0] in m_acc and key[1] in n_acc)


def compose(m: CounterAutomaton, n: CounterAutomaton,
            name=None) -> CounterAutomaton:
    """Accepts (u|w) when m accepts (u|v) and n accepts (v|w): one walk over
    pairs of states, n reading m's bottom row as its top row.  A machine whose
    rows both pad stays where it is, a move that reads only v is an epsilon
    move, counters lie side by side as in ``intersect``, and letter moves
    follow m's alphabet order.

    The erased middle row must leave no epsilon cycle.  A composed epsilon
    move is an epsilon move of one side, or a letter of m whose top row pads
    with a letter of n whose bottom row pads, so a cycle projects to a
    closed walk in each side's graph of epsilon moves and such letters
    (_acyclic).  If m's graph with top-padded letters is acyclic, or n's
    with bottom-padded ones, and the other side's epsilon graph is, there
    is no cycle, and compose returns a LazyAutomaton: a search builds only
    the pairs it reaches.  Otherwise it walks every pair now and raises on
    a cycle."""
    if m.alphabet_set != n.alphabet_set:
        raise AlphabetMismatch(f"{m.name} and {n.name} have different alphabets")
    name = name or f"({m.name};{n.name})"
    total = m.counters + n.counters

    def build():
        return explore(name, m.alphabet, total,
                       *_composition(m.materialized, n.materialized))

    (m_eps, m_top, m_bottom), (n_eps, n_top, n_bottom) = _acyclic(m), _acyclic(n)
    if (m_top and n_eps) or (n_bottom and m_eps):
        # each property holds for the composition when it holds for both
        return LazyAutomaton(
            name, m.alphabet, total, *_composition(m, n), build,
            ((m, 0), (n, m.counters)), (True, m_top and n_top,
                                        m_bottom and n_bottom))
    out = build()
    if out.epsilon_bound() is None:  # the erased middle row is unbounded
        raise LangOpError("composition has an epsilon cycle; "
                          "quasi-realtime multiplier not constructible")
    return out


def _acyclic(m: CounterAutomaton):
    """(epsilon, top, bottom): whether m's epsilon moves make an acyclic
    graph, and whether they still do with m's letters whose top row pads
    added, or with those whose bottom row pads."""
    if isinstance(m, LazyAutomaton):
        return m.acyclic
    rows, graphs = {}, ([], [], [])
    for src, label, _, dst in m.transitions:
        if label is EPSILON:
            top = bottom = None
        else:
            if label not in rows:
                rows[label] = parse_tuple_token(label)
            top, bottom = rows[label]
        for graph, pads in zip(graphs, (label is EPSILON, top is None,
                                        bottom is None)):
            if pads:
                graph.append((src, dst))
    return tuple(longest_path(graph) is not None for graph in graphs)


def _composition(m: CounterAutomaton, n: CounterAutomaton):
    """(start key, expand, accepting) of compose's walk over pairs of states
    of m and n, read through each side's run tables (moves, final, origin),
    so that lazy sides are filled only where the walk goes."""
    total = m.counters + n.counters
    join = program_joiner()
    rank = {label: i for i, label in enumerate(m.alphabet)}
    rows = LazyTable(parse_tuple_token)

    def letters(side, state):
        # side's letter arrows at state as (top, bottom, arrows) in m's
        # alphabet order, then the move that stays put
        by_label = side[state][1]
        return [(*rows[label], by_label[label])
                for label in sorted(by_label, key=rank.__getitem__)
                ] + [(None, None, [(EMPTY_PROGRAM, state)])]

    def by_top(t):
        out = {}
        for top, bottom, arrows in letters(n_side, t):
            out.setdefault(top, []).append((bottom, arrows))
        return out

    m_side, n_side = padded_moves(m, total, 0), padded_moves(n, total, m.counters)
    m_letters, n_by_top = LazyTable(partial(letters, m_side)), LazyTable(by_top)

    def expand(key):
        s, t = key
        for prog, dst in m_side[s][0]:
            yield EPSILON, prog, (dst, t)
        for prog, dst in n_side[t][0]:
            yield EPSILON, prog, (s, dst)
        for u, v, m_arrows in m_letters[s]:
            for w, n_arrows in n_by_top[t].get(v, ()):
                if u is None and w is None and v is None:
                    continue
                label = EPSILON if u is None and w is None else tuple_token((u, w))
                for pm, dm in m_arrows:
                    for pn, dn in n_arrows:
                        yield label, join(pm, pn), (dm, dn)

    m_final, n_final = m.final, n.final
    return ((m.origin, n.origin), expand,
            lambda key: key[0] in m_final and key[1] in n_final)


def embed(m: CounterAutomaton, prefix: str, counters: int):
    """m's transitions on ``prefix``-ed state names, programs padded to
    ``counters`` counters."""
    return [Transition(prefix + t.src, t.label,
                       pad_program(t.program, counters), prefix + t.dst)
            for t in m.transitions]


def union_all(machines, name=None) -> CounterAutomaton:
    """Fresh start with one epsilon edge into each machine, whose states are
    prefixed ``u<i>!``; counters padded to the largest k with no-ops."""
    first = machines[0]
    for other in machines[1:]:
        if other.alphabet_set != first.alphabet_set:
            raise AlphabetMismatch(
                f"{first.name} and {other.name} have different alphabets")
    total = max(machine.counters for machine in machines)
    states = ["u!start"]
    transitions = [Transition("u!start", EPSILON, EMPTY_PROGRAM,
                              f"u{i}!{machine.start}")
                   for i, machine in enumerate(machines)]
    accepts = []
    for i, machine in enumerate(machines):
        prefix = f"u{i}!"
        states.extend(prefix + s for s in machine.states)
        accepts.extend(prefix + s for s in machine.accepts)
        transitions.extend(embed(machine, prefix, total))
    return CounterAutomaton(
        name or "(" + "|".join(machine.name for machine in machines) + ")",
        first.alphabet, total, states, "u!start", accepts, transitions)


# ---------------------------------------------------------------------------
# bisimulation quotient


def quotient(m: CounterAutomaton) -> CounterAutomaton:
    """Merge states with the same future: the coarsest partition in which two
    states of a block both accept or both reject and have the same set of
    (label, program, target block) moves, epsilon moves included.

    Counters are global, so merging keeps every run and the language; an
    epsilon path of the result lifts to one of m, so no epsilon cycle can
    appear and the epsilon bound cannot grow.  Refinement keeps a worklist
    of blocks that may be unstable: a split moves all but the largest piece
    to new blocks and marks the blocks of their predecessors.  The coarsest
    partition is unique, and each block is named after its first state in
    ``m.states``, so the result does not depend on the refinement order.
    """
    index = {s: i for i, s in enumerate(m.states)}
    moves = {}  # (label, program) -> small int
    out = [[] for _ in m.states]
    preds = [set() for _ in m.states]
    for t in m.transitions:
        src, dst = index[t.src], index[t.dst]
        out[src].append((moves.setdefault((t.label, t.program), len(moves)), dst))
        preds[dst].add(src)

    accepting = [s in m.accepts for s in m.states]
    block = [int(a) for a in accepting]
    members = [[i for i, a in enumerate(accepting) if not a],
               [i for i, a in enumerate(accepting) if a]]
    dirty = {0, 1}
    while dirty:
        b = dirty.pop()
        group = members[b]
        if len(group) < 2:
            continue
        by_future = {}
        for s in group:
            future = frozenset([(move, block[d]) for move, d in out[s]])
            by_future.setdefault(future, []).append(s)
        if len(by_future) == 1:
            continue
        pieces = sorted(by_future.values(), key=len, reverse=True)
        members[b] = pieces[0]
        moved = []
        for piece in pieces[1:]:
            fresh = len(members)
            members.append(piece)
            for s in piece:
                block[s] = fresh
            moved.extend(piece)
        for s in moved:
            dirty.update(block[p] for p in preds[s])

    names = {}
    for i, s in enumerate(m.states):
        if block[i] not in names:
            names[block[i]] = (s, i)
    by_id = list(moves)
    transitions = []
    for rep, i in names.values():
        for move, target in dict.fromkeys((move, block[d]) for move, d in out[i]):
            label, prog = by_id[move]
            transitions.append(Transition(rep, label, prog, names[target][0]))
    return CounterAutomaton(
        m.name, m.alphabet, m.counters,
        [rep for rep, _ in names.values()], names[block[index[m.start]]][0],
        [rep for rep, i in names.values() if accepting[i]], transitions)


# ---------------------------------------------------------------------------
# homomorphic image and preimage


def image(m: CounterAutomaton, phi: LetterHomomorphism,
          name=None) -> CounterAutomaton:
    """Machine for phi(L(m)).  Erased letters become epsilon transitions and
    the result is re-validated for epsilon-acyclicity."""
    if set(phi.source) != m.alphabet_set:
        raise AlphabetMismatch("homomorphism source must equal machine alphabet")
    states = list(m.states)
    transitions = []
    fresh = 0
    for t in m.transitions:
        if t.label is EPSILON:
            transitions.append(t)
            continue
        word = phi.mapping[t.label]
        if len(word) == 0:
            transitions.append(Transition(t.src, EPSILON, t.program, t.dst))
        elif len(word) == 1:
            transitions.append(Transition(t.src, word[0], t.program, t.dst))
        else:
            prev = t.src
            for i, tok in enumerate(word[:-1]):
                mid = f"img{fresh}"
                fresh += 1
                states.append(mid)
                transitions.append(Transition(
                    prev, tok, t.program if i == 0 else EMPTY_PROGRAM, mid))
                prev = mid
            transitions.append(Transition(prev, word[-1], EMPTY_PROGRAM, t.dst))
    out = trim(CounterAutomaton(
        name or f"{phi_name(phi)}({m.name})", phi.target, m.counters, states,
        m.start, m.accepts, transitions))
    if out.epsilon_bound() is None:
        raise LangOpError(
            "erasing homomorphism introduced an epsilon cycle; "
            "quasi-realtime image not constructible"
        )
    return out


def phi_name(phi: LetterHomomorphism) -> str:
    return "phi" if phi.epsilon_free else "phi~"


def relabel(m: CounterAutomaton, letter_map, name=None,
            alphabet=None) -> CounterAutomaton:
    """Rename letters through a bijective token map (cheap image special
    case); the map is called once per letter of m's alphabet."""
    renamed = {tok: letter_map(tok) for tok in m.alphabet}
    renamed[EPSILON] = EPSILON
    transitions = [Transition(t.src, renamed[t.label], t.program, t.dst)
                   for t in m.transitions]
    new_alphabet = alphabet if alphabet is not None else [
        renamed[tok] for tok in m.alphabet]
    return CounterAutomaton(
        name or m.name, new_alphabet, m.counters, m.states, m.start, m.accepts,
        transitions)


def swap_rows(m: CounterAutomaton, name=None) -> CounterAutomaton:
    """The row-swap image: accepts (v, u) exactly when m accepts (u, v)."""

    swapped = {}
    for tok in m.alphabet:
        a, b = parse_tuple_token(tok)
        swapped[tok] = tuple_token((b, a))
    name, alphabet = name or f"swap({m.name})", sorted(swapped.values())
    if isinstance(m, LazyAutomaton):
        # a view of m's keys and moves with their letters swapped: it fills
        # m's states as it reaches them, and m's dead entries are its own
        _, top, bottom = m.acyclic
        return LazyAutomaton(
            name, alphabet, m.counters, m.origin,
            lambda key: [(swapped.get(label), prog, dst)
                         for label, prog, dst in m.moves[key]],
            m.final.__contains__, lambda: swap_rows(m.materialized, name),
            m.parts, (True, bottom, top))
    return relabel(m, swapped.__getitem__, name, alphabet=alphabet)


def _eps_paths_with_programs(m: CounterAutomaton, src: str):
    """All (program-sequence, endpoint) for epsilon paths from src, including
    the empty path.  Finite because the epsilon graph is acyclic."""
    out = [((), src)]
    stack = [((), src)]
    while stack:
        progs, q = stack.pop()
        for label, prog, dst in m.moves.get(q) or ():
            if label is EPSILON:
                item = (progs + (prog,), dst)
                out.append(item)
                stack.append(item)
    return out


def preimage(m: CounterAutomaton, phi: LetterHomomorphism,
             name=None) -> CounterAutomaton:
    """Machine for phi^{-1}(L(m)): a transition per source letter for every
    path of m spelling its image, carrying the concatenated programs."""
    if set(phi.target) != m.alphabet_set:
        raise AlphabetMismatch("homomorphism target must equal machine alphabet")
    if m.epsilon_bound() is None:
        raise LangOpError("preimage requires an epsilon-acyclic machine")

    eps_paths = {q: _eps_paths_with_programs(m, q) for q in m.states}

    transitions = [t for t in m.transitions if t.label is EPSILON]

    by_image = {}
    for tok in phi.source:
        by_image.setdefault(phi.mapping[tok], []).append(tok)

    for word, tokens in by_image.items():
        # endpoints of paths eps* w1 eps* ... wr eps* from each state
        for src in m.states:
            # endpoint -> program tuples, an insertion-ordered set
            frontier = {}
            for progs, q in eps_paths[src]:
                frontier.setdefault(q, {})[progs] = None
            for tok in word:
                nxt = {}
                for q, progsets in frontier.items():
                    for label, prog, dst in m.moves.get(q) or ():
                        if label != tok:
                            continue
                        for tail, q2 in eps_paths[dst]:
                            bucket = nxt.setdefault(q2, {})
                            for progs in progsets:
                                bucket[progs + (prog,) + tail] = None
                frontier = nxt
                if not frontier:
                    break
            for dst, progsets in frontier.items():
                for progs in progsets:
                    flat = tuple(step for prog in progs for step in prog)
                    for tok in tokens:
                        transitions.append(Transition(src, tok, flat, dst))

    return trim(CounterAutomaton(
        name or f"{phi_name(phi)}^-1({m.name})", phi.source, m.counters,
        m.states, m.start, m.accepts, transitions))


# ---------------------------------------------------------------------------
# padded lift: one row runs the machine, the other row is free


def pad_lift(m: CounterAutomaton, side: str,
             free_alphabet=None) -> CounterAutomaton:
    """Lift m to the pair alphabet: the tracked row spells a word of L(m), the
    free row ranges over its alphabet, and padding appears only as a suffix of
    either row (the row that ends first is out for good).

    side='left' tracks row 0 and accepts convolutions of (L(m), free*);
    side='right' tracks row 1.
    """
    if side not in ("left", "right"):
        raise LangOpError("side must be 'left' or 'right'")
    free = tuple(free_alphabet) if free_alphabet is not None else m.alphabet

    def letter(tracked, free_part):
        if side == "left":
            return tuple_token((tracked, free_part))
        return tuple_token((free_part, tracked))

    ENDED = ("!ended",)
    moves = padded_moves(m, m.counters, 0)

    def expand(key):
        if key == ENDED:
            for f in free:
                yield letter(None, f), EMPTY_PROGRAM, ENDED
            return
        q, free_done = key
        eps, letters = moves[q]
        for tok, arrows in letters.items():
            for prog, dst in arrows:
                if not free_done:
                    for f in free:
                        yield letter(tok, f), prog, (dst, False)
                yield letter(tok, None), prog, (dst, True)
        for prog, dst in eps:
            yield EPSILON, prog, (dst, free_done)
        if q in m.accepts and not free_done:
            for f in free:
                yield letter(None, f), EMPTY_PROGRAM, ENDED

    def accepting(key):
        if key == ENDED:
            return True
        q, _ = key
        return q in m.accepts

    return explore(
        f"pad_{side}({m.name})", pair_letters(dict.fromkeys(m.alphabet + free)),
        m.counters, (m.start, False), expand, accepting)
