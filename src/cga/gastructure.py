"""Graph-automatic structures over counter languages, and the two
normal-form algorithms that run on them.

A structure is a normal-form language L over a symbol alphabet, in bijection
with a group, together with one multiplier machine per generator x accepting
exactly the convolutions of (u, v) with v representing u's element times x.

Right multiplication is computed either by the configuration-graph search
(levelled sets S_j of machine configurations with backtracking edge sets T_j)
or by shortlex enumeration of candidate words tested against the multiplier.
Both return the same word; the search is polynomial, the enumeration trades
time for simplicity.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

from .automata import (
    DEC,
    EPSILON,
    INC,
    SET_ZERO,
    CounterAutomaton,
    LazyTable,
    counter_growth_bound,
)
from .langops import (
    LangOpError,
    LazyAutomaton,
    pair_letters,
    parse_tuple_token,
    swap_rows,
    tuple_token,
)
from .shortlex import OrderedAlphabet


class StructureError(Exception):
    pass


class SearchBoundExceeded(StructureError):
    """The growth-policy cap was hit with no accepting configuration."""

    def __init__(self, machine, bound, reached):
        super().__init__(
            f"search on {machine} exceeded growth bound {bound} (reached level {reached})"
        )
        self.machine = machine
        self.bound = bound
        self.reached = reached


# ---------------------------------------------------------------------------
# generators


@dataclass
class FamilySpec:
    """Parameterized generator family like x1, x2, ... with formal inverses
    x1-, x2-, ....  The factory builds the multiplier of x_i from i; the
    structure derives x_i-'s as its row swap."""

    base: str
    factory: Optional[Callable[[int], CounterAutomaton]] = None
    max_index: Optional[int] = None

    def __post_init__(self):
        # a longer index is past sys.maxsize, and int() may refuse it
        self._pattern = re.compile(re.escape(self.base) + r"(\d{1,19})(-?)")

    def parse(self, token):
        m = self._pattern.fullmatch(token)
        if not m:
            return None
        index = int(m.group(1))
        # an index past sys.maxsize cannot size the factory's machine
        bound = sys.maxsize if self.max_index is None else self.max_index
        if not 1 <= index <= bound:
            return None
        return index, m.group(2) == "-"


class GeneratorSet:
    """Symmetric generating set: fixed (token, inverse) pairs, a pair (a, a)
    making a its own inverse, plus at most one parameterized family."""

    def __init__(self, pairs, family: Optional[FamilySpec] = None):
        self.family = family
        self._inverses = {}  # fixed token -> inverse, in pair order
        self._family_inverses = {}  # family token -> inverse, parsed once
        for tok, inv in pairs:
            self._inverses[tok] = inv
            self._inverses.setdefault(inv, tok)

    def __contains__(self, token):
        return token in self._inverses or (
            self.family is not None and self.family.parse(token) is not None)

    def inverse_of(self, token):
        inverse = self._inverses.get(token) or self._family_inverses.get(token)
        if inverse is None and self.family is not None:
            parsed = self.family.parse(token)
            if parsed is not None:
                index, inv = parsed
                inverse = f"{self.family.base}{index}" + ("" if inv else "-")
                self._family_inverses[token] = inverse
        if inverse is None:
            raise StructureError(f"unknown generator {token!r}")
        return inverse

    def tokens(self):
        """All concrete generator tokens; family tokens only up to max_index."""
        out = list(self._inverses)
        if self.family is not None:
            if self.family.max_index is None:
                raise StructureError(
                    "cannot enumerate an unbounded generator family")
            base = self.family.base
            out.extend(t for i in range(1, self.family.max_index + 1)
                       for t in (f"{base}{i}", f"{base}{i}-") if t not in out)
        return out


@dataclass(frozen=True)
class GrowthPolicy:
    """Per-step cap on normal-form length: next length <= alpha*len + beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 0:
            raise StructureError("growth policy needs alpha >= 1 and beta >= 0")

    def cap(self, length: int, extra_beta: int = 0) -> int:
        return self.alpha * length + max(self.beta, extra_beta)


# ---------------------------------------------------------------------------
# traces


@dataclass
class StepTrace:
    generator: str
    input_length: int
    output: tuple
    levels: int
    pruned: int              # configurations dropped as dead (stuck_counters)
    machine_states: int      # D of the multiplier driving this step
    machine_degree: int      # E
    machine_growth: int      # F = 3*max(K,1)*max transition delta
    machine_eps_bound: int   # K
    machine_counters: int    # k
    per_level: list = field(default_factory=list)  # (j, |S_j|, |T_j|, max|c|)

    @property
    def max_s(self):
        return max((s for _, s, _, _ in self.per_level), default=0)

    @property
    def max_t(self):
        return max((t for _, _, t, _ in self.per_level), default=0)


@dataclass
class NormalFormTrace:
    word: tuple
    chosen: list  # u_0 ... u_n
    steps: list   # StepTrace per letter


# ---------------------------------------------------------------------------
# multiplier machine search primitives

# Entries each of a search's step stores holds before _Search.keep empties it.
STEP_BUDGET = 2048


class _Search:
    """One machine's search context (_search): the tables its searches
    read, each built at first use, and the bounded stores that keeping
    searches share, ``levels`` for the levelled search and ``steps`` for the
    pair walk.  A row swap keeps its inverse's states, programs and accepts,
    so a swap's search made with the inverse's as ``twin`` reads its dead
    table and start level from there: the two share them."""

    def __init__(self, machine, twin=None):
        self.machine, self.twin = machine, twin
        self.levels, self.steps = {}, {}

    @cached_property
    def pair_index(self):
        """LazyTable (state, top) -> dict bottom -> (step, dst) arrows for
        the letter (top | bottom), None for a padding row, each step
        compiled by machine.compile: filled from the state's moves at its
        first lookup, so a search pays only for the states it visits."""
        machine = self.machine
        moves, compile = machine.moves, machine.compile
        rows = LazyTable(parse_tuple_token)

        def fill(key):
            state, top = key
            index = {}
            for letter, prog, dst in moves.get(state) or ():
                if letter is not EPSILON and rows[letter][0] == top:
                    index.setdefault(rows[letter][1], []).append(
                        (compile(prog), dst))
            return index
        return LazyTable(fill)

    @cached_property
    def dead(self):
        """The dead table the searches prune with: the twin's, else
        stuck_counters' for a materialized machine.  A LazyAutomaton's is
        filled per state from its parts' tables (_joint_entry), so no search
        walks the whole machine for it."""
        if self.twin is not None:
            return self.twin.dead
        machine = self.machine
        if not isinstance(machine, LazyAutomaton):
            return stuck_counters(machine)
        parts = [(_search(part).dead, offset) for part, offset in machine.parts]
        return LazyTable(partial(_joint_entry, parts))

    @cached_property
    def start(self):
        """(level 0, the configurations pruned from it): the machine and its
        dead table decide it."""
        if self.twin is not None:
            return self.twin.start
        start, stuck = self.machine.initial_configs(), self.dead
        level = frozenset((state, counters, False) for state, counters in start
                          if not _dead(stuck, state, counters))
        return level, len(start) - len(level)

    @staticmethod
    def keep(store, key, value):
        """store[key] = value in one of the step stores, emptied first if it
        holds STEP_BUDGET entries, as a lazy DFA flushes its full state cache
        (Cox, "Regular Expression Matching in the Wild", 2010).  An entry is
        the step its key determines, so a flush, even under another search's
        lookup, costs only recomputation and never changes a result."""
        if len(store) >= STEP_BUDGET:
            store.clear()
        store[key] = value


def _search(machine, twin=None) -> _Search:
    """machine's search context, made with twin at its first use; of
    concurrent first uses, one context is kept."""
    return getattr(machine, "_search", None) or vars(machine).setdefault(
        "_search", _Search(machine, twin))


def _advance(search, configs, top, bottom, stuck=None):
    """frozenset of the epsilon-closed configurations after the frozenset
    configs reads the letter (top | bottom) on search's machine, less those
    that the dead table stuck calls dead.

    With stuck, the search's own table, which the pair walk always passes,
    the step is kept in search.steps under (configs, top, bottom) and read
    back from there, as a lazy DFA keeps its subset transitions; the store
    grows with the distinct steps the walks reach, not with the number of
    walks (see _Search.keep).  Without stuck, as the enumerative search
    calls it, nothing is stored or read: an unpruned set can be far larger,
    and its step is not the pruned one stored for the same key.
    """
    if stuck is not None:
        key = (configs, top, bottom)
        nxt = search.steps.get(key)
        if nxt is not None:
            return nxt
    machine, index = search.machine, search.pair_index
    closure, eps = machine.eps_closure, machine.eps_steps
    nxt = set()
    for state, counters in configs:
        options = index[state, top]
        if not options:
            continue
        for step, dst in options.get(bottom, ()):
            after = counters if step is None else step(counters)
            if after is None:
                continue
            reached = ((dst, after),)
            if dst in eps:
                reached = closure(reached)
            for cfg in reached:
                if cfg not in nxt and (stuck is None or not _dead(stuck, *cfg)):
                    nxt.add(cfg)
    nxt = frozenset(nxt)
    if stuck is not None:
        search.keep(search.steps, key, nxt)
    return nxt


def _program_directions(prog):
    """Bit masks (raise, lower) of the counters a program can move up or
    down; SET_ZERO can do both, tests do neither."""
    up = down = 0
    for step in prog:
        for i, instr in enumerate(step):
            kind = instr.kind
            if kind == INC:
                up |= 1 << i
            elif kind == DEC:
                down |= 1 << i
            elif kind == SET_ZERO:
                up |= 1 << i
                down |= 1 << i
    return up, down


def stuck_counters(machine: CounterAutomaton):
    """dict state -> (counters no path from the state to acceptance can
    lower, counters no such path can raise), of the materialized machine;
    a state that cannot reach acceptance is absent.  It stores nothing: a
    machine's search builds it once (_Search.dead), and prunes a
    LazyAutomaton with its parts' tables instead.

    Acceptance needs every counter at zero, so a configuration (q, c) is dead
    when q is absent, or some c_i > 0 that q cannot lower, or some c_i < 0
    that q cannot raise; every successor of a dead configuration is dead.
    The masks are a fixpoint over the transitions, sources taking the union
    of their targets' masks and their programs' directions; a worklist
    revisits the ways into a state only when its masks grow.
    """
    machine = machine.materialized
    effects = {}  # id(program) -> its directions
    into = {}     # state -> [source, directions, ...] of its ways in, flat
    for src, _, prog, dst in machine.transitions:
        effect = effects.get(id(prog))
        if effect is None:
            effect = effects[id(prog)] = _program_directions(prog)
        into.setdefault(dst, []).extend((src, effect))
    reach = dict.fromkeys(machine.accepts, (0, 0))
    work = list(reach)
    while work:
        dst = work.pop()
        up, down = reach[dst]
        ways = iter(into.get(dst, ()))
        for src, effect in zip(ways, ways):
            masks = (up | effect[0], down | effect[1])
            before = reach.get(src)
            if before is not None:
                masks = (masks[0] | before[0], masks[1] | before[1])
                if masks == before:
                    continue
            reach[src] = masks
            work.append(src)
    entries = {}  # (raise, lower) -> the one entry every such state shares
    table = {}
    for state, masks in reach.items():
        entry = entries.get(masks)
        if entry is None:
            up, down = masks
            entry = entries[masks] = (
                tuple(i for i in range(machine.counters) if not down >> i & 1),
                tuple(i for i in range(machine.counters) if not up >> i & 1))
        table[state] = entry
    return table


def _joint_entry(parts, key):
    """The dead-table entry of a lazy machine's state key: None (dead) when
    a part's state is dead in that part's table, else the parts' entries
    side by side, each part's counters at its offset.  Each part moves only
    by its own arrows or stays put, so a configuration whose part is dead
    has no accepting future.  A joint entry may call fewer configurations
    dead than the exact table of the materialized machine would."""
    lower, higher = (), ()
    for (table, offset), state in zip(parts, key):
        entry = table.get(state)
        if entry is None:
            return None
        lower += tuple(i + offset for i in entry[0])
        higher += tuple(i + offset for i in entry[1])
    return lower, higher


def _dead(stuck, state, counters):
    """Whether no continuation accepts (state, counters); see stuck_counters."""
    entry = stuck.get(state)
    if entry is None:
        return True
    cannot_lower, cannot_raise = entry
    for i in cannot_lower:
        if counters[i] > 0:
            return True
    for i in cannot_raise:
        if counters[i] < 0:
            return True
    return False


def multiplier_graph_search(machine: CounterAutomaton, u, length_cap: int,
                            keep=False):
    """Levelled configuration search for the unique v with (u, v) accepted.

    Level j holds every live configuration reachable by reading j tuple
    letters of a convolution whose first row is u, flagged once the second
    row has been exhausted; edges remember the second-row letter so the
    accepted word can be read off backwards.  Returns (v, trace rows,
    configurations pruned); see _LevelRows for the rows.

    A configuration the dead table calls dead is dropped (_Search.dead).  No
    configuration on an accepting path is dead, and a dead one has only dead
    successors, so the kept configurations, their edges and v are those of
    the unpruned search.  The table is built once per machine, at its first
    graph search or pair walk.

    With keep, the search shares steps with every other keeping search on
    the machine, in this call or a later one: a level and the next letter of
    u determine the next level.  Each step is kept in the search's store
    ``levels`` under (level, letter) with its next level, its edge and
    pruned counts and, per configuration, only the edge _backtrack picks;
    the store is emptied when full (see _Search.keep).  The finished answer
    goes into the same store under (u, length_cap), and a later keeping
    search of u returns it without walking; a search that raises stores
    nothing.
    """
    u = tuple(u)
    search = _search(machine)
    kept = search.levels
    if keep:
        answer = kept.get((u, length_cap))
        if answer is not None:
            return answer
    s = len(u)
    zero = machine.zero_vector()
    index = search.pair_index
    accepts = machine.final
    closure = machine.eps_closure
    eps = machine.eps_steps
    stuck = search.dead
    frozen = hit = None

    start, pruned = search.start
    level = start
    preds = []  # preds[j-1]: config at level j -> set of (config at j-1, sigma)
    edge_counts = [0]
    level_cap = max(s, length_cap)
    j = 0

    while True:
        if j >= s:
            found = [
                cfg for cfg in level
                if cfg[0] in accepts and cfg[1] == zero and (j == s or not cfg[2])
            ]
            if found:
                v = _backtrack(found, preds)
                answer = v, _LevelRows([start, *preds], edge_counts), pruned
                if keep:
                    search.keep(kept, (u, length_cap), answer)
                return answer
            if j == s:
                level = {cfg for cfg in level if not cfg[2]}
                frozen = None
        if j >= level_cap:
            raise SearchBoundExceeded(machine.name, length_cap, j)

        top = u[j] if j < s else None
        if keep:
            if frozen is None:
                frozen = frozenset(level)
            hit = kept.get((frozen, top))
        if hit is not None:
            frozen, nxt, edge_count, dropped = hit
        else:
            nxt = {}
            dead = set()
            edge_count = 0
            for cfg in level:
                state, counters, flag = cfg
                options = index[state, top]
                if not options:
                    continue
                for bottom, arrows in options.items():
                    if bottom is None:
                        if top is None:
                            continue  # the all-padding letter does not exist
                    elif flag:
                        continue  # second row already exhausted
                    new_flag = bottom is None
                    edge = (cfg, bottom)
                    for step, dst in arrows:
                        after = counters if step is None else step(counters)
                        if after is None:
                            continue
                        reached = ((dst, after),)
                        if dst in eps:
                            reached = closure(reached)
                        for q, c in reached:
                            key = (q, c, new_flag)
                            bucket = nxt.get(key)
                            if bucket is None:
                                if key in dead:
                                    continue
                                if _dead(stuck, q, c):
                                    dead.add(key)
                                    continue
                                nxt[key] = {edge}
                                edge_count += 1
                            elif edge not in bucket:
                                bucket.add(edge)
                                edge_count += 1
            dropped = len(dead)
            if keep and nxt:
                nxt = {cfg: (min(edges, key=_back_edge_order),)
                       for cfg, edges in nxt.items()}
                stored = frozenset(nxt)
                search.keep(kept, (frozen, top),
                            (stored, nxt, edge_count, dropped))
                frozen = stored
        pruned += dropped
        if not nxt:
            raise SearchBoundExceeded(machine.name, length_cap, j)
        level = nxt
        preds.append(nxt)
        j += 1
        edge_counts.append(edge_count)


class _LevelRows(Sequence):
    """A search's trace rows (j, |S_j|, |T_j|, max|c|), one per level.  The
    search keeps its levels for backtracking and counts their edges as it
    goes; max|c| is read off the levels when the rows are first read, so a
    search whose rows nobody reads never computes it."""

    def __init__(self, levels, edge_counts):
        self._levels, self._edge_counts = levels, edge_counts

    @cached_property
    def _rows(self):
        return [(j, len(level), edges, _max_counter(level)) for j, (level, edges)
                in enumerate(zip(self._levels, self._edge_counts))]

    def __len__(self):
        return len(self._edge_counts)

    def __getitem__(self, i):
        return self._rows[i]

    def __eq__(self, other):
        if isinstance(other, (list, _LevelRows)):
            return self._rows == list(other)
        return NotImplemented

    def __repr__(self):
        return repr(self._rows)


def _max_counter(configs):
    best = 0
    for _, counters, _ in configs:
        for c in counters:
            if c > best:
                best = c
            elif -c > best:
                best = -c
    return best


def _back_edge_order(edge):
    """The edge _backtrack follows is the least: letters before padding."""
    return edge[1] is None, edge[1] or "", edge[0]


def _backtrack(found, preds):
    results = set()
    for cfg in sorted(found):
        letters = []
        cur = cfg
        for j in range(len(preds) - 1, -1, -1):
            edges = preds[j][cur]
            if len(edges) == 1:
                (prev, sigma), = edges
            else:
                prev, sigma = min(edges, key=_back_edge_order)
            if sigma is not None:
                letters.append(sigma)
            cur = prev
        results.add(tuple(reversed(letters)))
    if len(results) != 1:
        raise StructureError(
            f"backtracking produced {len(results)} distinct words; "
            "normal form uniqueness violated"
        )
    return results.pop()


def multiplier_enumerative_search(machine: CounterAutomaton, u,
                                  order: OrderedAlphabet, length_cap: int):
    """Shortlex-least v with (u, v) accepted by the multiplier.

    Equivalent to testing candidates one shortlex successor at a time; the
    implementation shares convolution prefixes and abandons a prefix once its
    configuration set is empty, which cannot change the first hit.
    """
    u = tuple(u)
    search = _search(machine)

    def dfs(configs, depth, target):
        if depth == target:  # accepted once the rest of u reads padding?
            for top in u[depth:]:
                configs = _advance(search, configs, top, None)
            return () if machine.accepting(configs) else None
        top = u[depth] if depth < len(u) else None
        for sigma in order.letters:
            nxt = _advance(search, configs, top, sigma)
            if not nxt:
                continue
            sub = dfs(nxt, depth + 1, target)
            if sub is not None:
                return (sigma,) + sub
        return None

    start = frozenset(machine.initial_configs())
    for target in range(length_cap + 1):
        hit = dfs(start, 0, target)
        if hit is not None:
            return hit
    raise SearchBoundExceeded(machine.name, length_cap, length_cap)


_PADDING = ((None, None),)


def candidate_trie(words):
    """(words, root) for accepted_candidates: a prefix trie of the words,
    each node a pair (word ending there or None, moves), a move (letter,
    node after it) for each way a row can go on.  A word's node also moves
    on padding (None) to a node that only pads, its one move _PADDING
    naming no node: the walk stays there, and the trie holds no cycle."""
    words = [tuple(w) for w in words]
    branches = {}
    for w in words:
        node = branches
        for tok in w:
            node = node.setdefault(tok, {})
        node[None] = w

    def compile(node):
        word = node.pop(None, None)
        moves = [(tok, compile(child)) for tok, child in node.items()]
        if word is not None:
            moves.append((None, (word, _PADDING)))
        return word, moves

    return words, compile(branches)


def accepted_candidates(machine: CounterAutomaton, trie):
    """dict mapping each word u of a candidate_trie to the set of its words
    v with (u, v) accepted by the multiplier.

    One walk over pairs of trie nodes evaluates the same membership predicate
    as accepts() on every convolution, sharing the configuration set of each
    pair of prefixes.  A word that has ended is read as padding (None) on its
    row; the letter with both rows padded is never read.  Configurations
    that the dead table calls dead are dropped; they have no accepting
    future.  Each step is kept in the search's bounded store (see
    _advance), so a later walk, of this trie or another, reads the steps it
    repeats unless a flush has emptied the store since.
    """
    search = _search(machine)
    stuck = search.dead
    accepting = machine.accepting
    words, root = trie
    accepted = {w: set() for w in words}

    def walk(top_node, bottom_node, configs):
        (u, top_moves), (v, bottom_moves) = top_node, bottom_node
        if u is not None and v is not None and accepting(configs):
            accepted[u].add(v)
        for top, top_child in top_moves:
            for bottom, bottom_child in bottom_moves:
                if top is None and bottom is None:
                    continue
                nxt = _advance(search, configs, top, bottom, stuck)
                if nxt:
                    walk(top_child or top_node, bottom_child or bottom_node, nxt)

    walk(root, root, frozenset(machine.initial_configs()))
    return accepted


def _transposed(accepted):
    """accepted_candidates of a machine's row swap, read off the machine's
    dict for the same trie: the swap accepts (v, u) exactly when the machine
    accepts (u, v)."""
    out = {w: set() for w in accepted}
    for u, vs in accepted.items():
        for v in vs:
            out[v].add(u)
    return out


# ---------------------------------------------------------------------------
# the structure


class GraphAutomaticStructure:
    """Normal-form automaton, per-generator multipliers, and a seed pair.

    A multiplier is given either as a machine or as a loader, a callable
    that makes the machine; a loader runs once, when its generator is first
    used, so a command pays only for the multipliers its words touch.  A
    generator with neither, and no family factory, gets the row swap of its
    inverse's multiplier, since L_{x-} = {(v, u) : (u, v) in L_x}; one
    generator of each inverse pair is enough.  The swap and its inverse share
    one dead table, built at the first search of either.  A loader with a
    ``path`` attribute names that file when its machine fails a check.

    A builder that proves its multipliers accept only pairs in L x L, so
    that they and their row swaps map L into L, passes keeps_l: normal_form
    then skips the L check on its steps' inputs.  Loading never declares it.

    Every symbol must be read by the normal-form machine and must survive as
    a row of a pair letter, ``tuple_token`` then ``parse_tuple_token``.

    The seed (p, q) gives one known correspondence: q is a normal form for the
    element spelled by the generator word p.  The identity's normal form is
    computed once from it at load time and cached; all multiplications then
    start from it.
    """

    def __init__(self, name, symbols, generators: GeneratorSet,
                 nf_automaton: CounterAutomaton, multipliers: dict,
                 seed_p=(), seed_q=(), quasigeodesic_c=None,
                 growth: GrowthPolicy = GrowthPolicy(1, 4), order=None,
                 family_beta: Optional[Callable[[int], int]] = None,
                 keeps_l=False):
        self.name = name
        self.symbols = tuple(symbols)
        self.generators = generators
        self.nf_automaton = nf_automaton
        self._multipliers = {tok: m for tok, m in multipliers.items()
                             if isinstance(m, CounterAutomaton)}
        self._loaders = {tok: m for tok, m in multipliers.items()
                         if tok not in self._multipliers}
        self.seed_p = tuple(seed_p)
        self.seed_q = tuple(seed_q)
        self.quasigeodesic_c = quasigeodesic_c
        self.growth = growth
        self.order = OrderedAlphabet(tuple(order) if order else self.symbols)
        self.family_beta = family_beta
        self.keeps_l = keeps_l
        self._mu = None
        self._last_in_l = None  # the last step input found in L
        self._check()
        self._mu = self._compute_mu()

    # -- bookkeeping ---------------------------------------------------------

    def _check(self):
        for tok in [*self._multipliers, *self._loaders]:
            if tok not in self.generators:
                raise StructureError(f"multiplier for unknown generator {tok!r}")
        for symbol in self.symbols:
            try:
                row = parse_tuple_token(tuple_token((symbol, symbol)))
            except LangOpError:
                row = None
            if row != (symbol, symbol):
                raise StructureError(
                    f"symbol {symbol!r} cannot be a row of a pair letter")
            if symbol not in self.nf_automaton.alphabet_set:
                raise StructureError(
                    f"the normal form machine does not read symbol {symbol!r}")
        self._pair_letters = frozenset(pair_letters(self.symbols))
        for tok, machine in self._multipliers.items():
            self._check_letters(tok, machine)
        if not self.nf_automaton.accepts_word(self.seed_q):
            raise StructureError("seed word q is not in the normal form language")

    def _check_letters(self, token, machine, path=None):
        for letter in machine.alphabet:
            if letter not in self._pair_letters:
                raise StructureError(
                    (f"{path}: " if path else "") +
                    f"multiplier {token!r} uses letter {letter!r} outside the "
                    "pair alphabet")

    def multiplier(self, token) -> CounterAutomaton:
        machine = self._own_multiplier(token)
        if machine is None and token in self.generators:
            inverse = self._own_multiplier(self.generators.inverse_of(token))
            if inverse is not None:
                # the swap's search reads its inverse's tables (_Search)
                swap = swap_rows(inverse, inverse.name + "-")
                _search(swap, _search(inverse))
                machine = self._multipliers.setdefault(token, swap)
        if machine is None:
            raise StructureError(
                f"no multiplier available for generator {token!r}")
        return machine

    def _own_multiplier(self, token):
        """token's multiplier from its own machine, loader or family factory,
        made once and stored; None if it has none of these."""
        machine = self._multipliers.get(token)
        if machine is not None:
            return machine
        loader = self._loaders.get(token)
        family = self.generators.family
        if loader is None and family is not None and family.factory is not None:
            parsed = family.parse(token)
            if parsed is not None and not parsed[1]:
                loader = partial(family.factory, parsed[0])
        if loader is None:
            return None
        try:
            machine = loader()
        except MemoryError:
            # a huge family index sizes a machine that cannot be allocated
            raise StructureError(
                f"no memory to build the multiplier of {token!r}") from None
        self._check_letters(token, machine, getattr(loader, "path", None))
        # stored before the loader goes: a concurrent caller finds one
        machine = self._multipliers.setdefault(token, machine)
        self._loaders.pop(token, None)
        return machine

    def instantiated_family_indices(self):
        family = self.generators.family
        parsed = map(family.parse, self._multipliers) if family else ()
        return sorted({p[0] for p in parsed if p is not None})

    def step_cap(self, length, token) -> int:
        extra = 0
        family = self.generators.family
        if family is not None and self.family_beta is not None:
            parsed = family.parse(token)
            if parsed is not None:
                extra = self.family_beta(parsed[0])
        return self.growth.cap(length, extra)

    def step_beta(self, tokens) -> int:
        """Largest additive step term, step_cap(0, x), over finitely many
        generators; a family member may outgrow the base beta."""
        return max((self.step_cap(0, x) for x in tokens),
                   default=self.growth.beta)

    def _step_trace(self, token, u, v, per_level, pruned) -> StepTrace:
        machine = self.multiplier(token)
        return StepTrace(
            generator=token,
            input_length=len(u),
            output=v,
            levels=len(per_level) - 1,
            pruned=pruned,
            machine_states=len(machine.states),
            machine_degree=machine.degree_bound(),
            machine_growth=counter_growth_bound(machine, 1),
            machine_eps_bound=machine.epsilon_bound(),
            machine_counters=machine.counters,
            per_level=list(per_level),
        )

    # -- normal forms ---------------------------------------------------------

    def _compute_mu(self):
        u = self.seed_q
        for tok in reversed(self.seed_p):
            u = self.step_normal_form(u, self.generators.inverse_of(tok))
        return u

    @property
    def mu(self):
        """Normal form of the identity element."""
        return self._mu

    def step_normal_form(self, u, x, trace_sink=None, keep=False):
        """The unique v in L with v's element equal to u's element times x;
        keep shares the search's steps through the machine's store (see
        multiplier_graph_search).
        u is checked against L unless it is the last input found there:
        verify steps each input by every generator in turn, and on a
        structure that keeps_l, verify and normal_form mark each input there."""
        u = tuple(u)
        if x not in self.generators:
            raise StructureError(f"unknown generator {x!r}")
        if u != self._last_in_l:
            if not self.nf_automaton.accepts_word(u):
                raise StructureError(
                    f"word {' '.join(u) or 'EPS'} is not in L")
            self._last_in_l = u
        machine = self.multiplier(x)
        v, per_level, pruned = multiplier_graph_search(
            machine, u, self.step_cap(len(u), x), keep)
        if trace_sink is not None:
            trace_sink.append(self._step_trace(x, u, v, per_level, pruned))
        return v

    def step_normal_form_enumerative(self, u, x):
        """Same result as step_normal_form via shortlex candidate enumeration."""
        u = tuple(u)
        if x not in self.generators:
            raise StructureError(f"unknown generator {x!r}")
        if not self.nf_automaton.accepts_word(u):
            raise StructureError(f"word {' '.join(u) or 'EPS'} is not in L")
        machine = self.multiplier(x)
        return multiplier_enumerative_search(
            machine, u, self.order, self.step_cap(len(u), x))

    def normal_form(self, word, algo="graph", with_trace=False):
        """Fold multiplications across the word, starting at the identity."""
        word = tuple(word)
        steps = [] if with_trace else None
        chosen = [self._mu]
        u = self._mu
        for x in word:
            if algo == "graph":
                if self.keeps_l:
                    self._last_in_l = u  # mu or the last step's output, in L
                u = self.step_normal_form(u, x, trace_sink=steps)
            elif algo == "enum":
                u = self.step_normal_form_enumerative(u, x)
            else:
                raise StructureError(f"unknown algorithm {algo!r}")
            chosen.append(u)
        if with_trace:
            return u, NormalFormTrace(word, chosen, steps)
        return u

    def word_problem(self, word) -> bool:
        return self.normal_form(word) == self._mu

    def are_equal(self, w1, w2) -> bool:
        return self.normal_form(w1) == self.normal_form(w2)


# ---------------------------------------------------------------------------
# verification against an independent oracle


@dataclass
class VerificationFailure:
    kind: str  # termination | bijection-collision | bijection-split |
               # multiplier-sound | multiplier-complete | quasigeodesic
    witness: tuple
    detail: str


@dataclass
class VerificationReport:
    structure: str
    oracle: str
    radius: int
    words_checked: int = 0
    elements: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, kind, witness, detail):
        self.failures.append(VerificationFailure(kind, tuple(witness), detail))


def verify(structure: GraphAutomaticStructure, radius: int,
           oracle) -> VerificationReport:
    """Walk the Cayley ball over distinct (normal form, oracle class) states:
    normal forms must terminate and realize exactly the oracle's classes, and
    the multipliers must accept precisely the right pairs.  Structures that
    declare a quasigeodesic constant get the length inequality checked too.

    The walk's searches and pair walks keep their steps, and the searches
    their answers, in the machines' bounded stores (_Search), which outlive
    the call: a later verify of the structure reads what it repeats.  Each
    machine is walked once, an alias's as its letter's, and a row swap whose
    twin is walked takes the twin's pairs transposed; on a structure that
    keeps_l no state's normal form is checked against L again."""
    if radius < 0:
        raise StructureError(f"radius must be non-negative, got {radius}")
    report = VerificationReport(structure.name, oracle.name, radius)
    gens = structure.generators.tokens()
    classes = {}   # oracle canonical form -> (first word, normal form)
    nf_class = {}  # normal form -> oracle canonical form
    # A state is (normal form, canonical form); moves maps it to its successor
    # per generator (None on a failed step), a level to (first word, #words).
    moves, level = {}, {(structure.mu, oracle.canonicalize(())): ((), 1)}
    report.words_checked = 1
    for d in range(radius + 1):
        nxt = {}
        for state, (word, count) in level.items():
            new = state not in moves  # recorded and stepped once, when new
            if new:
                _record(report, word, *state, classes, nf_class)
            if d == radius:
                continue
            if new:
                if structure.keeps_l:
                    structure._last_in_l = state[0]  # mu or a step's output
                moves[state] = [_move(structure, oracle, report, state[0],
                                      word + (x,)) for x in gens]
            for x, after in zip(gens, moves[state]):
                report.words_checked += count
                if after is not None:
                    first, total = nxt.get(after, (word + (x,), 0))
                    nxt[after] = (first, total + count)
        level = nxt
    report.elements = len(classes)

    trie = candidate_trie(nf for _, nf in classes.values())
    accepted, walked = {}, {}  # walked: search -> its machine's pairs
    for x in gens:
        search = _search(structure.multiplier(x))
        if search not in walked:
            twin = search.twin
            if twin in walked:
                walked[search] = _transposed(walked[twin])
            else:
                walked[search] = accepted_candidates(search.machine, trie)
                if twin is not None:  # a row swap walked before its inverse
                    walked[twin] = _transposed(walked[search])
        accepted[x] = walked[search]
    for canon, (u_word, u_nf) in sorted(classes.items()):
        # a class stepped by the walk has its targets; at the radius, or
        # past a failed step, the oracle gives them
        stepped = moves.get((u_nf, canon)) or [None] * len(gens)
        for x, after in zip(gens, stepped):
            target = after[1] if after else oracle.canonicalize(u_word + (x,))
            expected = {classes[target][1]} if target in classes else set()
            got = accepted[x][u_nf]
            for v in sorted(got - expected):
                report.add("multiplier-sound", u_word,
                           f"M_{x} accepts ({_w(u_nf)}, {_w(v)}) wrongly")
            for v in sorted(expected - got):
                report.add("multiplier-complete", u_word,
                           f"M_{x} misses ({_w(u_nf)}, {_w(v)})")

    if structure.quasigeodesic_c is not None:
        from .shortlex import geodesic_length
        C, order = structure.quasigeodesic_c, OrderedAlphabet(tuple(gens))
        for _, (word, nf) in sorted(classes.items()):
            g = geodesic_length(oracle, order, word)
            if len(nf) > C * (g + 1):
                report.add("quasigeodesic", word,
                           f"|{_w(nf)}| = {len(nf)} > {C}*({g}+1)")
    return report


def _move(structure, oracle, report, nf, word):
    """Word's state from stepping its last letter off nf, None on failure."""
    try:
        return (structure.step_normal_form(nf, word[-1], keep=True),
                oracle.canonicalize(word))
    except SearchBoundExceeded as exc:
        report.add("termination", word, str(exc))
        return None


def _record(report, word, nf, canon, classes, nf_class):
    if canon in classes:
        if classes[canon][1] != nf:
            report.add("bijection-split", word,
                       f"{_w(word)} got {_w(nf)} but class has {_w(classes[canon][1])}")
        return
    if nf_class.get(nf, canon) != canon:
        report.add("bijection-collision", word,
                   f"distinct elements share normal form {_w(nf)}")
    classes[canon], nf_class[nf] = (word, nf), canon


def _w(word):
    return " ".join(word) if word else "EPS"
