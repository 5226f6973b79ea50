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
from dataclasses import dataclass, field
from typing import Callable, Optional

from .automata import CounterAutomaton, apply_program, counter_growth_bound
from .langops import pair_alphabet, parse_tuple_token, convolve
from .shortlex import OrderedAlphabet, iter_shortlex


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


@dataclass(frozen=True)
class GeneratorInfo:
    token: str
    inverse: str
    self_inverse: bool = False


@dataclass
class FamilySpec:
    """Parameterized generator family like x1, x2, ... with formal inverses
    x1-, x2-, ....  The factory builds both multipliers for one index."""

    base: str
    factory: Optional[Callable[[int], dict]] = None
    max_index: Optional[int] = None

    def __post_init__(self):
        self._pattern = re.compile(re.escape(self.base) + r"(\d+)(-?)")

    def parse(self, token):
        m = self._pattern.fullmatch(token)
        if not m:
            return None
        index = int(m.group(1))
        if index < 1 or (self.max_index is not None and index > self.max_index):
            return None
        return index, m.group(2) == "-"

    def tokens_up_to(self, bound):
        out = []
        for i in range(1, bound + 1):
            out.append(f"{self.base}{i}")
            out.append(f"{self.base}{i}-")
        return out


class GeneratorSet:
    """Symmetric generating set: fixed tokens with a total inverse involution,
    plus at most one parameterized family."""

    def __init__(self, entries, family: Optional[FamilySpec] = None):
        self.entries = tuple(entries)
        self.family = family
        self._by_token = {}
        for info in self.entries:
            self._by_token[info.token] = info
            if info.self_inverse:
                if info.inverse != info.token:
                    raise StructureError(f"{info.token} marked self-inverse but paired")
            else:
                if info.inverse == info.token:
                    raise StructureError(f"{info.token} needs self_inverse marking")
                self._by_token.setdefault(
                    info.inverse, GeneratorInfo(info.inverse, info.token))

    @classmethod
    def from_pairs(cls, pairs, family=None):
        """pairs: iterable of (token, inverse_token)."""
        entries = []
        for tok, inv in pairs:
            entries.append(GeneratorInfo(tok, inv, self_inverse=(tok == inv)))
        return cls(entries, family)

    def __contains__(self, token):
        if token in self._by_token:
            return True
        return self.family is not None and self.family.parse(token) is not None

    def inverse_of(self, token):
        info = self._by_token.get(token)
        if info is not None:
            return info.inverse
        if self.family is not None:
            parsed = self.family.parse(token)
            if parsed is not None:
                index, inv = parsed
                return f"{self.family.base}{index}" + ("" if inv else "-")
        raise StructureError(f"unknown generator {token!r}")

    def tokens(self):
        """All concrete generator tokens; family tokens only up to max_index."""
        out = list(dict.fromkeys(
            tok for info in self.entries for tok in (info.token, info.inverse)))
        if self.family is not None:
            if self.family.max_index is None:
                raise StructureError(
                    "cannot enumerate an unbounded generator family")
            out.extend(t for t in self.family.tokens_up_to(self.family.max_index)
                       if t not in out)
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


def _pair_index(machine: CounterAutomaton):
    """dict (state, top) -> dict bottom -> the machine's own arrow list for
    the letter (top | bottom), with None for the padding row; built once
    per machine."""
    index = getattr(machine, "_cga_pair_index", None)
    if index is None:
        index = {}
        for (state, letter), arrows in machine.by_state_letter.items():
            top, bottom = parse_tuple_token(letter)
            index.setdefault((state, top), {})[bottom] = arrows
        machine._cga_pair_index = index
    return index


def _advance(machine, index, configs, top, bottom):
    """Epsilon-closed configurations after reading the letter (top | bottom)."""
    nxt = set()
    for state, counters in configs:
        options = index.get((state, top))
        if not options:
            continue
        for prog, dst in options.get(bottom, ()):
            after = apply_program(prog, counters)
            if after is not None:
                nxt.add((dst, after))
    return machine.eps_closure(nxt)


def _accepts_padded(machine, index, configs, u, depth):
    """Whether configs accept once the rest of u is read against padding."""
    for top in u[depth:]:
        configs = _advance(machine, index, configs, top, None)
    return machine.accepting(configs)


def multiplier_graph_search(machine: CounterAutomaton, u, length_cap: int):
    """Levelled configuration search for the unique v with (u, v) accepted.

    Level j holds every configuration reachable by reading j tuple letters of
    a convolution whose first row is u, flagged once the second row has been
    exhausted; edges remember the second-row letter so the accepted word can
    be read off backwards.  Returns (v, trace rows).
    """
    u = tuple(u)
    s = len(u)
    zero = machine.zero_vector()
    index = _pair_index(machine)
    accepts = machine.accepts
    closure = machine.eps_closure

    level = {(state, counters, False) for state, counters in machine.initial_configs()}
    preds = []  # preds[j-1]: config at level j -> set of (config at j-1, sigma)
    per_level = [(0, len(level), 0, _max_counter(level))]
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
                return v, per_level
            if j == s:
                level = {cfg for cfg in level if not cfg[2]}
        if j >= level_cap:
            raise SearchBoundExceeded(machine.name, length_cap, j)

        top = u[j] if j < s else None
        nxt = {}
        edge_count = 0
        for cfg in level:
            state, counters, flag = cfg
            options = index.get((state, top))
            if not options:
                continue
            for bottom, arrows in options.items():
                if flag and bottom is not None:
                    continue  # second row already exhausted
                if top is None and bottom is None:
                    continue  # the all-padding letter does not exist
                new_flag = flag or bottom is None
                edge = (cfg, bottom)
                for prog, dst in arrows:
                    after = apply_program(prog, counters)
                    if after is None:
                        continue
                    for q, c in closure({(dst, after)}):
                        bucket = nxt.setdefault((q, c, new_flag), set())
                        if edge not in bucket:
                            bucket.add(edge)
                            edge_count += 1
        if not nxt:
            raise SearchBoundExceeded(machine.name, length_cap, j)
        level = set(nxt)
        preds.append(nxt)
        j += 1
        per_level.append((j, len(level), edge_count, _max_counter(level)))


def _max_counter(configs):
    best = 0
    for _, counters, _ in configs:
        for c in counters:
            if c > best:
                best = c
            elif -c > best:
                best = -c
    return best


def _backtrack(found, preds):
    results = set()
    for cfg in sorted(found):
        letters = []
        cur = cfg
        for j in range(len(preds) - 1, -1, -1):
            prev, sigma = min(
                preds[j][cur],
                key=lambda e: (e[1] is None, e[1] or "", e[0]),
            )
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
    index = _pair_index(machine)

    def dfs(configs, depth, target):
        if depth == target:
            return () if _accepts_padded(machine, index, configs, u, depth) else None
        top = u[depth] if depth < len(u) else None
        for sigma in order.letters:
            nxt = _advance(machine, index, configs, top, sigma)
            if not nxt:
                continue
            sub = dfs(nxt, depth + 1, target)
            if sub is not None:
                return (sigma,) + sub
        return None

    start = machine.initial_configs()
    for target in range(length_cap + 1):
        hit = dfs(start, 0, target)
        if hit is not None:
            return hit
    raise SearchBoundExceeded(machine.name, length_cap, length_cap)


def multiplier_enumerative_naive(machine: CounterAutomaton, u,
                                 order: OrderedAlphabet, length_cap: int):
    """Literal successor-by-successor enumeration; reference for tests."""
    for v in iter_shortlex(order, length_cap):
        if machine.accepts_word(convolve(u, v)):
            return v
    raise SearchBoundExceeded(machine.name, length_cap, length_cap)


_TERMINAL = ("",)  # trie key marking the end of a candidate word


def candidate_trie(words):
    """Prefix trie of candidate words, for accepted_candidates."""
    trie = {}
    for w in words:
        node = trie
        for tok in w:
            node = node.setdefault(tok, {})
        node[_TERMINAL] = tuple(w)
    return trie


def accepted_candidates(machine: CounterAutomaton, u, trie):
    """Candidate words v of a candidate_trie with (u, v) accepted by the
    multiplier.

    Evaluates the same membership predicate as accepts() on each convolution,
    sharing work across candidates with a common prefix.
    """
    u = tuple(u)
    index = _pair_index(machine)
    accepted = []

    def walk(node, depth, configs):
        word = node.get(_TERMINAL)
        if word is not None and _accepts_padded(machine, index, configs, u, depth):
            accepted.append(word)
        top = u[depth] if depth < len(u) else None
        for sigma, child in node.items():
            if sigma == _TERMINAL:
                continue
            nxt = _advance(machine, index, configs, top, sigma)
            if nxt:
                walk(child, depth + 1, nxt)

    walk(trie, 0, machine.initial_configs())
    return accepted


# ---------------------------------------------------------------------------
# the structure


class GraphAutomaticStructure:
    """Normal-form automaton, per-generator multipliers, and a seed pair.

    The seed (p, q) gives one known correspondence: q is a normal form for the
    element spelled by the generator word p.  The identity's normal form is
    computed once from it at load time and cached; all multiplications then
    start from it.
    """

    def __init__(self, name, symbols, generators: GeneratorSet,
                 nf_automaton: CounterAutomaton, multipliers: dict,
                 seed_p=(), seed_q=(), quasigeodesic_c=None,
                 growth: GrowthPolicy = GrowthPolicy(1, 4), order=None,
                 family_beta: Optional[Callable[[int], int]] = None):
        self.name = name
        self.symbols = tuple(symbols)
        self.generators = generators
        self.nf_automaton = nf_automaton
        self._multipliers = dict(multipliers)
        self._family_cache = {}
        self.seed_p = tuple(seed_p)
        self.seed_q = tuple(seed_q)
        self.quasigeodesic_c = quasigeodesic_c
        self.growth = growth
        self.order = OrderedAlphabet(tuple(order) if order else self.symbols)
        self.family_beta = family_beta
        self._mu = None
        self._check()
        self._mu = self._compute_mu()

    # -- bookkeeping ---------------------------------------------------------

    def _check(self):
        pairs = pair_alphabet(self.symbols)
        for tok, machine in self._multipliers.items():
            if tok not in self.generators:
                raise StructureError(f"multiplier for unknown generator {tok!r}")
            for letter in machine.alphabet:
                if letter not in pairs:
                    raise StructureError(
                        f"multiplier {tok!r} uses letter {letter!r} outside the "
                        "pair alphabet")
        if not self.nf_automaton.accepts_word(self.seed_q):
            raise StructureError("seed word q is not in the normal form language")

    def multiplier(self, token) -> CounterAutomaton:
        machine = self._multipliers.get(token)
        if machine is not None:
            return machine
        family = self.generators.family
        if family is not None and family.factory is not None:
            parsed = family.parse(token)
            if parsed is not None:
                index, _ = parsed
                built = self._family_cache.get(index)
                if built is None:
                    built = family.factory(index)
                    self._family_cache[index] = built
                return built[token]
        raise StructureError(f"no multiplier available for generator {token!r}")

    def instantiated_family_indices(self):
        return sorted(self._family_cache)

    def step_cap(self, length, token) -> int:
        extra = 0
        family = self.generators.family
        if family is not None and self.family_beta is not None:
            parsed = family.parse(token)
            if parsed is not None:
                extra = self.family_beta(parsed[0])
        return self.growth.cap(length, extra)

    def _step_trace(self, token, u, v, per_level) -> StepTrace:
        machine = self.multiplier(token)
        return StepTrace(
            generator=token,
            input_length=len(u),
            output=v,
            levels=len(per_level) - 1,
            machine_states=len(machine.states),
            machine_degree=machine.degree_bound(),
            machine_growth=counter_growth_bound(machine, 1),
            machine_eps_bound=machine.epsilon_bound(),
            machine_counters=machine.counters,
            per_level=per_level,
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

    def step_normal_form(self, u, x, trace_sink=None):
        """The unique v in L with v's element equal to u's element times x."""
        u = tuple(u)
        if x not in self.generators:
            raise StructureError(f"unknown generator {x!r}")
        if not self.nf_automaton.accepts_word(u):
            raise StructureError(f"word {' '.join(u) or 'EPS'} is not in L")
        machine = self.multiplier(x)
        v, per_level = multiplier_graph_search(machine, u, self.step_cap(len(u), x))
        if trace_sink is not None:
            trace_sink.append(self._step_trace(x, u, v, per_level))
        return v

    def step_normal_form_enumerative(self, u, x):
        """Same result as step_normal_form via shortlex candidate enumeration."""
        u = tuple(u)
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
                u = self.step_normal_form(u, x, trace_sink=steps)
            elif algo == "enum":
                u = self.step_normal_form_enumerative(u, x)
            else:
                raise StructureError(f"unknown algorithm {algo!r}")
            chosen.append(u)
        if with_trace:
            return u, NormalFormTrace(word, chosen, steps)
        return u

    def word_problem(self, word, algo="graph") -> bool:
        return self.normal_form(word, algo=algo) == self._mu

    def are_equal(self, w1, w2, algo="graph") -> bool:
        return self.normal_form(w1, algo=algo) == self.normal_form(w2, algo=algo)


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
    declare a quasigeodesic constant get the length inequality checked too."""
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
    for _, (u_word, u_nf) in sorted(classes.items()):
        for x in gens:
            target = oracle.canonicalize(u_word + (x,))
            expected = {classes[target][1]} if target in classes else set()
            got = set(accepted_candidates(structure.multiplier(x), u_nf, trie))
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
        return structure.step_normal_form(nf, word[-1]), oracle.canonicalize(word)
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
