"""Concrete groups: ground-truth oracles, the Baumslag-Solitar and
infinite-rank free group structures, a minimal infinite cyclic structure,
and the closure combinators (change of generators, direct product, free
product).

Oracles are independent canonical-form calculators (free reduction, the
Baumslag-Solitar rewriting system) used as ground truth when verifying the
automaton-based structures; they share no code with the machines they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby
from operator import itemgetter

from .automata import (
    EPSILON,
    EMPTY_PROGRAM,
    SETZ,
    TEST0,
    TESTN0,
    CounterAutomaton,
    LazyTable,
    delta_program,
)
from .langops import (
    LangOpError,
    compose,
    convolve,
    embed,
    explore,
    intersect,
    pad_lift,
    padded_moves,
    pair_letters,
    parse_tuple_token,
    program_joiner,
    quotient,
    relabel,
    trim,
    tuple_token,
    union_all,
)
from .gastructure import (
    FamilySpec,
    GeneratorSet,
    GraphAutomaticStructure,
    GrowthPolicy,
    StructureError,
)


# ---------------------------------------------------------------------------
# oracles


def free_reduce(word, inverse_of):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for tok in word:
        if out and out[-1] == inverse_of(tok):
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


class GroupOracle:
    """Canonical-form calculator used as independent ground truth."""

    name = "oracle"

    def __init__(self, generators: GeneratorSet):
        self.generators = generators

    def inverse_of(self, token):
        return self.generators.inverse_of(token)

    def canonicalize(self, word):
        raise NotImplementedError

    def is_trivial(self, word) -> bool:
        return self.canonicalize(word) == ()

    def equal(self, w1, w2) -> bool:
        return self.canonicalize(w1) == self.canonicalize(w2)


class FreeGroupOracle(GroupOracle):
    """Free group on the given generators; canonical form = freely reduced."""

    def __init__(self, generators: GeneratorSet, name="free"):
        super().__init__(generators)
        self.name = name

    def canonicalize(self, word):
        return free_reduce(word, self.inverse_of)


# -- Baumslag-Solitar rewriting ----------------------------------------------


class BSDecodeError(Exception):
    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class BSNormalPair:
    """Element of BS(m,n) as P * a^N with P a freely reduced word over the
    stable-letter alphabet (tokens like ``t``, ``at``, ``aat-``)."""

    p_word: tuple
    n_value: int

    def __post_init__(self):
        prev = None
        for tok in self.p_word:
            if prev is not None and not _pi_adjacent_ok(prev, tok):
                raise BSDecodeError(
                    "bad-P", f"{prev!r} {tok!r} is not freely reduced")
            prev = tok


def _is_t_type(token) -> bool:
    return not token.endswith("-")


def _pi_token(a_count, positive) -> str:
    return "a" * a_count + ("t" if positive else "t-")


def _pi_a_count(token) -> int:
    return len(token) - (1 if _is_t_type(token) else 2)


def _pi_adjacent_ok(prev, cur) -> bool:
    # forbidden cancellations: (...t)(t-) and (...t-)(t)
    if _is_t_type(prev):
        return cur != "t-"
    return cur != "t"


def _check_pi_word(p_word, m, n):
    prev = None
    for tok in p_word:
        a_count = _pi_a_count(tok)
        if tok != _pi_token(a_count, _is_t_type(tok)):
            raise BSDecodeError("bad-P", f"{tok!r} is not a stable-letter token")
        if _is_t_type(tok):
            if a_count >= n:
                raise BSDecodeError("bad-P", f"{tok!r} has a-power >= n")
        elif a_count >= m:
            raise BSDecodeError("bad-P", f"{tok!r} has a-power >= m")
        if prev is not None and not _pi_adjacent_ok(prev, tok):
            raise BSDecodeError("bad-P", f"{prev!r} {tok!r} is not freely reduced")
        prev = tok


def bs_canonicalize(word, m, n) -> BSNormalPair:
    """Push every a-power to the right and freely reduce, left to right."""
    p_word = []
    value = 0
    for tok in word:
        if tok == "a":
            value += 1
        elif tok == "a-":
            value -= 1
        elif tok == "t":
            q, s = divmod(value, n)
            if s == 0 and p_word and not _is_t_type(p_word[-1]):
                value = _pi_a_count(p_word.pop()) + q * m
            else:
                p_word.append(_pi_token(s, True))
                value = q * m
        elif tok == "t-":
            q, r = divmod(value, m)
            if r == 0 and p_word and _is_t_type(p_word[-1]):
                value = _pi_a_count(p_word.pop()) + q * n
            else:
                p_word.append(_pi_token(r, False))
                value = q * n
        else:
            raise StructureError(f"unknown BS generator {tok!r}")
    return BSNormalPair(tuple(p_word), value)


def bs_pair_to_word(pair: BSNormalPair):
    """Render a normal pair as a generator word (canonical form)."""
    out = []
    for tok in pair.p_word:
        out.extend(["a"] * _pi_a_count(tok))
        out.append("t" if _is_t_type(tok) else "t-")
    out.extend(["a"] * pair.n_value if pair.n_value >= 0
               else ["a-"] * (-pair.n_value))
    return tuple(out)


class BSOracle(GroupOracle):
    def __init__(self, m, n):
        if not 2 <= m < n:
            raise StructureError("BS oracle needs 2 <= m < n")
        super().__init__(GeneratorSet([("a", "a-"), ("t", "t-")]))
        self.m, self.n = m, n
        self.name = f"bs:{m},{n}"

    def pair(self, word) -> BSNormalPair:
        return bs_canonicalize(word, self.m, self.n)

    def canonicalize(self, word):
        return bs_pair_to_word(self.pair(word))


def bs_encode(pair: BSNormalPair, m, n):
    """Symbol word P # run # run # run # run with |N| = p*m+r = q*n+s."""
    _check_pi_word(pair.p_word, m, n)
    word = list(pair.p_word)
    value = pair.n_value
    if value == 0:
        word.extend(["#"] * 4)
        return tuple(word)
    tok = "1" if value > 0 else "-1"
    mag = abs(value)
    p, r = divmod(mag, m)
    q, s = divmod(mag, n)
    for run in (r, p, s, q):
        word.append("#")
        word.extend([tok] * run)
    return tuple(word)


def bs_decode(word, m, n) -> BSNormalPair:
    """Inverse of bs_encode, with diagnostics naming the violated condition."""
    segments = [[]]
    for tok in word:
        if tok == "#":
            segments.append([])
        else:
            segments[-1].append(tok)
    if len(segments) != 5:
        raise BSDecodeError("hash-count", f"expected 4 '#', got {len(segments) - 1}")
    p_part, *runs = segments
    _check_pi_word(tuple(p_part), m, n)
    sign = 0
    for run in runs:
        for tok in run:
            if tok not in ("1", "-1"):
                raise BSDecodeError("bad-run", f"{tok!r} inside a run")
            here = 1 if tok == "1" else -1
            if sign == 0:
                sign = here
            elif sign != here:
                raise BSDecodeError("mixed-signs", "runs mix 1 and -1")
    r, p, s, q = (len(run) for run in runs)
    if r >= m:
        raise BSDecodeError("r>=m", f"r={r} is not less than m={m}")
    if s >= n:
        raise BSDecodeError("s>=n", f"s={s} is not less than n={n}")
    if r + p * m != s + q * n:
        raise BSDecodeError(
            "sum-mismatch", f"r+pm={r + p * m} whereas s+qn={s + q * n}")
    return BSNormalPair(tuple(p_part), sign * (r + p * m) if sign else 0)


# ---------------------------------------------------------------------------
# Baumslag-Solitar structure


def bs_symbols(m, n):
    return bs_pi_tokens(m, n) + ("1", "-1", "#")


def bs_pi_tokens(m, n):
    return tuple(_pi_token(i, True) for i in range(n)) + \
        tuple(_pi_token(j, False) for j in range(m))


def bs_l1_machine(m, n) -> CounterAutomaton:
    """Blind deterministic 1-counter machine whose counter checks r+pm = s+qn
    (positive, negative and all-empty run shapes)."""
    symbols = bs_symbols(m, n)
    t = []
    for pi in bs_pi_tokens(m, n):
        t.append(("S", pi, EMPTY_PROGRAM, "S"))
    t.append(("S", "#", EMPTY_PROGRAM, "r"))
    for tok, tag in (("1", "+"), ("-1", "-")):
        rr, pp, ss, qq = f"r{tag}", f"p{tag}", f"s{tag}", f"q{tag}"
        plus1 = delta_program(1, 0, 1)
        t.append(("r", tok, plus1, rr))
        t.append((rr, tok, plus1, rr))
        t.append((rr, "#", EMPTY_PROGRAM, pp))
        t.append((pp, tok, delta_program(1, 0, m), pp))
        t.append((pp, "#", EMPTY_PROGRAM, ss))
        t.append((ss, tok, delta_program(1, 0, -1), ss))
        t.append((ss, "#", EMPTY_PROGRAM, qq))
        t.append((qq, tok, delta_program(1, 0, -n), qq))
        t.append(("r0", tok, delta_program(1, 0, m), pp))
    t.append(("r", "#", EMPTY_PROGRAM, "r0"))
    t.append(("r0", "#", EMPTY_PROGRAM, "s0"))
    t.append(("s0", "#", EMPTY_PROGRAM, "q0"))
    states = ["S", "r", "r0", "s0", "q0",
              "r+", "p+", "s+", "q+", "r-", "p-", "s-", "q-"]
    return CounterAutomaton(
        f"bs{m}_{n}_L1", symbols, 1, states, "S", ["q+", "q0", "q-"], t)


def bs_l2_machine(m, n) -> CounterAutomaton:
    """Regular constraints: P freely reduced over stable letters, r < m,
    s < n, and a single run sign throughout."""
    symbols = bs_symbols(m, n)
    pi = bs_pi_tokens(m, n)
    t = []
    for state in ("P0", "Pt", "Pv"):
        for tok in pi:
            if state == "Pt" and tok == "t-":
                continue
            if state == "Pv" and tok == "t":
                continue
            t.append((state, tok, EMPTY_PROGRAM, "Pt" if _is_t_type(tok) else "Pv"))
        t.append((state, "#", EMPTY_PROGRAM, "R|u|0"))

    signs_from = {"u": ("+", "-"), "+": ("+",), "-": ("-",)}
    tok_sign = {"1": "+", "-1": "-"}

    def run_states(section, cap):
        # counting states section|sign|i for i < cap
        for sign in ("u", "+", "-"):
            for i in range(cap):
                yield f"{section}|{sign}|{i}"

    states = ["P0", "Pt", "Pv"]
    states += list(run_states("R", m)) + [f"P2|{sg}" for sg in ("u", "+", "-")]
    states += list(run_states("S", n)) + [f"Q|{sg}" for sg in ("u", "+", "-")]

    for sign in ("u", "+", "-"):
        for i in range(m):
            src = f"R|{sign}|{i}"
            for tok, tsg in tok_sign.items():
                if tsg in signs_from[sign] and i + 1 < m:
                    t.append((src, tok, EMPTY_PROGRAM, f"R|{tsg}|{i + 1}"))
            t.append((src, "#", EMPTY_PROGRAM, f"P2|{sign}"))
        src = f"P2|{sign}"
        for tok, tsg in tok_sign.items():
            if tsg in signs_from[sign]:
                t.append((src, tok, EMPTY_PROGRAM, f"P2|{tsg}"))
        t.append((src, "#", EMPTY_PROGRAM, f"S|{sign}|0"))
        for i in range(n):
            src = f"S|{sign}|{i}"
            for tok, tsg in tok_sign.items():
                if tsg in signs_from[sign] and i + 1 < n:
                    t.append((src, tok, EMPTY_PROGRAM, f"S|{tsg}|{i + 1}"))
            t.append((src, "#", EMPTY_PROGRAM, f"Q|{sign}"))
        src = f"Q|{sign}"
        for tok, tsg in tok_sign.items():
            if tsg in signs_from[sign]:
                t.append((src, tok, EMPTY_PROGRAM, f"Q|{tsg}"))

    accepts = [f"Q|{sg}" for sg in ("u", "+", "-")]
    return CounterAutomaton(
        f"bs{m}_{n}_L2", symbols, 0, states, "P0", accepts, t)


def bs_nf_machine(m, n) -> CounterAutomaton:
    return intersect(bs_l1_machine(m, n), bs_l2_machine(m, n),
                     name=f"bs{m}_{n}_L")


def bs_cases(m, n):
    """The run-shape case languages behind the a- and t-multipliers, as
    plain data: for each generator a list of (last, pivot, row_a, row_b,
    adjust, token).  A case reads diagonal stable letters (the last one, if
    any, in ``last`` unless that is None), the pivot letter adding
    ``adjust``, then the two rows side by side with one shared blind
    counter, each run letter being ``token``.  A row is (lead '#', four
    (exact length or None, per-letter delta) runs)."""
    pi = bs_pi_tokens(m, n)
    t_type = frozenset(x for x in pi if _is_t_type(x))
    tinv_type = frozenset(pi) - t_type

    free_runs = [(None, 0), (None, 0)]

    def rows(run1_a, run1_b, balance_run):
        # balance_run 2: match p-runs; 4: match row A's q-run to row B's p-run
        if balance_run == 2:
            row_a = (False, [(run1_a, 0), (None, 1)] + free_runs)
            row_b = (False, [(run1_b, 0), (None, -1)] + free_runs)
        else:
            row_a = (False, [(None, 0), (None, 0), (run1_a, 0), (None, 1)])
            row_b = (True, [(run1_b, 0), (None, -1)] + free_runs)
        return row_a, row_b

    cases_a = []
    for r in range(m - 1):  # L_r
        cases_a.append((None, ("#", "#"), *rows(r, r + 1, 2), 0, "1"))
    cases_a.append((None, ("#", "#"), *rows(m - 1, 0, 2), 1, "1"))  # L_{m-1}
    for j in range(1, m):  # K_j
        cases_a.append((None, ("#", "#"), *rows(j, j - 1, 2), 0, "-1"))
    cases_a.append((None, ("#", "#"), *rows(0, m - 1, 2), -1, "-1"))  # K_0

    cases_t = []
    for s in range(n):  # U_s: positive exponent, P ending in t (or empty)
        cases_t.append((t_type, ("#", _pi_token(s, True)), *rows(s, 0, 4),
                        0, "1"))
    for s in range(1, n):  # V_s: negative exponent with remainder
        cases_t.append((t_type, ("#", _pi_token(n - s, True)),
                        *rows(s, 0, 4), 1, "-1"))
    # V_0: negative exponent divisible by n
    cases_t.append((t_type, ("#", "t"), *rows(0, 0, 4), 0, "-1"))
    for s in range(1, n):  # W_s / X_s: same shapes after a trailing t inverse
        cases_t.append((tinv_type, ("#", _pi_token(s, True)), *rows(s, 0, 4),
                        0, "1"))
        cases_t.append((tinv_type, ("#", _pi_token(n - s, True)),
                        *rows(s, 0, 4), 1, "-1"))
    cancelled = (True, [(None, 0), (None, 0), (0, 0), (None, 1)])
    for c in range(m):  # Y_c: trailing t inverse cancels, positive exponent
        cases_t.append((None, (_pi_token(c, False), "#"), cancelled,
                        (False, [(c, 0), (None, -1)] + free_runs), 0, "1"))
    for c in range(m):  # Z_c: trailing t inverse cancels, negative exponent
        cases_t.append((None, (_pi_token(c, False), "#"), cancelled,
                        (False, [((m - c) % m, 0), (None, -1)] + free_runs),
                        -1 if c else 0, "-1"))
    return {"a": cases_a, "t": cases_t}


def bs_case_walk(m, n, cases, bounded):
    """One machine for the union of ``cases`` (a list from ``bs_cases``):
    the diagonal prefix is walked once, keyed by its last stable letter, and
    its end branches into every case that letter allows.  A tail key is
    (case index, row A key, row B key, letters read since a row named in
    ``bounded`` (0 top, 1 bottom) ended); a row key is (run index, letters
    read in that run), index -1 before a lead '#' and None once the row
    pads.  No move takes that count past m+n+2, which is language-neutral on
    L x L where the rows' lengths differ by at most that much, and makes the
    bound structural, so a search never carries a row past it."""
    pi = bs_pi_tokens(m, n)
    gap = m + n + 2

    def row_moves(row, key, token):
        # (letter or None for padding, counter delta, next key)
        runs = row[1]
        if key is None:
            yield None, 0, None
            return
        i, read = key
        if i < 0:
            yield "#", 0, (0, 0)
            return
        exact, delta = runs[i]
        if exact is None or read < exact:
            yield token, delta, (i, 0 if exact is None else read + 1)
        if exact is None or read == exact:
            yield ("#", 0, (i + 1, 0)) if i + 1 < len(runs) else (None, 0, None)

    def done(row, key, token):
        return any(letter is None for letter, _, _ in row_moves(row, key, token))

    def expand(key):
        if key[0] == "pre":
            for x in pi:
                yield tuple_token((x, x)), EMPTY_PROGRAM, ("pre", x)
            for i, (last, pivot, row_a, row_b, adjust, _) in enumerate(cases):
                if key[1] is None or last is None or key[1] in last:
                    yield (tuple_token(pivot), delta_program(1, 0, adjust),
                           (i, *((-1, 0) if lead else (0, 0)
                                 for lead, _ in (row_a, row_b)), 0))
            return
        i, key_a, key_b, after_end = key
        _, _, row_a, row_b, _, token = cases[i]
        for ca, da, na in row_moves(row_a, key_a, token):
            for cb, db, nb in row_moves(row_b, key_b, token):
                if ca is None and cb is None:
                    continue
                read = after_end + ((ca is None and 0 in bounded)
                                    or (cb is None and 1 in bounded))
                if read <= gap:
                    yield (tuple_token((ca, cb)), delta_program(1, 0, da + db),
                           (i, na, nb, read))

    def accepting(key):
        if key[0] == "pre":
            return False
        _, _, row_a, row_b, _, token = cases[key[0]]
        return done(row_a, key[1], token) and done(row_b, key[2], token)

    return explore(f"bs{m}_{n}_cases", pair_letters(bs_symbols(m, n)),
                   1, ("pre", None), expand, accepting)


def bs_multipliers(m, n, nf: CounterAutomaton):
    """Right-multiplication machines for a and t (the structure derives
    their inverses): one walk over each generator's run-shape cases,
    quotiented, intersected with the convolution square of L and quotiented
    again.  The walk bounds both rows for a and the top row for t.

    Quotienting the walk first shrinks the product (bs:4,7 t: walk 2,222 ->
    305 states, product 5,980 -> 1,181).  A quotient is bisimilar to its
    machine and the synchronous product keeps bisimilarity, so the final
    quotient is the same machine up to state names."""
    conv2 = intersect(pad_lift(nf, "left"), pad_lift(nf, "right"),
                      name=f"bs{m}_{n}_LL")
    cases = bs_cases(m, n)
    return {gen: quotient(intersect(
                quotient(bs_case_walk(m, n, cases[gen], bounded)),
                conv2, name=f"bs{m}_{n}_L{gen}"))
            for gen, bounded in (("a", (0, 1)), ("t", (0,)))}


def bs_structure(m, n, seed_p=None, seed_q=None,
                 quasigeodesic_c=None) -> GraphAutomaticStructure:
    """It keeps_l: each multiplier is an intersection with L x L."""
    if not 2 <= m < n:
        raise StructureError("bs_structure needs 2 <= m < n")
    symbols = bs_symbols(m, n)
    nf = bs_nf_machine(m, n)
    multipliers = bs_multipliers(m, n, nf)
    alpha = -(-n // m) + 1
    return GraphAutomaticStructure(
        f"bs:{m},{n}", symbols, GeneratorSet([("a", "a-"), ("t", "t-")]),
        nf, multipliers,
        seed_p=seed_p or (),
        seed_q=("#", "#", "#", "#") if seed_q is None else seed_q,
        quasigeodesic_c=quasigeodesic_c,
        growth=GrowthPolicy(alpha, 4 * (m + n)),
        order=("#", "1", "-1") + bs_pi_tokens(m, n),
        keeps_l=True,
    )


# ---------------------------------------------------------------------------
# free group of infinite rank


def finf_fig_machine(start: str) -> CounterAutomaton:
    """Non-blind 1-counter machine for the freely-reduced-pairs languages of
    the infinite-rank free group encoding; the start state selects whether
    odd/even or even/odd block pairs are constrained."""
    symbols = ("p", "n", "1")
    plus1 = delta_program(1, 0, 1)
    minus1 = delta_program(1, 0, -1)
    setz = ((SETZ,),)
    nz_setz = ((TESTN0,), (SETZ,))  # if nonzero: read and reset
    t = [
        ("s2", "p", EMPTY_PROGRAM, "d"),
        ("d", "1", EMPTY_PROGRAM, "a"),
        ("a", "1", plus1, "a"),
        ("a", "n", EMPTY_PROGRAM, "c"),
        ("a", "p", setz, "e"),
        ("a", "1", setz, "r"),
        ("c", "1", minus1, "c"),
        ("c", "1", nz_setz, "s2"),
        ("e", "1", EMPTY_PROGRAM, "e"),
        ("e", "1", EMPTY_PROGRAM, "s2"),
        ("s2", "n", EMPTY_PROGRAM, "y"),
        ("y", "1", EMPTY_PROGRAM, "b"),
        ("b", "1", plus1, "b"),
        ("b", "p", EMPTY_PROGRAM, "x"),
        ("b", "n", setz, "z"),
        ("b", "1", setz, "t"),
        ("x", "1", minus1, "x"),
        ("x", "1", nz_setz, "s2"),
        ("z", "1", EMPTY_PROGRAM, "z"),
        ("z", "1", EMPTY_PROGRAM, "s2"),
        ("s3", "p", EMPTY_PROGRAM, "S"),
        ("s3", "n", EMPTY_PROGRAM, "S"),
        ("S", "1", EMPTY_PROGRAM, "S"),
        ("S", "1", EMPTY_PROGRAM, "s2"),
    ]
    return CounterAutomaton(
        f"finf_{start}", symbols, 1,
        ["s2", "s3", "a", "b", "c", "d", "e", "r", "t", "x", "y", "z", "S"],
        start, ["s2", "s3", "a", "b", "r", "t"], t)


def finf_nf_machine() -> CounterAutomaton:
    return intersect(finf_fig_machine("s2"), finf_fig_machine("s3"),
                     name="finf_L")


def finf_structure(max_index=None) -> GraphAutomaticStructure:
    """Free group on x1, x2, ...; x_i encodes to p 1^i, its inverse to n 1^i.
    The factory builds x_i's multiplier when x_i or x_i- is first used."""
    symbols = ("p", "n", "1")
    nf = finf_nf_machine()
    pairs = pair_letters(symbols)
    lifted_right = pad_lift(nf, "right")  # second row constrained to L
    lifted_left = pad_lift(nf, "left")

    def diag_then(name, chain):
        # (x|x)* followed by the pair letters of ``chain``
        t = [("d", tuple_token((x, x)), EMPTY_PROGRAM, "d") for x in symbols]
        states = ["d"] + [f"c{j}" for j in range(len(chain))]
        t += [(src, tuple_token(letter), EMPTY_PROGRAM, dst)
              for src, letter, dst in zip(states, chain, states[1:])]
        return CounterAutomaton(name, pairs, 0, states, "d", [states[-1]], t)

    def factory(i):
        append = diag_then(f"finf_x{i}+", [(None, "p")] + [(None, "1")] * i)
        cancel = diag_then(f"finf_x{i}-", [("n", None)] + [("1", None)] * i)
        return union_all([intersect(append, lifted_right),
                          intersect(cancel, lifted_left)],
                         name=f"finf_Lx{i}")

    gens = GeneratorSet([], FamilySpec("x", factory, max_index))
    name = "finf" if max_index is None else f"finf:{max_index}"
    return GraphAutomaticStructure(
        name, symbols, gens, nf, {}, seed_p=(), seed_q=(),
        quasigeodesic_c=None if max_index is None else max_index + 3,
        growth=GrowthPolicy(1, 1), order=symbols,
        family_beta=lambda i: i + 1)


# ---------------------------------------------------------------------------
# infinite cyclic seed structure (minimal regular structure for combinators)


def z_structure() -> GraphAutomaticStructure:
    """Z on a with L = a* | a-*.  It keeps_l: a's multiplier accepts (a^n,
    a^(n+1)) and (a-^(n+1), a-^n) for n >= 0, both rows in L."""
    symbols = ("a", "a-")
    t = [
        ("z0", "a", EMPTY_PROGRAM, "zp"), ("zp", "a", EMPTY_PROGRAM, "zp"),
        ("z0", "a-", EMPTY_PROGRAM, "zn"), ("zn", "a-", EMPTY_PROGRAM, "zn"),
    ]
    nf = CounterAutomaton("z_L", symbols, 0, ["z0", "zp", "zn"], "z0",
                          ["z0", "zp", "zn"], t)
    # (a|a)* (_|a) or (a-|a-)* (a-|_)
    up, grow = tuple_token(("a", "a")), tuple_token((None, "a"))
    down, shrink = tuple_token(("a-", "a-")), tuple_token(("a-", None))
    t = [
        ("m0", up, EMPTY_PROGRAM, "mp"), ("mp", up, EMPTY_PROGRAM, "mp"),
        ("m0", grow, EMPTY_PROGRAM, "grown"), ("mp", grow, EMPTY_PROGRAM, "grown"),
        ("m0", down, EMPTY_PROGRAM, "mn"), ("mn", down, EMPTY_PROGRAM, "mn"),
        ("m0", shrink, EMPTY_PROGRAM, "shrunk"),
        ("mn", shrink, EMPTY_PROGRAM, "shrunk"),
    ]
    la = CounterAutomaton("z_La", pair_letters(symbols), 0,
                          ["m0", "mp", "mn", "grown", "shrunk"], "m0",
                          ["grown", "shrunk"], t)
    return GraphAutomaticStructure(
        "z", symbols, GeneratorSet([("a", "a-")]), nf,
        {"a": la},
        seed_p=(), seed_q=(), quasigeodesic_c=1, growth=GrowthPolicy(1, 1),
        order=symbols, keeps_l=True)


# ---------------------------------------------------------------------------
# tagging helpers for product constructions


def _tag_token(tag, token):
    return f"{tag}{token}"


def _retag_pair_letter(tag):
    def rename(tok):
        a, b = parse_tuple_token(tok)
        return tuple_token((None if a is None else _tag_token(tag, a),
                            None if b is None else _tag_token(tag, b)))
    return rename


def _generator_pairs(generators: GeneratorSet):
    """(token, inverse) pairs covering every concrete generator, family
    members up to their bound included."""
    pairs = {}
    for tok in generators.tokens():
        inv = generators.inverse_of(tok)
        if inv not in pairs:
            pairs[tok] = inv
    return list(pairs.items())


def _tagged_parts(structure: GraphAutomaticStructure, tag):
    """Relabel a structure's alphabet and machines with a distinguishing
    prefix; returns (symbols, nf, multipliers, generator pairs, mu), with a
    multiplier for the first generator of each pair only (the product
    structure derives the other).  Materializes bounded generator families;
    unbounded ones cannot enter product constructions."""
    family = structure.generators.family
    if family is not None and family.max_index is None:
        raise StructureError(
            "product constructions need finitely generated factors")
    symbols = tuple(_tag_token(tag, s) for s in structure.symbols)
    nf = relabel(structure.nf_automaton, lambda s: _tag_token(tag, s),
                 name=f"{tag}{structure.nf_automaton.name}", alphabet=symbols)
    retag = _retag_pair_letter(tag)
    pairs = _generator_pairs(structure.generators)
    multipliers = {}
    for tok, _ in pairs:
        machine = structure.multiplier(tok)
        multipliers[_tag_token(tag, tok)] = relabel(
            machine, retag, name=f"{tag}{machine.name}",
            alphabet=pair_letters(symbols))
    pairs = [(_tag_token(tag, a), _tag_token(tag, b)) for a, b in pairs]
    mu = tuple(_tag_token(tag, s) for s in structure.mu)
    return symbols, nf, multipliers, pairs, mu


# ---------------------------------------------------------------------------
# direct product


def _product_multiplier(mult, other, side, alphabet, name):
    """One walk over the moves of a factor multiplier ``mult`` and the
    other factor's normal-form machine ``other``, accepting the pairs
    ((g1|h), (g2|h)) for (g1|g2) read by ``mult`` and h read by ``other``;
    ``side`` is the multiplier's row within each component (0 for the
    G-factor, 1 for the H-factor).

    A key is (mult state, other state, top ended, bottom ended, h ended).
    Each side's epsilon moves pass through; each letter move of ``mult``
    pairs with a move of ``other``, or with padding once h has ended; and
    after both rows of ``mult`` end, ``other`` goes on alone.  A row that
    has padded never resumes, and a component that pads in both its rows
    becomes the outer padding.  ``other``'s counters come first."""
    total = other.counters + mult.counters
    m_moves = padded_moves(mult, total, other.counters)
    o_moves = padded_moves(other, total, 0)
    rows = LazyTable(parse_tuple_token)
    join = program_joiner()

    def component(own, h):
        if own is None and h is None:
            return None
        return tuple_token((own, h) if side == 0 else (h, own))

    letters = {}

    def letter(top, bottom, h):
        key = (top, bottom, h)
        if key not in letters:
            letters[key] = tuple_token((component(top, h),
                                        component(bottom, h)))
        return letters[key]

    def expand(key):
        m, o, top_done, bottom_done, h_done = key
        m_eps, m_letters = m_moves[m]
        o_eps, o_letters = o_moves[o]
        for prog, dst in m_eps:
            yield EPSILON, prog, (dst, o, top_done, bottom_done, h_done)
        for prog, dst in o_eps:
            yield EPSILON, prog, (m, dst, top_done, bottom_done, h_done)
        h_moves = [] if h_done else [
            (h, prog, dst) for h, arrows in o_letters.items()
            for prog, dst in arrows]
        with_padding = h_moves + [(None, EMPTY_PROGRAM, o)]
        for label, arrows in m_letters.items():
            top, bottom = rows[label]
            if ((top_done and top is not None)
                    or (bottom_done and bottom is not None)):
                continue
            for pm, dm in arrows:
                for h, po, do in with_padding:
                    yield (letter(top, bottom, h), join(po, pm),
                           (dm, do, top is None, bottom is None, h is None))
        for h, po, do in h_moves:
            yield letter(None, None, h), po, (m, do, True, True, False)

    start = (mult.start, other.start, False, False, False)
    return explore(
        name, alphabet, total, start, expand,
        lambda key: key[0] in mult.accepts and key[1] in other.accepts)


def direct_product(sg: GraphAutomaticStructure,
                   sh: GraphAutomaticStructure) -> GraphAutomaticStructure:
    """Normal forms are convolutions of the factors' normal forms.  A factor
    generator's multiplier is one walk (``_product_multiplier``) over that
    factor's multiplier and the other factor's normal-form machine, so it
    reads only letters that some pair of their transitions makes.  Every
    multiplier still declares the full pair alphabet of the product symbols:
    ``intersect`` needs equal alphabets, and the structure checks multiplier
    letters against it.  It keeps_l when both factors do: a multiplier pairs
    a factor's pair with one word of the other factor's L on both rows."""
    lam_g, nf_g, mult_g, pairs_g, mu_g = _tagged_parts(sg, "1.")
    lam_h, nf_h, mult_h, pairs_h, mu_h = _tagged_parts(sh, "2.")

    # well-formed product symbols: G-row over lam_g, H-row over lam_h
    symbols = tuple(
        tuple_token((a, b))
        for a in lam_g + (None,)
        for b in lam_h + (None,)
        if not (a is None and b is None)
    )
    nf = intersect(
        pad_lift(nf_g, "left", free_alphabet=lam_h),
        pad_lift(nf_h, "right", free_alphabet=lam_g),
        name=f"({sg.name}x{sh.name})_L")

    outer = pair_letters(symbols)
    multipliers = {}
    for side, mults, other in ((0, mult_g, nf_h), (1, mult_h, nf_g)):
        for tok, machine in mults.items():
            multipliers[tok] = _product_multiplier(machine, other, side, outer,
                                                   f"prod_L_{tok}")

    quasi = None
    if sg.quasigeodesic_c is not None and sh.quasigeodesic_c is not None:
        quasi = max(sg.quasigeodesic_c, sh.quasigeodesic_c)
    # a factor step moves its own row only, so the factor's largest step term
    # bounds it, family members included
    beta = max(sg.growth.beta + sh.growth.beta + 1,
               sg.step_beta(sg.generators.tokens()),
               sh.step_beta(sh.generators.tokens()))
    return GraphAutomaticStructure(
        f"product({sg.name},{sh.name})", symbols,
        GeneratorSet(pairs_g + pairs_h), nf, multipliers,
        seed_p=(), seed_q=convolve(mu_g, mu_h) if (mu_g or mu_h) else (),
        quasigeodesic_c=quasi,
        growth=GrowthPolicy(max(sg.growth.alpha, sh.growth.alpha), beta),
        order=symbols, keeps_l=sg.keeps_l and sh.keeps_l)



# ---------------------------------------------------------------------------
# free product


def _not_word(word, alphabet) -> CounterAutomaton:
    """The regular complement of one string over ``alphabet``."""
    word = tuple(word)
    states = [f"w{i}" for i in range(len(word) + 1)] + ["sink"]
    t = []
    for i, tok in enumerate(word):
        t.append((f"w{i}", tok, EMPTY_PROGRAM, f"w{i + 1}"))
    for i in range(len(word) + 1):
        for tok in alphabet:
            if i < len(word) and tok == word[i]:
                continue
            t.append((f"w{i}", tok, EMPTY_PROGRAM, "sink"))
    for tok in alphabet:
        t.append(("sink", tok, EMPTY_PROGRAM, "sink"))
    accepts = [s for s in states if s != f"w{len(word)}"]
    return CounterAutomaton("not_word", alphabet, 0, states, "w0", accepts, t)


def _free_product_nf(blocks_g, blocks_h, sep, symbols) -> CounterAutomaton:
    """Alternating #-separated blocks from either factor; counters are shared
    and each block must return them to zero (guarded epsilon exits)."""
    counters = max(blocks_g.counters, blocks_h.counters)
    guard = ((TEST0,) * counters,) if counters else EMPTY_PROGRAM
    t = [
        ("k0", EPSILON, EMPTY_PROGRAM, "k1"),
        ("k0", EPSILON, EMPTY_PROGRAM, "k2"),
        ("k1", sep, EMPTY_PROGRAM, "g." + blocks_g.start),
        ("k2", sep, EMPTY_PROGRAM, "h." + blocks_h.start),
    ]
    states = ["k0", "k1", "k2"]
    for prefix, blocks, out in (("g.", blocks_g, "k2"), ("h.", blocks_h, "k1")):
        states.extend(prefix + s for s in blocks.states)
        t.extend(embed(blocks, prefix, counters))
        for acc in (s for s in blocks.states if s in blocks.accepts):
            t.append((prefix + acc, EPSILON, guard, out))
    return CounterAutomaton(
        "freeprod_L", symbols, counters, states, "k0", ["k1", "k2"], t)


def _free_product_multiplier(nf_machine, sep, side_state, mult, u_x, u_xinv,
                             name) -> CounterAutomaton:
    """Diagonal copy of the normal-form machine, plus an appended-block accept
    path, a cancelled-block accept path, and an embedded copy of the factor's
    multiplier entered on a shared separator letter."""
    counters = max(nf_machine.counters, mult.counters)
    t = embed(_diagonal_language(nf_machine, nf_machine.alphabet), "d.",
              counters)
    states = ["d." + s for s in nf_machine.states]
    branch = "d." + side_state

    accepts = []
    # appended block: second row runs ahead through (pad | sep) (pad | letter)*
    prev = branch
    for i, tok in enumerate((sep,) + tuple(u_x)):
        nxt = f"app{i}"
        states.append(nxt)
        t.append((prev, tuple_token((None, tok)), EMPTY_PROGRAM, nxt))
        prev = nxt
    accepts.append(prev)
    # cancelled block: first row finishes with (sep | pad) (letter | pad)*
    prev = branch
    for i, tok in enumerate((sep,) + tuple(u_xinv)):
        nxt = f"can{i}"
        states.append(nxt)
        t.append((prev, tuple_token((tok, None)), EMPTY_PROGRAM, nxt))
        prev = nxt
    accepts.append(prev)
    # modified last block: run the factor multiplier after a diagonal separator
    t.append((branch, tuple_token((sep, sep)), EMPTY_PROGRAM, "c." + mult.start))
    states.extend("c." + s for s in mult.states)
    t.extend(embed(mult, "c.", counters))
    accepts.extend("c." + s for s in mult.accepts)

    return trim(CounterAutomaton(
        name, pair_letters(nf_machine.alphabet), counters,
        states, "d." + nf_machine.start, accepts, t))


def free_product(sg: GraphAutomaticStructure,
                 sh: GraphAutomaticStructure) -> GraphAutomaticStructure:
    lam_g, nf_g, mult_g, pairs_g, mu_g = _tagged_parts(sg, "1.")
    lam_h, nf_h, mult_h, pairs_h, mu_h = _tagged_parts(sh, "2.")
    sep = "#"
    taken = set(lam_g) | set(lam_h)
    i = 0
    while sep in taken:
        sep = f"#{i}"
        i += 1
    symbols = (sep,) + lam_g + lam_h

    # a block is a factor normal form other than the identity's; an empty
    # block would be invisible between separators, so the empty word may be
    # in a factor's L only as its identity's normal form
    blocks = []
    for structure, nf_f, mu in ((sg, nf_g, mu_g), (sh, nf_h, mu_h)):
        block = intersect(nf_f, _not_word(mu, nf_f.alphabet))
        if block.accepts_word(()):
            raise StructureError(
                f"free product factor {structure.name} has the empty word in "
                "L but a nonempty identity normal form")
        blocks.append(block)
    nf = _free_product_nf(*blocks, sep, symbols)

    def factor_nf(structure, tag):
        def compute(tok):
            word = structure.normal_form((tok,))
            if tuple(word) == tuple(structure.mu):
                raise StructureError(
                    f"free product factors need nontrivial generators ({tok})")
            return tuple(_tag_token(tag, s) for s in word)
        return compute

    nf_of_g = factor_nf(sg, "1.")
    nf_of_h = factor_nf(sh, "2.")

    multipliers = {}
    longest_block = 1
    for (structure, tag, mults, side, nf_of, lam, mu) in (
            (sg, "1.", mult_g, "k1", nf_of_g, lam_g, mu_g),
            (sh, "2.", mult_h, "k2", nf_of_h, lam_h, mu_h)):
        # neither row of the embedded factor multiplier may spell the factor
        # identity (no normal-form block does; writing it is the cancelled-
        # block path): each row walks _not_word(mu), staying put on padding
        lam_pairs = pair_letters(lam)
        not_mu = _not_word(mu, lam)
        rows = [(letter, parse_tuple_token(letter)) for letter in lam_pairs]

        def expand(key, step=not_mu.letter_steps):
            for letter, pair in rows:
                yield letter, EMPTY_PROGRAM, tuple(
                    q if c is None else step[q, c][0][1] for q, c in zip(key, pair))

        no_identity_block = explore(
            "no_identity_block", lam_pairs, 0, (not_mu.start,) * 2, expand,
            lambda key: all(q in not_mu.accepts for q in key))
        for tok, inv in _generator_pairs(structure.generators):
            tagged = _tag_token(tag, tok)
            u_x = nf_of(tok)
            u_xinv = nf_of(inv)
            longest_block = max(longest_block, len(u_x), len(u_xinv))
            multipliers[tagged] = _free_product_multiplier(
                nf, sep, side, intersect(mults[tagged], no_identity_block),
                u_x, u_xinv, f"freeprod_L_{tagged}")

    quasi = None
    if sg.quasigeodesic_c is not None and sh.quasigeodesic_c is not None:
        quasi = 2 * (sg.quasigeodesic_c + sh.quasigeodesic_c) + 1
    return GraphAutomaticStructure(
        f"free({sg.name},{sh.name})", symbols,
        GeneratorSet(pairs_g + pairs_h), nf, multipliers,
        seed_p=(), seed_q=(), quasigeodesic_c=quasi,
        growth=GrowthPolicy(max(sg.growth.alpha, sh.growth.alpha),
                            sg.step_beta(sg.generators.tokens())
                            + sh.step_beta(sh.generators.tokens())
                            + longest_block + 2),
        order=symbols)


# ---------------------------------------------------------------------------
# change of generators


def change_generators(structure: GraphAutomaticStructure,
                      assignments) -> GraphAutomaticStructure:
    """Re-generate a structure over new generators, each given as a word over
    the old ones and read as its free reduction.  An empty word gets the
    diagonal language, one letter x that letter's multiplier, and y- then
    x-'s; the multiplier of a longer x1 ... xk folds the old multipliers
    through ``compose``: (u|w) is accepted when some v has (u|v) accepted by
    the fold of x1 ... x(k-1) and (v|w) by xk's multiplier.  The fold is
    lazy (see compose): a search builds only the states it reaches.  It
    keeps_l if the base does: compositions of relations on L x L stay there."""
    symbols = structure.symbols
    words = {y: free_reduce(word, structure.generators.inverse_of)
             for y, word in assignments.items()}
    multipliers = {}
    for y, word in words.items():
        if not word:
            multipliers[y] = _diagonal_language(structure.nf_automaton, symbols)
            continue
        if len(word) == 1:
            # y is the old x, so y- is x- with x-'s machine, not a second
            # swap of x's; a loader, made only when y- is first used
            multipliers[y] = structure.multiplier(word[0])
            multipliers[y + "-"] = partial(
                structure.multiplier, structure.generators.inverse_of(word[0]))
            continue
        *head, last = map(structure.multiplier, word)
        try:
            multipliers[y] = compose(reduce(compose, head), last, f"regen_L_{y}")
        except LangOpError as exc:
            raise LangOpError(
                f"cannot build generator {y} = {' '.join(word)}: {exc}"
            ) from exc

    longest = max([1, *map(len, words.values())])
    alpha = structure.growth.alpha
    beta = structure.step_beta(x for word in words.values() for x in word)
    if alpha > 1:
        new_alpha = alpha ** longest
        new_beta = beta * (new_alpha - 1) // (alpha - 1)
    else:
        new_alpha, new_beta = 1, beta * longest
    quasi = None
    if structure.quasigeodesic_c is not None:
        quasi = structure.quasigeodesic_c * longest
    return GraphAutomaticStructure(
        f"regen({structure.name})", symbols,
        GeneratorSet([(y, y + "-") for y in words]),
        structure.nf_automaton, multipliers, seed_p=(), seed_q=structure.mu,
        quasigeodesic_c=quasi, growth=GrowthPolicy(new_alpha, new_beta),
        order=structure.order.letters, keeps_l=structure.keeps_l)


def _diagonal_language(nf: CounterAutomaton, symbols) -> CounterAutomaton:
    """{(u, u) : u in L} over the pair alphabet of the structure's symbols,
    which may be narrower than nf's declared alphabet (direct products)."""
    return relabel(nf, lambda tok: tuple_token((tok, tok)), "diag_L",
                   alphabet=pair_letters(symbols))


# ---------------------------------------------------------------------------
# oracles for the combinators


class ProductOracle(GroupOracle):
    """Direct product; generators of the two factors are tagged 1. and 2."""

    head = "product"

    def __init__(self, left: GroupOracle, right: GroupOracle):
        pairs = []
        for oracle, tag in ((left, "1."), (right, "2.")):
            for tok, inv in _generator_pairs(oracle.generators):
                pairs.append((_tag_token(tag, tok), _tag_token(tag, inv)))
        super().__init__(GeneratorSet(pairs))
        self.left, self.right = left, right
        self.name = f"{self.head}({left.name},{right.name})"

    def canonicalize(self, word):
        first, second = [], []
        for tok in word:
            if tok.startswith("1."):
                first.append(tok[2:])
            elif tok.startswith("2."):
                second.append(tok[2:])
            else:
                raise StructureError(f"unknown product generator {tok!r}")
        out = [_tag_token("1.", t) for t in self.left.canonicalize(first)]
        out.extend(_tag_token("2.", t) for t in self.right.canonicalize(second))
        return tuple(out)


class FreeProductOracle(ProductOracle):
    head = "free"

    def canonicalize(self, word):
        blocks = []  # (side tag, canonical block word)
        for side, run in groupby(word, itemgetter(slice(2))):
            if side not in ("1.", "2."):
                raise StructureError(
                    f"unknown free-product generator {next(run)!r}")
            merged = tuple([tok[2:] for tok in run])
            if blocks and blocks[-1][0] == side:
                merged = blocks.pop()[1] + merged
            factor = self.left if side == "1." else self.right
            canon = factor.canonicalize(merged)
            if canon:
                blocks.append((side, canon))
            # an emptied block just disappears; alternation is preserved, and
            # the next run merges with the block now on top
        return tuple([_tag_token(side, t) for side, block in blocks
                      for t in block])


class RegenOracle(GroupOracle):
    """Substitution into the base oracle; ``assignments`` maps each new
    generator y to its word and y- to the inverse word."""

    def __init__(self, base: GroupOracle, assignments):
        super().__init__(GeneratorSet([(y, y + "-") for y in assignments]))
        self.base = base
        self.assignments = {}
        for y, word in assignments.items():
            self.assignments[y] = word = tuple(word)
            self.assignments[y + "-"] = tuple(map(base.inverse_of, word[::-1]))
        self.name = f"regen({base.name})"

    def canonicalize(self, word):
        expanded = []
        for tok in word:
            if tok not in self.assignments:
                raise StructureError(f"unknown regenerated generator {tok!r}")
            expanded.extend(self.assignments[tok])
        return self.base.canonicalize(expanded)


# ---------------------------------------------------------------------------
# builtin registry and expression language


def _split_top(text, sep):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class ExprError(Exception):
    pass


def _parse_expr(text):
    text = text.strip()
    for head in ("product", "free"):
        if text.startswith(head + "(") and text.endswith(")"):
            inner = text[len(head) + 1:-1]
            parts = _split_top(inner, ",")
            if len(parts) < 2:
                raise ExprError(f"{head}() takes two structures")
            # builtins like bs:2,3 contain commas; try every two-way split
            last_error = None
            for i in range(1, len(parts)):
                try:
                    return (head, _parse_expr(",".join(parts[:i])),
                            _parse_expr(",".join(parts[i:])))
                except ExprError as exc:
                    last_error = exc
            raise last_error
    if text.startswith("regen(") and text.endswith(")"):
        parts = _split_top(text[6:-1], ";")
        if len(parts) < 2:
            raise ExprError("regen(base; y=word; ...) needs assignments")
        base = _parse_expr(parts[0])
        raw = []
        for assign in parts[1:]:
            if "=" not in assign:
                raise ExprError(f"bad assignment {assign!r}")
            y, word = (part.strip() for part in assign.split("=", 1))
            if y.split() != [y] or y.endswith("-"):
                raise ExprError(f"bad generator name {y!r}")
            if y in (name for name, _ in raw):
                raise ExprError(f"generator {y!r} assigned twice")
            raw.append((y, word))
        return ("regen", base, raw)
    if text == "z":
        return ("z",)
    if text == "finf":
        return ("finf", None)
    if text.startswith("finf:"):
        try:
            bound = int(text[5:])
        except ValueError:
            bound = 0
        if bound < 1:
            raise ExprError(f"bad builtin {text!r} (finf:<K> needs K >= 1)")
        return ("finf", bound)
    if text.startswith("bs:"):
        try:
            m, n = (int(v) for v in text[3:].split(","))
        except ValueError:
            raise ExprError(f"bad builtin {text!r}")
        if not 2 <= m < n:
            raise ExprError(f"bad builtin {text!r} (bs:<m>,<n> needs 2 <= m < n)")
        return ("bs", m, n)
    raise ExprError(f"unknown structure expression {text!r}")


def _lex_generator_word(text, generators):
    """Greedy longest-match tokenization of e.g. 'at' into generator tokens;
    whitespace separates tokens explicitly."""
    tokens = sorted(generators, key=len, reverse=True)
    out = []
    for chunk in text.split():
        while chunk:
            for tok in tokens:
                if chunk.startswith(tok):
                    out.append(tok)
                    chunk = chunk[len(tok):]
                    break
            else:
                raise ExprError(f"cannot read {chunk!r} as generator tokens")
    return tuple(out)


def _regen_assignments(raw, base):
    """{y: word} of a regen node, read against the generator tokens of its
    base structure or oracle; EPS is the empty word."""
    try:
        gens = base.generators.tokens()
    except StructureError as exc:  # an unbounded family
        raise ExprError(f"regen base: {exc}")
    assignments = {}
    for y, text in raw:
        assignments[y] = () if text == "EPS" else _lex_generator_word(text, gens)
        if not assignments[y] and text != "EPS":
            raise ExprError(f"generator word for {y!r} is blank (write EPS)")
    return assignments


def _build_structure(ast):
    kind = ast[0]
    if kind == "z":
        return z_structure()
    if kind == "finf":
        return finf_structure(ast[1])
    if kind == "bs":
        return bs_structure(ast[1], ast[2])
    if kind == "product":
        return direct_product(_build_structure(ast[1]), _build_structure(ast[2]))
    if kind == "free":
        return free_product(_build_structure(ast[1]), _build_structure(ast[2]))
    if kind == "regen":
        base = _build_structure(ast[1])
        return change_generators(base, _regen_assignments(ast[2], base))
    raise ExprError(f"unknown expression node {kind!r}")


def _build_oracle(ast):
    kind = ast[0]
    if kind == "z":
        return FreeGroupOracle(GeneratorSet([("a", "a-")]), name="z")
    if kind == "finf":
        return FreeGroupOracle(
            GeneratorSet([], FamilySpec("x", None, ast[1])), name="finf")
    if kind == "bs":
        return BSOracle(ast[1], ast[2])
    if kind in ("product", "free"):
        cls = ProductOracle if kind == "product" else FreeProductOracle
        try:
            return cls(_build_oracle(ast[1]), _build_oracle(ast[2]))
        except StructureError as exc:  # a factor with an unbounded family
            raise ExprError(f"{kind} factor: {exc}")
    if kind == "regen":
        base = _build_oracle(ast[1])
        return RegenOracle(base, _regen_assignments(ast[2], base))
    raise ExprError(f"unknown expression node {kind!r}")


def structure_from_expr(text) -> GraphAutomaticStructure:
    return _build_structure(_parse_expr(text))


def oracle_from_expr(text, structure=None) -> GroupOracle:
    if text == "free":
        if structure is None:
            raise ExprError("--oracle free needs a structure to read generators")
        return FreeGroupOracle(structure.generators)
    return _build_oracle(_parse_expr(text))
