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
from functools import reduce

from .automata import (
    EPSILON,
    EMPTY_PROGRAM,
    SETZ,
    TEST0,
    TESTN0,
    CounterAutomaton,
    delta_program,
    pad_program,
    program_reads_counters,
)
from .langops import (
    ConvolvedAlphabet,
    LetterHomomorphism,
    convolve,
    image,
    intersect,
    pad_lift,
    pair_alphabet,
    parse_tuple_token,
    preimage,
    relabel,
    swap_rows,
    trim,
    tuple_token,
    union,
    union_all,
)
from .patterns import (
    alt,
    build,
    concat_machines,
    convolution_product_shared,
    eps_frag,
    lit,
    one_of,
    repeat,
    row_pattern,
    seq,
    star,
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
        super().__init__(GeneratorSet.from_pairs([("a", "a-"), ("t", "t-")]))
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
        f"bs{m}_{n}_L1", symbols, 1, states, "S", ["q+", "q0", "q-"], t,
        blind=True)


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
        f"bs{m}_{n}_L2", symbols, 0, states, "P0", accepts, t,
        blind=True)


def bs_nf_machine(m, n) -> CounterAutomaton:
    return intersect(bs_l1_machine(m, n), bs_l2_machine(m, n),
                     name=f"bs{m}_{n}_L")


def _gap_guard(symbols, bound, sides=("top", "bottom")) -> CounterAutomaton:
    """Regular guard: once a bounded row has ended, at most ``bound`` more
    letters may follow.  Language-neutral for relations with bounded length
    difference; makes that bound structural."""
    letters = list(pair_alphabet(symbols).letters())
    split = [(tok,) + parse_tuple_token(tok) for tok in letters]
    t = []
    states = ["live"]

    def chain(side, selector):
        limited = side in sides
        names = [f"{side}{i}" for i in range(1, bound + 1)] if limited else [side]
        states.extend(names)
        for tok, a, b in split:
            if selector(a, b):
                t.append(("live", tok, EMPTY_PROGRAM, names[0]))
                if limited:
                    for i in range(len(names) - 1):
                        t.append((names[i], tok, EMPTY_PROGRAM, names[i + 1]))
                else:
                    t.append((names[0], tok, EMPTY_PROGRAM, names[0]))

    for tok, a, b in split:
        if a is not None and b is not None:
            t.append(("live", tok, EMPTY_PROGRAM, "live"))
    chain("top", lambda a, b: a is None)
    chain("bot", lambda a, b: b is None)
    return CounterAutomaton(
        "gap_guard", letters, 0, states, "live", states, t,
        blind=True)


def _bs_case(name, pairs, prefix, pivot, row_a, row_b, adjust, token, symbols):
    head = seq(prefix, lit(tuple_token(pivot), delta_program(1, 0, adjust)))
    head_machine = build(head, name + "~head", pairs, counters=1)
    tail = convolution_product_shared(
        row_pattern(row_a[0], row_a[1], token),
        row_pattern(row_b[0], row_b[1], token),
        symbols, name + "~tail")
    return concat_machines(head_machine, tail, name)


def bs_case_machines(m, n):
    """The named case languages behind the a- and t-multipliers, before
    intersection with the convolution square; keys are like ``a:L0``,
    ``t:U2``."""
    symbols = bs_symbols(m, n)
    pairs = tuple(pair_alphabet(symbols).letters())
    pi = bs_pi_tokens(m, n)
    diag_any = one_of([tuple_token((x, x)) for x in pi])
    prefix_any = star(diag_any)
    prefix_t = alt(eps_frag(), seq(
        star(diag_any),
        one_of([tuple_token((x, x)) for x in pi if _is_t_type(x)])))
    prefix_tinv = alt(eps_frag(), seq(
        star(diag_any),
        one_of([tuple_token((x, x)) for x in pi if not _is_t_type(x)])))

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

    cases = {}
    for r in range(m - 1):
        row_a, row_b = rows(r, r + 1, 2)
        cases[f"a:L{r}"] = _bs_case(f"La_L{r}", pairs, prefix_any, ("#", "#"),
                                    row_a, row_b, 0, "1", symbols)
    row_a, row_b = rows(m - 1, 0, 2)
    cases[f"a:L{m - 1}"] = _bs_case(f"La_L{m - 1}", pairs, prefix_any,
                                    ("#", "#"), row_a, row_b, 1, "1", symbols)
    for j in range(1, m):
        row_a, row_b = rows(j, j - 1, 2)
        cases[f"a:K{j}"] = _bs_case(f"La_K{j}", pairs, prefix_any, ("#", "#"),
                                    row_a, row_b, 0, "-1", symbols)
    row_a, row_b = rows(0, m - 1, 2)
    cases["a:K0"] = _bs_case("La_K0", pairs, prefix_any, ("#", "#"),
                             row_a, row_b, -1, "-1", symbols)

    for s in range(n):  # U_s: positive exponent, P ending in t (or empty)
        row_a, row_b = rows(s, 0, 4)
        cases[f"t:U{s}"] = _bs_case(f"Lt_U{s}", pairs, prefix_t,
                                    ("#", _pi_token(s, True)),
                                    row_a, row_b, 0, "1", symbols)
    for s in range(1, n):  # V_s: negative exponent with remainder
        row_a, row_b = rows(s, 0, 4)
        cases[f"t:V{s}"] = _bs_case(f"Lt_V{s}", pairs, prefix_t,
                                    ("#", _pi_token(n - s, True)),
                                    row_a, row_b, 1, "-1", symbols)
    row_a, row_b = rows(0, 0, 4)  # V_0: negative exponent divisible by n
    cases["t:V0"] = _bs_case("Lt_V0", pairs, prefix_t, ("#", "t"),
                             row_a, row_b, 0, "-1", symbols)
    for s in range(1, n):  # W_s / X_s: same shapes after a trailing t inverse
        row_a, row_b = rows(s, 0, 4)
        cases[f"t:W{s}"] = _bs_case(f"Lt_W{s}", pairs, prefix_tinv,
                                    ("#", _pi_token(s, True)),
                                    row_a, row_b, 0, "1", symbols)
        cases[f"t:X{s}"] = _bs_case(f"Lt_X{s}", pairs, prefix_tinv,
                                    ("#", _pi_token(n - s, True)),
                                    row_a, row_b, 1, "-1", symbols)
    for c in range(m):  # Y_c: trailing t inverse cancels, positive exponent
        row_a = (True, [(None, 0), (None, 0), (0, 0), (None, 1)])
        row_b = (False, [(c, 0), (None, -1)] + free_runs)
        cases[f"t:Y{c}"] = _bs_case(f"Lt_Y{c}", pairs, prefix_any,
                                    (_pi_token(c, False), "#"),
                                    row_a, row_b, 0, "1", symbols)
    for c in range(m):  # Z_c: trailing t inverse cancels, negative exponent
        row_a = (True, [(None, 0), (None, 0), (0, 0), (None, 1)])
        if c == 0:
            row_b = (False, [(0, 0), (None, -1)] + free_runs)
            adjust = 0
        else:
            row_b = (False, [(m - c, 0), (None, -1)] + free_runs)
            adjust = -1
        cases[f"t:Z{c}"] = _bs_case(f"Lt_Z{c}", pairs, prefix_any,
                                    (_pi_token(c, False), "#"),
                                    row_a, row_b, adjust, "-1", symbols)
    return cases


def bs_multipliers(m, n, nf: CounterAutomaton):
    """Right-multiplication machines for a, t and their inverses: unions of
    run-shape case languages intersected with the convolution square of L
    and a (language-neutral) length-gap guard."""
    symbols = bs_symbols(m, n)
    cases = bs_case_machines(m, n)
    cases_a = [machine for key, machine in cases.items() if key.startswith("a:")]
    cases_t = [machine for key, machine in cases.items() if key.startswith("t:")]

    conv2 = intersect(pad_lift(nf, "left"), pad_lift(nf, "right"),
                      name=f"bs{m}_{n}_LL")
    gap = m + n + 2
    la = intersect(
        intersect(union_all(cases_a, name="La_cases"), conv2),
        _gap_guard(symbols, gap), name=f"bs{m}_{n}_La")
    lt = intersect(
        intersect(union_all(cases_t, name="Lt_cases"), conv2),
        _gap_guard(symbols, gap, sides=("top",)), name=f"bs{m}_{n}_Lt")
    return {
        "a": la,
        "a-": swap_rows(la, f"bs{m}_{n}_La-"),
        "t": lt,
        "t-": swap_rows(lt, f"bs{m}_{n}_Lt-"),
    }


def bs_structure(m, n, seed_p=None, seed_q=None,
                 quasigeodesic_c=None) -> GraphAutomaticStructure:
    if not 2 <= m < n:
        raise StructureError("bs_structure needs 2 <= m < n")
    symbols = bs_symbols(m, n)
    nf = bs_nf_machine(m, n)
    multipliers = bs_multipliers(m, n, nf)
    alpha = -(-n // m) + 1
    return GraphAutomaticStructure(
        f"bs:{m},{n}", symbols, GeneratorSet.from_pairs([("a", "a-"), ("t", "t-")]),
        nf, multipliers,
        seed_p=seed_p or (),
        seed_q=("#", "#", "#", "#") if seed_q is None else seed_q,
        quasigeodesic_c=quasigeodesic_c,
        growth=GrowthPolicy(alpha, 4 * (m + n)),
        order=("#", "1", "-1") + bs_pi_tokens(m, n),
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
        start, ["s2", "s3", "a", "b", "r", "t"], t, blind=False)


def finf_nf_machine() -> CounterAutomaton:
    return intersect(finf_fig_machine("s2"), finf_fig_machine("s3"),
                     name="finf_L")


def finf_structure(max_index=None) -> GraphAutomaticStructure:
    """Free group on x1, x2, ...; x_i encodes to p 1^i, its inverse to n 1^i.
    Multiplier machines are built on demand per generator index and cached."""
    symbols = ("p", "n", "1")
    nf = finf_nf_machine()
    pairs = tuple(pair_alphabet(symbols).letters())
    lifted_right = pad_lift(nf, "right")  # second row constrained to L
    lifted_left = pad_lift(nf, "left")
    diag = one_of([tuple_token((x, x)) for x in symbols])

    def factory(i):
        append = seq(star(diag), lit(tuple_token((None, "p"))),
                     repeat(lit(tuple_token((None, "1"))), i))
        cancel = seq(star(diag), lit(tuple_token(("n", None))),
                     repeat(lit(tuple_token(("1", None))), i))
        machine = union(
            intersect(build(append, f"finf_x{i}+", pairs), lifted_right),
            intersect(build(cancel, f"finf_x{i}-", pairs), lifted_left),
            name=f"finf_Lx{i}")
        return {f"x{i}": machine, f"x{i}-": swap_rows(machine, f"finf_Lx{i}inv")}

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
    symbols = ("a", "a-")
    t = [
        ("z0", "a", EMPTY_PROGRAM, "zp"), ("zp", "a", EMPTY_PROGRAM, "zp"),
        ("z0", "a-", EMPTY_PROGRAM, "zn"), ("zn", "a-", EMPTY_PROGRAM, "zn"),
    ]
    nf = CounterAutomaton("z_L", symbols, 0, ["z0", "zp", "zn"], "z0",
                          ["z0", "zp", "zn"], t, blind=True)
    pairs = tuple(pair_alphabet(symbols).letters())
    grow = seq(star(lit(tuple_token(("a", "a")))), lit(tuple_token((None, "a"))))
    shrink = seq(star(lit(tuple_token(("a-", "a-")))),
                 lit(tuple_token(("a-", None))))
    la = build(alt(grow, shrink), "z_La", pairs)
    return GraphAutomaticStructure(
        "z", symbols, GeneratorSet.from_pairs([("a", "a-")]), nf,
        {"a": la, "a-": swap_rows(la, "z_La-")},
        seed_p=(), seed_q=(), quasigeodesic_c=1, growth=GrowthPolicy(1, 1),
        order=symbols)


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
    pairs = []
    seen = set()
    for tok in generators.tokens():
        if tok in seen:
            continue
        inv = generators.inverse_of(tok)
        seen.update((tok, inv))
        pairs.append((tok, inv))
    return pairs


def _tagged_parts(structure: GraphAutomaticStructure, tag):
    """Relabel a structure's alphabet and machines with a distinguishing
    prefix; returns (symbols, nf, multipliers, generator pairs, mu).
    Materializes bounded generator families; unbounded ones cannot enter
    product constructions."""
    family = structure.generators.family
    if family is not None and family.max_index is None:
        raise StructureError(
            "product constructions need finitely generated factors")
    symbols = tuple(_tag_token(tag, s) for s in structure.symbols)
    nf = relabel(structure.nf_automaton, lambda s: _tag_token(tag, s),
                 name=f"{tag}{structure.nf_automaton.name}", alphabet=symbols)
    retag = _retag_pair_letter(tag)
    multipliers = {}
    for tok in structure.generators.tokens():
        machine = structure.multiplier(tok)
        multipliers[_tag_token(tag, tok)] = relabel(
            machine, retag, name=f"{tag}{machine.name}",
            alphabet=tuple(pair_alphabet(symbols).letters()))
    pairs = [(_tag_token(tag, a), _tag_token(tag, b))
             for a, b in _generator_pairs(structure.generators)]
    mu = tuple(_tag_token(tag, s) for s in structure.mu)
    return symbols, nf, multipliers, pairs, mu


# ---------------------------------------------------------------------------
# direct product


def direct_product(sg: GraphAutomaticStructure,
                   sh: GraphAutomaticStructure) -> GraphAutomaticStructure:
    """Normal forms are convolutions of the factors' normal forms; a
    multiplier intersects an equal-other-row guard with preimages of the
    untouched factor's language and of the moving factor's multiplier."""
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

    outer = []
    for c1 in symbols + (None,):
        for c2 in symbols + (None,):
            if c1 is None and c2 is None:
                continue
            outer.append(tuple_token((c1, c2)))
    outer = tuple(outer)

    def parts(letter):
        c1, c2 = parse_tuple_token(letter)
        g1, h1 = parse_tuple_token(c1) if c1 is not None else (None, None)
        g2, h2 = parse_tuple_token(c2) if c2 is not None else (None, None)
        return g1, h1, g2, h2

    def equal_row_machine(row):
        keep = []
        for letter in outer:
            g1, h1, g2, h2 = parts(letter)
            if (h1 == h2 if row == "h" else g1 == g2):
                keep.append(letter)
        t = [("q", letter, EMPTY_PROGRAM, "q") for letter in keep]
        return CounterAutomaton(f"prod_eq_{row}", outer, 0, ["q"], "q", ["q"],
                                t, blind=True)

    def component_hom(row, coordinate):
        mapping = {}
        for letter in outer:
            g1, h1, g2, h2 = parts(letter)
            value = (g1, g2, h1, h2)[coordinate]
            mapping[letter] = () if value is None else (value,)
        target = lam_g if coordinate in (0, 1) else lam_h
        return LetterHomomorphism(outer, target, mapping)

    def moving_pair_hom(row):
        mapping = {}
        for letter in outer:
            g1, h1, g2, h2 = parts(letter)
            a, b = (g1, g2) if row == "g" else (h1, h2)
            mapping[letter] = () if a is None and b is None \
                else (tuple_token((a, b)),)
        base = lam_g if row == "g" else lam_h
        return LetterHomomorphism(
            outer, tuple(pair_alphabet(base).letters()), mapping)

    # The row-wise preimages cannot see positions erased in their projection,
    # so alone they admit strings whose inner rows resume after padding; the
    # guard pins all four inner rows (and both outer rows) to suffix padding,
    # which restores exactness without changing counters.
    def validity_guard():
        start = (False,) * 6  # outer1, g1, h1, outer2, g2, h2 ended
        names = {start: "v0"}
        order_keys = [start]
        t = []
        i = 0
        while i < len(order_keys):
            key = order_keys[i]
            i += 1
            o1, g1d, h1d, o2, g2d, h2d = key
            for letter in outer:
                c1, c2 = parse_tuple_token(letter)
                g1, h1, g2, h2 = parts(letter)

                def advance(outer_done, comp, gd, hd, g, h):
                    if comp is None:
                        return True, gd, hd
                    if outer_done:
                        return None
                    gd2 = gd or g is None
                    hd2 = hd or h is None
                    if (g is not None and gd) or (h is not None and hd):
                        return None
                    return False, gd2, hd2

                first = advance(o1, c1, g1d, h1d, g1, h1)
                second = advance(o2, c2, g2d, h2d, g2, h2)
                if first is None or second is None:
                    continue
                nxt = first + second
                if nxt not in names:
                    names[nxt] = f"v{len(names)}"
                    order_keys.append(nxt)
                t.append((names[key], letter, EMPTY_PROGRAM, names[nxt]))
        states = [names[k] for k in order_keys]
        return CounterAutomaton("prod_valid", outer, 0, states, "v0", states,
                                t, blind=True)

    guard = validity_guard()
    eq_h = intersect(equal_row_machine("h"), guard)
    eq_g = intersect(equal_row_machine("g"), guard)
    other_h = preimage(nf_h, component_hom("h", 2), name="prod_Lh_row")
    other_g = preimage(nf_g, component_hom("g", 0), name="prod_Lg_row")
    hom_g = moving_pair_hom("g")
    hom_h = moving_pair_hom("h")

    multipliers = {}
    for tok, machine in mult_g.items():
        multipliers[tok] = intersect(
            intersect(eq_h, other_h), preimage(machine, hom_g),
            name=f"prod_L_{tok}")
    for tok, machine in mult_h.items():
        multipliers[tok] = intersect(
            intersect(eq_g, other_g), preimage(machine, hom_h),
            name=f"prod_L_{tok}")

    quasi = None
    if sg.quasigeodesic_c is not None and sh.quasigeodesic_c is not None:
        quasi = max(sg.quasigeodesic_c, sh.quasigeodesic_c)
    return GraphAutomaticStructure(
        f"product({sg.name},{sh.name})", symbols,
        GeneratorSet.from_pairs(pairs_g + pairs_h), nf, multipliers,
        seed_p=(), seed_q=convolve(mu_g, mu_h) if (mu_g or mu_h) else (),
        quasigeodesic_c=quasi,
        growth=GrowthPolicy(max(sg.growth.alpha, sh.growth.alpha),
                            sg.growth.beta + sh.growth.beta + 1),
        order=symbols)



# ---------------------------------------------------------------------------
# free product


def _without_word(machine: CounterAutomaton, word) -> CounterAutomaton:
    """Intersect with the regular complement of one string."""
    word = tuple(word)
    states = [f"w{i}" for i in range(len(word) + 1)] + ["sink"]
    t = []
    for i, tok in enumerate(word):
        t.append((f"w{i}", tok, EMPTY_PROGRAM, f"w{i + 1}"))
    for i in range(len(word) + 1):
        for tok in machine.alphabet:
            if i < len(word) and tok == word[i]:
                continue
            t.append((f"w{i}", tok, EMPTY_PROGRAM, "sink"))
    for tok in machine.alphabet:
        t.append(("sink", tok, EMPTY_PROGRAM, "sink"))
    accepts = [s for s in states if s != f"w{len(word)}"]
    guard = CounterAutomaton("not_word", machine.alphabet, 0, states, "w0",
                             accepts, t, blind=True)
    return intersect(machine, guard, name=f"{machine.name}\\word")


def _single_word_machine(word, alphabet) -> CounterAutomaton:
    states = [f"u{i}" for i in range(len(word) + 1)]
    t = [(f"u{i}", tok, EMPTY_PROGRAM, f"u{i + 1}") for i, tok in enumerate(word)]
    return CounterAutomaton("one_word", alphabet, 0, states, "u0",
                            [f"u{len(word)}"], t, blind=True)


def _nonempty_block_language(nf: CounterAutomaton, mu) -> CounterAutomaton:
    """The factor's normal forms minus the identity word; if the empty string
    remains (identity word nonempty), it is replaced by a non-member."""
    blocks = _without_word(nf, mu)
    if not blocks.accepts_word(()):
        return blocks
    replacement = None
    from .shortlex import OrderedAlphabet, iter_shortlex
    for candidate in iter_shortlex(OrderedAlphabet(tuple(nf.alphabet)), 8):
        if not nf.accepts_word(candidate):
            replacement = candidate
            break
    if replacement is None:
        raise StructureError("could not find a non-member replacement word")
    states = ["n0", "n1"]
    t = []
    for tok in nf.alphabet:
        t.append(("n0", tok, EMPTY_PROGRAM, "n1"))
        t.append(("n1", tok, EMPTY_PROGRAM, "n1"))
    nonempty = CounterAutomaton("len1+", nf.alphabet, 0, states, "n0", ["n1"],
                                t, blind=True)
    return union(intersect(blocks, nonempty),
                 _single_word_machine(replacement, nf.alphabet),
                 name=f"{blocks.name}~eps")


def _is_blind(transitions) -> bool:
    return not any(program_reads_counters(t[2]) for t in transitions)


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
        for tr in blocks.transitions:
            t.append((prefix + tr.src, tr.label,
                      pad_program(tr.program, blocks.counters, counters),
                      prefix + tr.dst))
        for acc in blocks.accepts:
            t.append((prefix + acc, EPSILON, guard, out))
    return CounterAutomaton(
        "freeprod_L", symbols, counters, states, "k0", ["k1", "k2"], t,
        blind=_is_blind(t))


def _reject_bottom_word(symbols, word) -> CounterAutomaton:
    """Pair-letter guard: the second row must not spell exactly ``word``."""
    word = tuple(word)
    n = len(word)
    letters = list(pair_alphabet(symbols).letters())
    states = [f"m{i}" for i in range(n + 1)] + ["sink", "mend"]
    t = []
    for tok in letters:
        _, b = parse_tuple_token(tok)
        for i in range(n + 1):
            src = f"m{i}"
            if b is None:
                t.append((src, tok, EMPTY_PROGRAM, "mend" if i == n else "sink"))
            elif i < n and b == word[i]:
                t.append((src, tok, EMPTY_PROGRAM, f"m{i + 1}"))
            else:
                t.append((src, tok, EMPTY_PROGRAM, "sink"))
        t.append(("sink", tok, EMPTY_PROGRAM, "sink"))
        if b is None:
            t.append(("mend", tok, EMPTY_PROGRAM, "mend"))
    accepts = [f"m{i}" for i in range(n)] + ["sink"]
    return CounterAutomaton("not_bottom_word", letters, 0, states, "m0",
                            accepts, t, blind=True)


def _free_product_multiplier(nf_machine, sep, side_state, mult, u_x, u_xinv,
                             name) -> CounterAutomaton:
    """Diagonal copy of the normal-form machine, plus an appended-block accept
    path, a cancelled-block accept path, and an embedded copy of the factor's
    multiplier entered on a shared separator letter."""
    counters = max(nf_machine.counters, mult.counters)
    t = []
    states = []
    for tr in nf_machine.transitions:
        prog = pad_program(tr.program, nf_machine.counters, counters)
        label = tr.label
        if label is not EPSILON:
            label = tuple_token((label, label))
        t.append(("d." + tr.src, label, prog, "d." + tr.dst))
    states.extend("d." + s for s in nf_machine.states)
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
    for tr in mult.transitions:
        t.append(("c." + tr.src, tr.label,
                  pad_program(tr.program, mult.counters, counters),
                  "c." + tr.dst))
    accepts.extend("c." + s for s in mult.accepts)

    machine = CounterAutomaton(
        name, tuple(pair_alphabet(nf_machine.alphabet).letters()), counters,
        states, "d." + nf_machine.start, accepts, t, blind=_is_blind(t))
    return trim(machine)


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

    blocks_g = relabel(_nonempty_block_language(nf_g, mu_g), lambda s: s,
                       alphabet=symbols)
    blocks_h = relabel(_nonempty_block_language(nf_h, mu_h), lambda s: s,
                       alphabet=symbols)
    nf = _free_product_nf(blocks_g, blocks_h, sep, symbols)

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
        # the embedded factor multiplier must not produce the factor identity
        # as a block; that case is the cancelled-block path instead
        no_identity_block = _reject_bottom_word(lam, mu)
        for tok in structure.generators.tokens():
            tagged = _tag_token(tag, tok)
            u_x = nf_of(tok)
            u_xinv = nf_of(structure.generators.inverse_of(tok))
            longest_block = max(longest_block, len(u_x), len(u_xinv))
            multipliers[tagged] = _free_product_multiplier(
                nf, sep, side, intersect(mults[tagged], no_identity_block),
                u_x, u_xinv, f"freeprod_L_{tagged}")

    quasi = None
    if sg.quasigeodesic_c is not None and sh.quasigeodesic_c is not None:
        quasi = 2 * (sg.quasigeodesic_c + sh.quasigeodesic_c) + 1
    return GraphAutomaticStructure(
        f"free({sg.name},{sh.name})", symbols,
        GeneratorSet.from_pairs(pairs_g + pairs_h), nf, multipliers,
        seed_p=(), seed_q=(), quasigeodesic_c=quasi,
        growth=GrowthPolicy(max(sg.growth.alpha, sh.growth.alpha),
                            sg.growth.beta + sh.growth.beta + longest_block + 2),
        order=symbols)


# ---------------------------------------------------------------------------
# change of generators


def change_generators(structure: GraphAutomaticStructure, assignments,
                      trivial=()) -> GraphAutomaticStructure:
    """Re-generate a structure over new generators, each given as a nonempty
    word over the old ones (trivial generators flagged explicitly get the
    diagonal language).  A multiplier for a length-k word is assembled from
    the old multipliers by preimage along row-pair projections of a (k+1)-row
    convolution, intersection, and an erasing-aware projection back to the
    outer rows."""
    symbols = structure.symbols
    trivial = set(trivial)
    new_pairs = []
    multipliers = {}
    longest = 1
    for y, word in list(assignments.items()) + [(y, ()) for y in trivial]:
        word = tuple(word)
        y_inv = y + "-"
        new_pairs.append((y, y_inv))
        if y in trivial:
            machine = _diagonal_language(structure.nf_automaton, symbols)
        elif len(word) == 0:
            raise StructureError(f"generator word for {y!r} must be nonempty")
        elif len(word) == 1:
            machine = structure.multiplier(word[0])
        else:
            machine = _composed_multiplier(structure, word, f"regen_L_{y}")
        longest = max(longest, max(len(word), 1))
        multipliers[y] = machine
        multipliers[y_inv] = swap_rows(machine, f"regen_L_{y_inv}")

    # a family generator's step may outgrow the base beta (finf's x_i by i+1)
    alpha = structure.growth.alpha
    beta = max((structure.step_cap(0, x) for word in assignments.values()
                for x in word), default=structure.growth.beta)
    if alpha > 1:
        new_alpha = alpha ** longest
        new_beta = beta * (new_alpha - 1) // (alpha - 1)
    else:
        new_alpha, new_beta = 1, beta * longest
    quasi = None
    if structure.quasigeodesic_c is not None:
        quasi = structure.quasigeodesic_c * longest
    return GraphAutomaticStructure(
        f"regen({structure.name})", symbols, GeneratorSet.from_pairs(new_pairs),
        structure.nf_automaton, multipliers, seed_p=(), seed_q=structure.mu,
        quasigeodesic_c=quasi, growth=GrowthPolicy(new_alpha, new_beta),
        order=structure.order.letters)


def _diagonal_language(nf: CounterAutomaton, symbols) -> CounterAutomaton:
    """{(u, u) : u in L} over the pair alphabet of the structure's symbols,
    which may be narrower than nf's declared alphabet (direct products)."""
    return relabel(nf, lambda tok: tuple_token((tok, tok)), "diag_L",
                   alphabet=tuple(pair_alphabet(symbols).letters()))


def row_pair_homomorphism(symbols, arity, row_a, row_b,
                          target=None) -> LetterHomomorphism:
    """Send each arity-row tuple letter to the pair letter of two of its rows;
    letters carrying padding in both selected rows erase."""
    source = tuple(ConvolvedAlphabet(arity, tuple(symbols)).letters())
    mapping = {}
    for letter in source:
        parts = parse_tuple_token(letter)
        a, b = parts[row_a], parts[row_b]
        mapping[letter] = () if a is None and b is None \
            else (tuple_token((a, b)),)
    if target is None:
        target = tuple(pair_alphabet(symbols).letters())
    return LetterHomomorphism(source, tuple(target), mapping)


def _composed_multiplier(structure, word, name) -> CounterAutomaton:
    symbols = structure.symbols
    k = len(word)

    layers = []
    for i, x in enumerate(word, start=1):
        machine = structure.multiplier(x)
        phi = row_pair_homomorphism(symbols, k + 1, i - 1, i,
                                    target=machine.alphabet)
        layers.append(preimage(machine, phi, name=f"{name}~A{i}"))
    combined = reduce(lambda a, b: intersect(a, b), layers)

    psi = row_pair_homomorphism(symbols, k + 1, 0, k)
    return image(combined, psi, name=name)


# ---------------------------------------------------------------------------
# oracles for the combinators


class ProductOracle(GroupOracle):
    def __init__(self, left: GroupOracle, right: GroupOracle):
        pairs = []
        for oracle, tag in ((left, "1."), (right, "2.")):
            for tok, inv in _generator_pairs(oracle.generators):
                pairs.append((_tag_token(tag, tok), _tag_token(tag, inv)))
        super().__init__(GeneratorSet.from_pairs(pairs))
        self.left, self.right = left, right
        self.name = f"product({left.name},{right.name})"

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


class FreeProductOracle(GroupOracle):
    def __init__(self, left: GroupOracle, right: GroupOracle):
        pairs = []
        for oracle, tag in ((left, "1."), (right, "2.")):
            for tok, inv in _generator_pairs(oracle.generators):
                pairs.append((_tag_token(tag, tok), _tag_token(tag, inv)))
        super().__init__(GeneratorSet.from_pairs(pairs))
        self.left, self.right = left, right
        self.name = f"free({left.name},{right.name})"

    def _factor(self, side):
        return self.left if side == "1." else self.right

    def canonicalize(self, word):
        blocks = []  # (side tag, canonical block word)
        for tok in word:
            side, raw = tok[:2], tok[2:]
            if side not in ("1.", "2."):
                raise StructureError(f"unknown free-product generator {tok!r}")
            if blocks and blocks[-1][0] == side:
                merged = blocks.pop()[1] + (raw,)
            else:
                merged = (raw,)
            canon = self._factor(side).canonicalize(merged)
            if canon:
                blocks.append((side, canon))
            # an emptied block just disappears; alternation is preserved, and
            # later same-side letters merge with the block now on top
        out = []
        for side, block in blocks:
            out.extend(_tag_token(side, t) for t in block)
        return tuple(out)


class RegenOracle(GroupOracle):
    def __init__(self, base: GroupOracle, assignments, trivial=()):
        pairs = [(y, y + "-") for y in list(assignments) + list(trivial)]
        super().__init__(GeneratorSet.from_pairs(pairs))
        self.base = base
        self.assignments = {y: tuple(w) for y, w in assignments.items()}
        for y in trivial:
            self.assignments[y] = ()
        self.name = f"regen({base.name})"

    def _expand(self, tok):
        if tok in self.assignments:
            return self.assignments[tok]
        if tok.endswith("-") and tok[:-1] in self.assignments:
            word = self.assignments[tok[:-1]]
            return tuple(self.base.inverse_of(t) for t in reversed(word))
        raise StructureError(f"unknown regenerated generator {tok!r}")

    def canonicalize(self, word):
        expanded = []
        for tok in word:
            expanded.extend(self._expand(tok))
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
            return ("finf", int(text[5:]))
        except ValueError:
            raise ExprError(f"bad builtin {text!r}")
    if text.startswith("bs:"):
        try:
            m, n = (int(v) for v in text[3:].split(","))
        except ValueError:
            raise ExprError(f"bad builtin {text!r}")
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
    """(assignments, trivial) of a regen node, read against the generator
    tokens of its base structure or oracle."""
    gens = base.generators.tokens()
    assignments = {}
    trivial = []
    for y, text in raw:
        if text == "EPS":
            trivial.append(y)
        else:
            assignments[y] = _lex_generator_word(text, gens)
    return assignments, trivial


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
        return change_generators(base, *_regen_assignments(ast[2], base))
    raise ExprError(f"unknown expression node {kind!r}")


def _build_oracle(ast):
    kind = ast[0]
    if kind == "z":
        return FreeGroupOracle(GeneratorSet.from_pairs([("a", "a-")]), name="z")
    if kind == "finf":
        return FreeGroupOracle(
            GeneratorSet([], FamilySpec("x", None, ast[1])), name="finf")
    if kind == "bs":
        return BSOracle(ast[1], ast[2])
    if kind == "product":
        return ProductOracle(_build_oracle(ast[1]), _build_oracle(ast[2]))
    if kind == "free":
        return FreeProductOracle(_build_oracle(ast[1]), _build_oracle(ast[2]))
    if kind == "regen":
        base = _build_oracle(ast[1])
        return RegenOracle(base, *_regen_assignments(ast[2], base))
    raise ExprError(f"unknown expression node {kind!r}")


def structure_from_expr(text) -> GraphAutomaticStructure:
    return _build_structure(_parse_expr(text))


def oracle_from_expr(text, structure=None) -> GroupOracle:
    if text == "free":
        if structure is None:
            raise ExprError("--oracle free needs a structure to read generators")
        return FreeGroupOracle(structure.generators)
    return _build_oracle(_parse_expr(text))
