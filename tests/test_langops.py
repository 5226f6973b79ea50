import random

import pytest
from hypothesis import given, settings, strategies as st

from cga.automata import (
    EMPTY_PROGRAM,
    EPSILON,
    CounterAutomaton,
    accepts,
    dec,
    inc,
)
from cga.langops import (
    AlphabetMismatch,
    LangOpError,
    LetterHomomorphism,
    compose,
    convolve,
    image,
    intersect,
    pad_lift,
    pair_letters,
    parse_tuple_token,
    preimage,
    quotient,
    swap_rows,
    tuple_token,
    union_all,
)
from cga.groups import bs_encode, bs_structure, finf_nf_machine, z_structure
from cga.shortlex import OrderedAlphabet, iter_shortlex

from conftest import all_words, brute_force_accepts, toks


# -- convolution ----------------------------------------------------------------

def test_convolution_paper_example():
    got = convolve(("a", "a"), ("b", "b", "b"), ("a",))
    assert got == ("(a|b|a)", "(a|b|_)", "(_|b|_)")


def test_convolution_trivial_cases():
    assert convolve((), ()) == ()
    assert convolve(("a", "b"), ("a", "b")) == ("(a|a)", "(b|b)")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(("a", "b", "c")), max_size=5),
                min_size=2, max_size=4))
def test_convolution_round_trip_and_length(words):
    words = [tuple(w) for w in words]
    conv = convolve(*words)
    assert len(conv) == max(len(w) for w in words)
    rows = [parse_tuple_token(token) for token in conv]
    for i, w in enumerate(words):
        assert tuple(row[i] for row in rows if row[i] is not None) == w


def test_tuple_tokens_nest():
    token = tuple_token((tuple_token(("a", None)), None))
    assert token == "((a|_)|_)"
    assert parse_tuple_token(token) == ("(a|_)", None)


def test_pair_letters_exclude_all_padding():
    assert pair_letters(("a",)) == ("(a|a)", "(a|_)", "(_|a)")
    assert "(_|_)" not in pair_letters(("a", "b"))


# -- intersection -----------------------------------------------------------------

def one_counter(word_token, delta):
    return ((inc(delta),),) if delta > 0 else ((dec(-delta),),)


def test_intersect_bs_l1_l2_accepts_paper_string(bs47):
    assert accepts(bs47.nf_automaton, toks("at # 1 1 1 # 1 # # 1"))


def test_intersect_with_all_strings_is_identity(bs23):
    machine = bs23.nf_automaton
    everything = CounterAutomaton(
        "all", machine.alphabet, 0, ["q"], "q", ["q"],
        [("q", tok, EMPTY_PROGRAM, "q") for tok in machine.alphabet])
    both = intersect(machine, everything)
    assert both.counters == machine.counters
    for word in [toks("# # # #"), toks("t # # # #"), toks("# 1 #"),
                 toks("at # 1 # # 1 #")]:
        assert accepts(both, word) == accepts(machine, word)


def test_intersect_finf_l2_l3_rejects_paper_string():
    machine = finf_nf_machine()
    assert machine.counters == 2
    assert not accepts(machine, toks("n 1 p 1 1 n 1 1 p 1"))
    assert accepts(machine, toks("p 1 1 p 1 1 p 1 1 n 1 1 1 1 1"))


def test_intersect_requires_same_alphabet():
    a = CounterAutomaton("a", ("x",), 0, ["q"], "q", ["q"], [])
    b = CounterAutomaton("b", ("y",), 0, ["q"], "q", ["q"], [])
    with pytest.raises(AlphabetMismatch):
        intersect(a, b)


@st.composite
def blind_machine(draw):
    n_states = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(n_states)]
    counters = draw(st.integers(0, 1))
    programs = [EMPTY_PROGRAM]
    if counters:
        programs += [((inc(1),),), ((dec(1),),)]
    transitions = []
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, n_states - 1))
        label = draw(st.sampled_from(("a", "b")))
        dst = draw(st.integers(0, n_states - 1))
        transitions.append((states[src], label,
                            draw(st.sampled_from(programs)), states[dst]))
    accept = draw(st.sets(st.sampled_from(states)))
    return CounterAutomaton("rand", ("a", "b"), counters, states, states[0],
                            accept, transitions, blind=True)


@settings(max_examples=40, deadline=None)
@given(m=blind_machine(), n=blind_machine(), data=st.data())
def test_intersection_and_union_meet_boolean_spec(m, n, data):
    word = tuple(data.draw(st.lists(st.sampled_from(("a", "b")), max_size=6)))
    both = intersect(m, n)
    assert both.counters == m.counters + n.counters
    assert accepts(both, word) == (
        brute_force_accepts(m, word) and brute_force_accepts(n, word))
    either = union_all([m, n])
    assert accepts(either, word) == (
        brute_force_accepts(m, word) or brute_force_accepts(n, word))


def test_blindness_preserved_iff_both_blind():
    from cga.automata import validate
    blind = CounterAutomaton("b", ("a",), 1, ["q"], "q", ["q"],
                             [("q", "a", ((inc(1),),), "q")], blind=True)
    from cga.automata import TEST0
    seeing = CounterAutomaton("s", ("a",), 1, ["q"], "q", ["q"],
                              [("q", "a", ((TEST0,),), "q")])
    # blindness is computed from the transitions, not carried over
    assert validate(intersect(blind, blind)).blind
    assert validate(intersect(blind, seeing)).blind is False
    assert validate(intersect(blind, seeing)).ok


# -- union ---------------------------------------------------------------------

def test_union_with_empty_language(bs23):
    machine = bs23.nf_automaton
    empty = CounterAutomaton("none", machine.alphabet, 0, ["q"], "q", [], [])
    got = union_all([machine, empty])
    for word in [toks("# # # #"), toks("t # # # #"), toks("1 #")]:
        assert accepts(got, word) == accepts(machine, word)


def test_union_idempotent_on_language(bs23):
    machine = bs23.nf_automaton
    got = union_all([machine, machine])
    assert got.epsilon_bound() == machine.epsilon_bound() + 1
    for word in [toks("# # # #"), toks("at- # # # #"), toks("# 1 # 1 #")]:
        assert accepts(got, word) == accepts(machine, word)


def test_case_walk_accepts_case1_witnesses():
    from cga.groups import BSNormalPair, bs_case_walk, bs_cases
    m, n = 2, 3
    # the U_s cases lead the t table, one per pivot letter (# | a^s t)
    u_table = bs_cases(m, n)["t"][:n]
    assert [case[1] for case in u_table] == [("#", "t"), ("#", "at"), ("#", "aat")]
    u_cases = bs_case_walk(m, n, u_table, (0,))
    for p_word in ((), ("t",)):
        for s in range(n):
            for q in range(4):
                big_n = q * n + s
                u = bs_encode(BSNormalPair(p_word, big_n), m, n)
                v_p = p_word + ("a" * s + "t",)
                v = bs_encode(BSNormalPair(v_p, q * m), m, n)
                assert accepts(u_cases, convolve(u, v)), (u, v)


# -- quotient --------------------------------------------------------------------

@st.composite
def epsilon_machine(draw):
    """Small machine with letters a, b and forward-only epsilon moves."""
    n_states = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n_states)]
    counters = draw(st.integers(0, 1))
    programs = [EMPTY_PROGRAM]
    if counters:
        programs += [((inc(1),),), ((dec(1),),)]
    transitions = []
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, n_states - 1))
        label = draw(st.sampled_from(("a", "b", EPSILON)))
        if label is EPSILON:
            if src == n_states - 1:
                continue
            dst = draw(st.integers(src + 1, n_states - 1))
        else:
            dst = draw(st.integers(0, n_states - 1))
        transitions.append((states[src], label,
                            draw(st.sampled_from(programs)), states[dst]))
    accept = draw(st.sets(st.sampled_from(states)))
    return CounterAutomaton("rand", ("a", "b"), counters, states, states[0],
                            accept, transitions, blind=True)


def _assert_quotient_of(machine, words):
    merged = quotient(machine)
    assert merged.epsilon_bound() is not None
    assert merged.epsilon_bound() <= machine.epsilon_bound()
    assert set(merged.states) <= set(machine.states)
    for word in words:
        assert accepts(merged, word) == accepts(machine, word), word
    again = quotient(merged)
    assert (again.states, again.start, again.accepts, again.transitions) == (
        merged.states, merged.start, merged.accepts, merged.transitions)
    return merged


@settings(max_examples=60, deadline=None)
@given(m=epsilon_machine())
def test_quotient_keeps_language_on_random_machines(m):
    merged = _assert_quotient_of(m, ())
    for word in all_words(("a", "b"), 4):
        assert accepts(merged, word) == brute_force_accepts(m, word), word


def _bs_pairs(m, n, x, count, seed):
    """Seeded convolved normal-form pairs (u, v): v is u's step by x, a step
    by another word, or the normal form of an unrelated word."""
    from cga.groups import BSOracle
    oracle = BSOracle(m, n)
    gens = ("a", "a-", "t", "t-")
    rng = random.Random(seed)

    def nf(word):
        return bs_encode(oracle.pair(word), m, n)

    def word():
        return tuple(rng.choice(gens) for _ in range(rng.randint(0, 7)))

    pairs = []
    for i in range(count):
        w = word()
        if i % 3 == 0:
            v = nf(w + (x,))
        elif i % 3 == 1:
            v = nf(w + (x, rng.choice(gens)))
        else:
            v = nf(word())
        pairs.append(convolve(nf(w), v))
    return pairs


# the rows each generator's case walk bounds, as bs_multipliers passes them
_BS_BOUNDED = {"a": (0, 1), "t": (0,)}


@pytest.mark.parametrize("m,n", [(2, 3), (4, 7)])
def test_quotient_keeps_bs_multiplier_languages(m, n, monkeypatch):
    from cga import groups
    monkeypatch.setattr(groups, "quotient", lambda machine, name=None: machine)
    built = groups.bs_multipliers(m, n, groups.bs_nf_machine(m, n))
    cases = groups.bs_cases(m, n)
    for x, machine in built.items():
        words = _bs_pairs(m, n, x, 45, seed=m * 100 + n)
        merged = _assert_quotient_of(machine, words)
        assert len(merged.states) < len(machine.states)
        assert sum(accepts(merged, w) for w in words) >= 15
        walk = groups.bs_case_walk(m, n, cases[x], _BS_BOUNDED[x])
        merged_walk = _assert_quotient_of(walk, words)
        assert len(merged_walk.states) < len(walk.states)
        assert sum(accepts(merged_walk, w) for w in words) >= 15


@pytest.mark.parametrize("m,n,sizes", [
    (2, 3, {"a": (174, 373), "t": (205, 460)}),
    (4, 7, {"a": (538, 1265), "t": (667, 1616)}),
])
def test_bs_multipliers_match_the_product_of_the_whole_walk(m, n, sizes):
    from cga.groups import bs_case_walk, bs_cases, bs_multipliers, bs_nf_machine
    nf = bs_nf_machine(m, n)
    conv2 = intersect(pad_lift(nf, "left"), pad_lift(nf, "right"))
    cases = bs_cases(m, n)
    built = bs_multipliers(m, n, nf)
    for x, machine in built.items():
        reference = quotient(intersect(
            bs_case_walk(m, n, cases[x], _BS_BOUNDED[x]), conv2))
        assert (len(machine.states), len(machine.transitions)) == sizes[x]
        assert (len(reference.states), len(reference.transitions),
                len(reference.accepts)) == (
            len(machine.states), len(machine.transitions),
            len(machine.accepts))
        words = _bs_pairs(m, n, x, 45, seed=m * 100 + n)
        for word in words:
            assert accepts(machine, word) == accepts(reference, word), word
        assert sum(accepts(machine, w) for w in words) >= 15


def test_quotient_keeps_product_multiplier_language():
    from cga.groups import structure_from_expr
    structure = structure_from_expr("product(bs:2,3,z)")
    machine = structure.multiplier("1.t")
    gens = structure.generators.tokens()
    rng = random.Random(5)
    words = []
    for i in range(20):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        u = structure.normal_form(w)
        tail = ("1.t",) if i % 2 == 0 else ("1.t", rng.choice(gens))
        words.append(convolve(u, structure.normal_form(w + tail)))
    merged = _assert_quotient_of(machine, words)
    assert len(merged.states) < len(machine.states)
    assert sum(accepts(merged, w) for w in words) >= 10


# -- image / preimage --------------------------------------------------------------

def test_row_swap_turns_multiplier_into_inverse(bs23, bs23_oracle):
    la = bs23.multiplier("a")
    la_inv = bs23.multiplier("a-")
    u = bs23.normal_form(("a",))
    v = bs23.normal_form(("a", "a"))
    assert accepts(la, convolve(u, v))
    assert accepts(la_inv, convolve(v, u))
    assert not accepts(la_inv, convolve(u, v))


def test_row_swap_is_involution(bs23):
    la = bs23.multiplier("a")
    back = swap_rows(swap_rows(la))
    u = bs23.normal_form(("t",))
    v = bs23.normal_form(("t", "a"))
    for pair in [(u, v), (v, u), (u, u)]:
        assert accepts(back, convolve(*pair)) == accepts(la, convolve(*pair))


def test_image_identity_homomorphism(bs23):
    machine = bs23.nf_automaton
    letters = machine.alphabet
    same = image(machine, LetterHomomorphism(
        letters, letters, {a: (a,) for a in letters}))
    for word in [toks("# # # #"), toks("t # 1 # # 1 #"), toks("# #")]:
        assert accepts(same, word) == accepts(machine, word)


def test_image_onto_rank_one_fragment(finf):
    # a -> p1, A -> n1 sends freely reduced {a,A} words onto the x1 fragment
    z = z_structure()
    source = image(z.nf_automaton,
                   LetterHomomorphism(("a", "a-"), ("p", "n", "1"),
                                      {"a": ("p", "1"), "a-": ("n", "1")}))
    finf_l = finf.nf_automaton
    mapping = {"a": ("p", "1"), "a-": ("n", "1")}
    for word in all_words(("a", "a-"), 4):
        encoded = tuple(tok for letter in word for tok in mapping[letter])
        assert accepts(source, encoded) == accepts(finf_l, encoded)


def test_image_erasing_cycle_is_rejected():
    machine = CounterAutomaton(
        "loop", ("a", "b"), 0, ["q"], "q", ["q"],
        [("q", "a", EMPTY_PROGRAM, "q"), ("q", "b", EMPTY_PROGRAM, "q")])
    erase_a = LetterHomomorphism(("a", "b"), ("b",), {"a": (), "b": ("b",)})
    with pytest.raises(LangOpError):
        image(machine, erase_a)


def test_preimage_identity(bs23):
    machine = bs23.nf_automaton
    letters = machine.alphabet
    same = preimage(machine, LetterHomomorphism(
        letters, letters, {a: (a,) for a in letters}))
    for word in [toks("# # # #"), toks("t # 1 # # 1 #"), toks("1 1")]:
        assert accepts(same, word) == accepts(machine, word)


def test_preimage_of_anbn_under_c_to_ab():
    anbn = CounterAutomaton(
        "anbn", ("a", "b"), 1, ["qa", "qb"], "qa", ["qa", "qb"],
        [("qa", "a", ((inc(1),),), "qa"),
         ("qa", "b", ((dec(1),),), "qb"),
         ("qb", "b", ((dec(1),),), "qb")])
    phi = LetterHomomorphism(("c",), ("a", "b"), {"c": ("a", "b")})
    pre = preimage(anbn, phi)
    for length in range(7):
        word = ("c",) * length
        expected = anbn.accepts_word(phi.apply(word))
        assert accepts(pre, word) == expected
        assert expected == (length <= 1)


def test_preimage_keeps_epsilon_acceptance():
    # machine accepting only the empty word via an epsilon hop
    machine = CounterAutomaton(
        "eps", ("a",), 0, ["p", "q"], "p", ["q"],
        [("p", EPSILON, EMPTY_PROGRAM, "q")])
    phi = LetterHomomorphism(("c",), ("a",), {"c": ()})
    pre = preimage(machine, phi)
    assert accepts(pre, ())
    assert accepts(pre, ("c",))  # image is still the empty word


# -- compose ------------------------------------------------------------------------

def test_compose_a_then_t_accepts_the_outer_rows(bs23):
    # radius-3 sample sweep of the change-of-generators building block
    at = compose(bs23.multiplier("a"), bs23.multiplier("t"))
    words = [(), ("a",), ("t",), ("a", "t-"), ("t", "a"), ("a-", "a-")]
    for w in words:
        v0 = bs23.normal_form(w)
        v2 = bs23.normal_form(w + ("a", "t"))
        assert accepts(at, convolve(v0, v2))
        # a wrong bottom row has no middle row that both layers accept
        assert not accepts(at, convolve(v0, bs23.normal_form(w + ("a", "a"))))


def test_compose_with_an_unbounded_middle_row_is_refused(bs23):
    # t- then t: erasing the middle row leaves an epsilon cycle
    with pytest.raises(LangOpError, match="epsilon cycle"):
        compose(bs23.multiplier("t-"), bs23.multiplier("t"))


# -- pad_lift ---------------------------------------------------------------------

def test_pad_lift_finf_accepts_padded_member(finf):
    lifted = pad_lift(finf.nf_automaton, "right")
    assert accepts(lifted, convolve(("p", "1"), ("p", "1", "1")))


def test_pad_lift_left_rejects_bad_projection(finf):
    lifted = pad_lift(finf.nf_automaton, "left")
    word = convolve(("p",), ("p", "1"))  # row 0 spells just "p", not in L
    assert not accepts(lifted, word)


def test_pad_lift_enforces_padding_suffix(bs23):
    machine = pad_lift(bs23.nf_automaton, "left")
    # second row resumes after padding: invalid convolution shape
    bad = ("(#|#)", "(#|_)", "(#|#)", "(#|_)")
    assert not accepts(machine, bad)


def test_pad_intersection_is_convolution_square(bs23):
    import random
    from cga.groups import BSNormalPair
    rng = random.Random(7)
    square = intersect(pad_lift(bs23.nf_automaton, "left"),
                       pad_lift(bs23.nf_automaton, "right"))
    words = []
    for _ in range(20):
        p_word = rng.choice([(), ("t",), ("at",), ("t", "at-")])
        value = rng.randint(-6, 6)
        words.append(bs_encode(BSNormalPair(p_word, value), 2, 3))
    for u in words[:5]:
        for v in words[5:10]:
            assert accepts(square, convolve(u, v))
    # and a non-member second row
    assert not accepts(square, convolve(words[0], ("#", "1", "1", "#", "#", "#")))
