import random
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from cga import gastructure, groups, langops
from cga.automata import accepts, program_reads_counters, validate
from cga.gastructure import (
    GraphAutomaticStructure,
    StructureError,
    _search,
    accepted_candidates,
    candidate_trie,
    verify,
)
from cga.groups import (
    BSDecodeError,
    BSNormalPair,
    BSOracle,
    ExprError,
    FreeGroupOracle,
    FreeProductOracle,
    ProductOracle,
    RegenOracle,
    bs_canonicalize,
    bs_decode,
    bs_encode,
    bs_pair_to_word,
    bs_structure,
    change_generators,
    direct_product,
    free_product,
    free_reduce,
    oracle_from_expr,
    structure_from_expr,
    z_structure,
)
from cga.gastructure import GeneratorSet
from cga.langops import convolve, parse_tuple_token, swap_rows

from conftest import all_words, ball_normal_forms, toks


# -- free reduction oracle ------------------------------------------------------

def test_free_reduce_examples():
    inv = {"x2": "x2-", "x2-": "x2", "x1": "x1-", "x1-": "x1",
           "x5": "x5-", "x5-": "x5"}
    assert free_reduce(("x2", "x2-"), inv.get) == ()
    assert free_reduce(("x1", "x2", "x2-", "x1"), inv.get) == ("x1", "x1")
    already = ("x2", "x2", "x2", "x5-")
    assert free_reduce(already, inv.get) == already


# -- Baumslag-Solitar rewriting ---------------------------------------------------

def test_bs_canonicalize_examples():
    assert bs_canonicalize(("a",) * 7 + ("t",), 4, 7) == BSNormalPair(("t",), 4)
    assert bs_canonicalize(("a", "t") + ("a",) * 7, 4, 7) == \
        BSNormalPair(("at",), 7)
    assert bs_canonicalize(("t", "t-"), 4, 7) == BSNormalPair((), 0)
    assert bs_canonicalize(("t", "t-"), 2, 3) == BSNormalPair((), 0)


def test_bs_identity_table_fixpoints():
    # every defining identity leaves the canonical form unchanged when
    # applied inside random words
    m, n = 2, 3
    oracle = BSOracle(m, n)
    rng = random.Random(11)
    identities = [
        (("a", "a-"), ()),
        (("a-", "a"), ()),
        (("t", "t-"), ()),
        (("t-", "t"), ()),
        (("a",) * n + ("t",), ("t",) + ("a",) * m),
        (("a-",) * n + ("t",), ("t",) + ("a-",) * m),
        (("a",) * m + ("t-",), ("t-",) + ("a",) * n),
        (("a-",) * m + ("t-",), ("t-",) + ("a-",) * n),
    ]
    for i in range(1, n):  # a^-i t = a^(n-i) t a^-m
        identities.append((("a-",) * i + ("t",),
                           ("a",) * (n - i) + ("t",) + ("a-",) * m))
    for j in range(1, m):  # a^-j t- = a^(m-j) t- a^-n
        identities.append((("a-",) * j + ("t-",),
                           ("a",) * (m - j) + ("t-",) + ("a-",) * n))
    gens = ("a", "a-", "t", "t-")
    for left, right in identities:
        for _ in range(5):
            prefix = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            suffix = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            assert oracle.canonicalize(prefix + left + suffix) == \
                oracle.canonicalize(prefix + right + suffix)


def test_bs_canonicalize_is_idempotent_and_kills_inverses():
    oracle = BSOracle(2, 3)
    rng = random.Random(5)
    gens = ("a", "a-", "t", "t-")
    for _ in range(40):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
        canon = oracle.canonicalize(word)
        assert oracle.canonicalize(canon) == canon
        inverse = tuple(oracle.inverse_of(t) for t in reversed(word))
        assert oracle.canonicalize(word + inverse) == ()


def test_bs_encode_examples():
    assert bs_encode(BSNormalPair(("at",), 7), 4, 7) == \
        toks("at # 1 1 1 # 1 # # 1")
    assert bs_encode(BSNormalPair((), 0), 4, 7) == toks("# # # #")
    assert bs_encode(BSNormalPair(("t",), -4), 4, 7) == \
        toks("t # # -1 # -1 -1 -1 -1 #")


def test_bs_decode_round_trip_and_language_membership(bs23):
    rng = random.Random(3)
    p_choices = [(), ("t",), ("at",), ("t-",), ("t", "at-"), ("aat", "t")]
    for _ in range(60):
        pair = BSNormalPair(rng.choice(p_choices), rng.randint(-9, 9))
        word = bs_encode(pair, 2, 3)
        assert bs_decode(word, 2, 3) == pair
        assert accepts(bs23.nf_automaton, word)


def test_bs_decode_diagnostics():
    with pytest.raises(BSDecodeError) as err:
        bs_decode(toks("at # 1 1 1 1 1 # 1 # # 1"), 4, 7)
    assert err.value.reason == "r>=m"
    with pytest.raises(BSDecodeError) as err:
        bs_decode(toks("at # 1 1 # 1 1 # 1 # 1"), 4, 7)
    assert err.value.reason == "sum-mismatch"
    with pytest.raises(BSDecodeError) as err:
        bs_decode(toks("t t- # # # #"), 4, 7)
    assert err.value.reason == "bad-P"
    with pytest.raises(BSDecodeError) as err:
        bs_decode(toks("# 1 # -1 # #"), 4, 7)
    assert err.value.reason == "mixed-signs"


def test_bs_pair_rendering_round_trip():
    oracle = BSOracle(2, 3)
    pair = BSNormalPair(("t", "at"), -3)
    word = bs_pair_to_word(pair)
    assert oracle.pair(word) == pair


def test_zero_run_form_reserved_for_zero():
    # the all-empty run form is the unique N=0 encoding, accepted via the
    # L1 machine's zero chain
    from cga.groups import bs_l1_machine
    machine = bs_l1_machine(2, 3)
    assert ("q0", (0,)) in machine.run(toks("# # # #"))


# -- structures -------------------------------------------------------------------

def test_bs_structure_multiplier_counters(bs23, bs47):
    for structure in (bs23, bs47):
        assert structure.nf_automaton.counters == 1
        for tok in structure.generators.tokens():
            assert structure.multiplier(tok).counters <= 3


def test_bs_structure_multipliers_are_blind(bs23):
    for tok in bs23.generators.tokens():
        machine = bs23.multiplier(tok)
        assert not any(program_reads_counters(t.program)
                       for t in machine.transitions)


def _letters_after_row_end(machine, row):
    """Most letters a pair machine can read once row ``row`` has ended, the
    first padded letter included; None if it can read them forever."""
    edges = {}
    for t in machine.transitions:
        if t.label is None or parse_tuple_token(t.label)[row] is None:
            edges.setdefault(t.src, []).append(
                (0 if t.label is None else 1, t.dst))
    indegree = dict.fromkeys(edges, 0)
    for out in edges.values():
        for _, dst in out:
            indegree[dst] = indegree.get(dst, 0) + 1
    order = [q for q, d in indegree.items() if d == 0]
    for q in order:
        for _, dst in edges.get(q, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    if len(order) < len(indegree):
        return None  # a cycle, and epsilon moves alone cannot close one
    longest = {}
    for q in reversed(order):
        longest[q] = max((w + longest[dst] for w, dst in edges.get(q, ())),
                         default=0)
    return max(longest.values(), default=0)


@pytest.mark.parametrize("fixture,m,n", [("bs23", 2, 3), ("bs47", 4, 7)])
def test_bs_a_multiplier_bounds_both_rows(fixture, m, n, request):
    # a bounds both rows, t only the top one
    structure = request.getfixturevalue(fixture)
    for gen, rows in (("a", (0, 1)), ("t", (0,))):
        machine = structure.multiplier(gen)
        for row in rows:
            bound = _letters_after_row_end(machine, row)
            assert bound is not None and bound <= m + n + 2, (gen, row, bound)


@pytest.mark.parametrize("fixture", ["bs23", "bs47"])
def test_bs_multipliers_are_epsilon_free(fixture, request):
    structure = request.getfixturevalue(fixture)
    for gen in ("a", "t"):
        assert structure.multiplier(gen).epsilon_bound() == 0, gen


def test_bs_relator_normal_forms(bs23):
    assert bs23.normal_form(toks("t a a t-")) == bs23.normal_form(toks("a a a"))


@pytest.mark.parametrize("m,n", [(3, 4), (2, 5), (3, 5)])
def test_bs_verifies_beyond_the_fixture_parameters(m, n):
    # case index ranges other than those of bs:2,3 and bs:4,7
    report = verify(bs_structure(m, n), 4, BSOracle(m, n))
    assert report.ok, [f.detail for f in report.failures[:3]]


def test_bs_encode_always_accepted(bs23, bs23_oracle):
    rng = random.Random(9)
    gens = ("a", "a-", "t", "t-")
    for _ in range(30):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
        encoded = bs_encode(bs23_oracle.pair(word), 2, 3)
        assert accepts(bs23.nf_automaton, encoded)
        assert bs23.normal_form(word) == encoded


def test_positive_steps_build_no_row_swap(monkeypatch):
    # builders give one multiplier per inverse pair; the structure makes the
    # other as the row swap, once, when a word first uses it
    swapped = []

    def counting_swap(machine, name=None):
        swapped.append(machine.name)
        return swap_rows(machine, name)

    monkeypatch.setattr(gastructure, "swap_rows", counting_swap)
    for expr in ("bs:2,3", "z", "finf:3", "product(z,z)", "free(z,z)"):
        structure = structure_from_expr(expr)
        # a free product reads each factor's normal form of a- off the
        # factor, which swaps the factor's own a multiplier
        built = ["z_La", "z_La"] if expr == "free(z,z)" else []
        assert swapped == built, expr
        positive = [x for x in structure.generators.tokens()
                    if not x.endswith("-")]
        for x in positive:
            structure.normal_form((x, x))
        assert swapped == built, expr
        inverse = structure.generators.inverse_of(positive[0])
        structure.normal_form((inverse, inverse))
        made = structure.multiplier(inverse)
        assert swapped == built + [structure.multiplier(positive[0]).name]
        assert made.name == structure.multiplier(positive[0]).name + "-"
        swapped.clear()


def test_product_walks_one_multiplier_per_pair(monkeypatch):
    # the walk takes each factor's multiplier for the first generator of
    # each inverse pair, against the other factor's normal-form machine
    walked = []
    walk = groups._product_multiplier

    def counting_walk(mult, other, side, alphabet, name):
        walked.append((mult.name, other.name, side))
        return walk(mult, other, side, alphabet, name)

    monkeypatch.setattr(groups, "_product_multiplier", counting_walk)
    direct_product(z_structure(), z_structure())
    assert walked == [("1.z_La", "2.z_L", 0), ("2.z_La", "1.z_L", 1)]


def test_finf_lazy_instantiation(finf):
    fresh = structure_from_expr("finf")
    fresh.normal_form(("x2", "x1"))
    assert fresh.instantiated_family_indices() == [1, 2]


def test_finf_rejected_string(finf):
    assert not accepts(finf.nf_automaton, tuple("n1p11n11p1"))


def test_z_structure_basics(zs):
    assert zs.normal_form(("a", "a", "a-")) == ("a",)
    assert zs.word_problem(("a", "a-"))
    assert zs.quasigeodesic_c == 1


# -- direct product ------------------------------------------------------------------

@pytest.fixture(scope="module")
def zxz():
    return structure_from_expr("product(z,z)")


def test_product_identity_is_pair_of_identities(zxz):
    assert zxz.mu == ()
    nf = zxz.normal_form(("1.a", "2.a"))
    assert nf == ("(a|a)",) or nf == ("(1.a|2.a)",)


def test_product_commutation_and_oracle(zxz):
    assert zxz.are_equal(("1.a", "2.a"), ("2.a", "1.a"))
    oracle = oracle_from_expr("product(z,z)")
    assert oracle.equal(("1.a", "2.a"), ("2.a", "1.a"))
    assert not oracle.equal(("1.a",), ("2.a",))


def test_product_verifies_against_componentwise_oracle(zxz):
    report = verify(zxz, 4, oracle_from_expr("product(z,z)"))
    assert report.ok, [f.detail for f in report.failures[:3]]


def assert_multipliers_accept_only_pairs_in_L(structure, candidates):
    trie = candidate_trie(candidates)
    in_l = structure.nf_automaton.accepts_word
    for x in structure.generators.tokens():
        accepted = accepted_candidates(structure.multiplier(x), trie)
        assert set(accepted) == set(candidates)
        for u in candidates:
            for v in accepted[u]:
                assert in_l(u) and in_l(v), (x, u, v)


@pytest.mark.parametrize("expr, length", [
    ("product(z,z)", 4), ("product(bs:2,3,z)", 3), ("product(finf:2,z)", 3),
])
def test_product_multipliers_accept_only_pairs_in_L(expr, length):
    # every symbol word up to ``length``, where inner rows pad and resume in
    # every way, plus the radius-2 ball: each accepted pair lies in L x L
    structure = structure_from_expr(expr)
    candidates = list(dict.fromkeys(
        [*all_words(structure.symbols, length),
         *ball_normal_forms(structure, 2)]))
    assert_multipliers_accept_only_pairs_in_L(structure, candidates)


@pytest.mark.parametrize("expr", ["product(product(z,z),bs:2,3)",
                                  "product(z,product(finf:2,z))"])
def test_three_factor_product_verifies(expr):
    report = verify(structure_from_expr(expr), 2, oracle_from_expr(expr))
    assert report.ok, [f.detail for f in report.failures[:3]]


@pytest.mark.parametrize("expr", [
    "regen(product(bs:2,3,z); y=1.a 2.a; g=1.a; h=1.t; k=2.a)",
    # 80 product symbols, so 531,440 three-row letters: composition must
    # walk transitions, not letters
    "regen(product(product(z,z),bs:2,3); p=1.1.a- 2.a; q=1.1.a 2.t; r=1.2.a)",
])
def test_regen_over_product_verifies(expr):
    report = verify(structure_from_expr(expr), 2, oracle_from_expr(expr))
    assert report.ok, [f.detail for f in report.failures[:3]]


# -- free product ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def f2():
    return structure_from_expr("free(z,z)")


def test_free_product_counter_count(f2):
    z = z_structure()
    assert f2.nf_automaton.counters == max(z.nf_automaton.counters,
                                           z.nf_automaton.counters)


def test_free_product_identity_is_empty(f2):
    assert f2.mu == ()
    assert f2.normal_form(()) == ()


def test_free_product_verifies_as_rank_two_free_group(f2):
    report = verify(f2, 4, oracle_from_expr("free(z,z)"))
    assert report.ok, [f.detail for f in report.failures[:3]]
    generic = FreeGroupOracle(f2.generators)
    report2 = verify(f2, 3, generic)
    assert report2.ok


def test_free_product_oracle_matches_free_reduction(f2):
    # Z*Z is free of rank two, so free reduction is an independent reference
    oracle = oracle_from_expr("free(z,z)")
    reference = FreeGroupOracle(f2.generators)
    letters = f2.generators.tokens()
    rng = random.Random(7)
    for _ in range(500):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(13)))
        assert oracle.canonicalize(word) == reference.canonicalize(word), word


def test_free_product_with_bs_keeps_relator():
    fb = structure_from_expr("free(bs:2,3,z)")
    assert fb.word_problem(toks("1.t 1.a 1.a 1.t- 1.a- 1.a- 1.a-"))
    assert not fb.word_problem(toks("1.a 2.a"))
    assert fb.are_equal(toks("2.a 1.t 1.a 1.a 1.t-"), toks("2.a 1.a 1.a 1.a"))


@pytest.mark.parametrize("expr, identities", [
    ("free(z,z)", [()]),
    ("free(bs:2,3,z)", [("1.#",) * 4, ()]),
])
def test_free_product_multipliers_accept_only_pairs_in_L(expr, identities):
    # a word ending in a separator and a factor's identity word lies outside
    # L; every multiplier must reject it on either row
    structure = structure_from_expr(expr)
    sep = structure.symbols[0]
    words = ball_normal_forms(structure, 2)
    candidates = words + [w + (sep,) + mu for w in words for mu in identities]
    assert_multipliers_accept_only_pairs_in_L(structure, candidates)


def test_free_product_oracle_blocks():
    oracle = oracle_from_expr("free(z,z)")
    assert oracle.canonicalize(toks("1.a 2.a 2.a- 1.a")) == toks("1.a 1.a")
    assert oracle.is_trivial(toks("1.a 2.a 2.a- 1.a-"))


# -- change of generators ----------------------------------------------------------------

@pytest.fixture(scope="module")
def regen_bs():
    return structure_from_expr("regen(bs:2,3; a=a; t=t; u=at)")


def test_regen_identity_change_preserves_multipliers(bs23):
    same = change_generators(bs23, {"a": ("a",), "t": ("t",)})
    ball = ball_normal_forms(bs23, 3)
    for u in ball[:10]:
        for v in ball[:10]:
            pair = convolve(u, v)
            for tok in ("a", "t", "a-", "t-"):
                assert accepts(same.multiplier(tok), pair) == \
                    accepts(bs23.multiplier(tok), pair)


def test_regen_verifies_against_substitution_oracle(regen_bs):
    report = verify(regen_bs, 3, oracle_from_expr("regen(bs:2,3; a=a; t=t; u=at)"))
    assert report.ok, [f.detail for f in report.failures[:3]]


@pytest.mark.parametrize("expr", ["regen(bs:2,3; y=a- a)",
                                  "regen(bs:2,3; a=a; t=t; y=a- a)",
                                  "regen(bs:2,3; a=a; t=t; y=t- t)"])
def test_regen_inverse_then_generator_builds_and_verifies(expr):
    # the word freely reduces to the empty word, so y gets the diagonal
    # language; composing t- and t would leave an epsilon cycle
    structure = structure_from_expr(expr)
    assert structure.normal_form(("y",)) == structure.mu
    report = verify(structure, 3, oracle_from_expr(expr))
    assert report.ok, [f.detail for f in report.failures[:3]]


@pytest.mark.parametrize("expr, y", [
    ("regen(bs:2,3; a=a; t=t; u=at)", "u"),
    # layers with epsilon moves, which the walk keeps as epsilon moves
    ("regen(free(z,z); c=1.a 2.a; d=1.a)", "c"),
    ("regen(finf:2; y=x1 x2; x=x1)", "y"),
])
def test_regen_composed_multiplier_agrees_with_direct_membership(expr, y):
    # over the radius-3 ball, (u, v) is accepted exactly when u y = v
    structure = structure_from_expr(expr)
    oracle = oracle_from_expr(expr)
    words = {structure.mu: ()}  # normal form -> a generator word for it
    frontier = [structure.mu]
    for _ in range(3):
        nxt = []
        for u in frontier:
            for x in structure.generators.tokens():
                v = structure.step_normal_form(u, x)
                if v not in words:
                    words[v] = words[u] + (x,)
                    nxt.append(v)
        frontier = nxt
    element = {nf: oracle.canonicalize(w) for nf, w in words.items()}
    accepted = accepted_candidates(structure.multiplier(y), candidate_trie(words))
    for u, w in words.items():
        target = oracle.canonicalize(w + (y,))
        assert accepted[u] == {v for v in words if element[v] == target}, u


def test_regen_oracle_builds_no_structure(regen_bs, monkeypatch):
    import cga.groups

    exprs = ["regen(bs:2,3; a=a; t=t; u=at)", "regen(free(z,z); b=1.a 2.a; e=EPS)",
             "regen(product(finf:2,z); y=1.x1 2.a)"]
    tokens = {e: structure_from_expr(e).generators.tokens() for e in exprs[1:]}
    tokens[exprs[0]] = regen_bs.generators.tokens()

    def fail(ast):
        raise AssertionError("structure built for an oracle")

    monkeypatch.setattr(cga.groups, "_build_structure", fail)
    for expr in exprs:
        assert oracle_from_expr(expr).generators.tokens() == tokens[expr]
    oracle = oracle_from_expr(exprs[0])
    assert oracle.is_trivial(("u", "t-", "a-"))
    assert not oracle.is_trivial(("u", "a-"))


def test_regen_trivial_generator_gets_diagonal(bs23):
    got = change_generators(bs23, {"a": ("a",), "t": ("t",), "e": ()})
    diag = got.multiplier("e")
    u = bs23.normal_form(("t",))
    v = bs23.normal_form(("a",))
    assert accepts(diag, convolve(u, u))
    assert not accepts(diag, convolve(u, v))
    assert got.are_equal(("e",), ())
    report = verify(got, 2, RegenOracle(BSOracle(2, 3),
                                        {"a": ("a",), "t": ("t",), "e": ()}))
    assert report.ok


def test_regen_over_bounded_finf_keeps_family_growth():
    # finf caps a step by x_i at beta i + 1, above its base beta of 1
    expr = "regen(finf:2; y=x1 x2; x=x1)"
    assert verify(structure_from_expr(expr), 3, oracle_from_expr(expr)).ok


def test_regen_trivial_generator_over_direct_product():
    expr = "regen(product(z,z); y=1.a; e=EPS)"
    structure = structure_from_expr(expr)
    assert structure.normal_form(toks("y e")) == structure.normal_form(("y",))
    report = verify(structure, 3, oracle_from_expr(expr))
    assert report.ok
    assert (report.words_checked, report.elements) == (85, 7)


def test_regen_empty_word_gets_diagonal(bs23):
    got = change_generators(bs23, {"y": ()})
    assert got.multiplier("y").name == "diag_L"
    u = bs23.normal_form(("t",))
    assert accepts(got.multiplier("y"), convolve(u, u))
    assert not accepts(got.multiplier("y"), convolve(u, bs23.mu))


def test_regen_word_reducing_to_a_letter_builds_and_verifies():
    # y = a t- t is read as a and gets a's multiplier, with no composition
    expr = "regen(bs:2,3; a=a; t=t; y=a t- t)"
    structure = structure_from_expr(expr)
    assert structure.normal_form(("y",)) == structure.normal_form(("a",))
    report = verify(structure, 3, oracle_from_expr(expr))
    assert report.ok, [f.detail for f in report.failures[:3]]


def test_regen_alias_takes_its_letters_inverse_multiplier():
    # y is a, so y- is a-'s machine, not a second swap of a's, and a's twin
    # stays a- whichever of y- and a- is made first
    expr = "regen(bs:2,3; a=a; t=t; y=a t- t)"
    for first in ("y-", "a-"):
        structure = structure_from_expr(expr)
        structure.multiplier(first)
        assert structure.multiplier("y") is structure.multiplier("a")
        assert structure.multiplier("y-") is structure.multiplier("a-")
        assert (_search(structure.multiplier("a-")).twin
                is _search(structure.multiplier("a")))


def test_regen_keeps_the_expression_order_of_trivial_generators():
    expr = "regen(z; e=EPS; y=a)"
    assert structure_from_expr(expr).generators.tokens() == ["e", "e-", "y", "y-"]
    assert oracle_from_expr(expr).generators.tokens() == ["e", "e-", "y", "y-"]


REGEN_BASES = {
    "z": ["a", "a-"],
    "bs:2,3": ["a", "a-", "t", "t-"],
    "finf:2": ["x1", "x1-", "x2", "x2-"],
    "free(z,z)": ["1.a", "1.a-", "2.a", "2.a-"],
    "product(z,z)": ["1.a", "1.a-", "2.a", "2.a-"],
}


@st.composite
def regen_expressions(draw):
    """regen(B; y=w1[; v=w2]), each word EPS or one or two letters of B."""
    base = draw(st.sampled_from(sorted(REGEN_BASES)))
    word = st.lists(st.sampled_from(REGEN_BASES[base]), max_size=2).map(
        lambda letters: " ".join(letters) or "EPS")
    words = draw(st.lists(word, min_size=1, max_size=2))
    return f"regen({base}; " + "; ".join(
        f"{y}={w}" for y, w in zip("yv", words)) + ")"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(expr=regen_expressions())
@example(expr="regen(bs:2,3; y=t- t)")   # a word that reduces to the identity
@example(expr="regen(bs:2,3; y=a a-)")
@example(expr="regen(bs:2,3; y=EPS; v=a)")   # a trivial generator first
def test_regen_words_verify_against_their_oracle(expr):
    report = verify(structure_from_expr(expr), 2, oracle_from_expr(expr))
    assert report.ok, [f.detail for f in report.failures[:3]]


def _same_machine(lazy, eager):
    got = lazy.materialized
    assert (got.name, got.alphabet, got.counters, got.states, got.start) == \
        (eager.name, eager.alphabet, eager.counters, eager.states, eager.start)
    assert sorted(got.accepts) == sorted(eager.accepts)
    assert got.transitions == eager.transitions


def _eager(monkeypatch, machines):
    """compose folded over machines with its acyclicity proof switched off,
    so that every composition is walked in full now, as explore makes it."""
    with monkeypatch.context() as patch:
        patch.setattr(langops, "_acyclic", lambda m: (False, False, False))
        return reduce(lambda m, n: langops.compose(m, n, "c"), machines)


@pytest.mark.parametrize("base", sorted(REGEN_BASES))
def test_lazy_compositions_materialize_to_the_eager_ones(base, monkeypatch):
    # every two-letter word over the regen bases, and two three-letter ones;
    # a proof of acyclicity must never meet an epsilon cycle, and the row
    # swap of a lazy machine materializes to the swap of the eager one
    structure = structure_from_expr(base)
    gens = REGEN_BASES[base]
    words = [(x, y) for x in gens for y in gens]
    if base in ("finf:2", "free(z,z)"):
        words.append(tuple(gens[i] for i in (0, 2, 0)))
    lazy_words = 0
    for word in words:
        machines = [structure.multiplier(x) for x in word]
        try:
            eager = _eager(monkeypatch, machines)
        except langops.LangOpError:
            eager = None
        try:
            lazy = reduce(lambda m, n: langops.compose(m, n, "c"), machines)
        except langops.LangOpError:
            assert eager is None, word
            continue
        if not isinstance(lazy, langops.LazyAutomaton):
            continue
        assert eager is not None, word
        lazy_words += 1
        _same_machine(lazy, eager)
        _same_machine(swap_rows(lazy, "c-"), swap_rows(eager, "c-"))
    assert lazy_words >= len(words) - 1  # t- t alone has an epsilon cycle


def test_a_composition_without_a_proof_is_built_at_once(bs23, monkeypatch):
    # t- then a is proved acyclic by a's bottom-padded letters, but neither
    # that composition's top-padded graph nor t's bottom-padded one is
    # acyclic: t- a t is walked in full before anything is returned
    head = langops.compose(bs23.multiplier("t-"), bs23.multiplier("a"))
    assert isinstance(head, langops.LazyAutomaton)
    assert head.acyclic == (True, False, True)

    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(langops, "explore", walk)
    with pytest.raises(Walked):
        langops.compose(head, bs23.multiplier("t"))


def test_a_fresh_regen_fills_only_what_its_searches_reach():
    expr = "regen(bs:2,3; a=a; t=t; u=at)"
    structure = structure_from_expr(expr)
    structure.normal_form(toks("a u t- a-"))
    u = structure.multiplier("u")
    assert isinstance(u, langops.LazyAutomaton)
    assert 0 < len(u.moves) < 1000  # of 5,406 states once materialized
    # verify walks pairs of states without materializing either machine
    assert verify(structure, 2, oracle_from_expr(expr)).ok
    for x in ("u", "u-"):
        assert "materialized" not in vars(structure.multiplier(x)), x
    assert len(u.states) == 5406


# -- oracles for combinators ---------------------------------------------------------------

def test_product_oracle_componentwise():
    oracle = ProductOracle(FreeGroupOracle(GeneratorSet([("a", "a-")])),
                           FreeGroupOracle(GeneratorSet([("a", "a-")])))
    assert oracle.canonicalize(toks("1.a 2.a 1.a-")) == ("2.a",)


def test_regen_oracle_substitutes():
    oracle = RegenOracle(BSOracle(2, 3), {"u": ("a", "t")})
    assert oracle.canonicalize(("u",)) == BSOracle(2, 3).canonicalize(("a", "t"))
    assert oracle.is_trivial(("u", "u-"))


def test_product_identity_is_convolution_of_identities_nonempty():
    prod = structure_from_expr("product(bs:2,3,z)")
    # bs identity word is nonempty, z identity is empty
    tagged_mu = tuple(f"1.{tok}" for tok in ("#", "#", "#", "#"))
    assert prod.mu == convolve(tagged_mu, ())
    assert prod.word_problem(toks("1.a 2.a 2.a- 1.a-"))


def test_free_product_counter_count_bs_z():
    fb = structure_from_expr("free(bs:2,3,z)")
    bs = bs_structure(2, 3)
    z = z_structure()
    assert fb.nf_automaton.counters == max(bs.nf_automaton.counters,
                                           z.nf_automaton.counters)
    # structure-level count: multipliers stay within max over factor machines
    factor_max = max([bs.multiplier(tok).counters
                      for tok in bs.generators.tokens()] +
                     [z.multiplier(tok).counters
                      for tok in z.generators.tokens()])
    for tok in fb.generators.tokens():
        assert fb.multiplier(tok).counters <= factor_max


def test_free_product_rejects_empty_word_with_nonempty_identity():
    # Z with identity normal form a- keeps EPS in L (it spells a); a block
    # language cannot hold EPS, so the free product refuses the factor
    z = z_structure()
    shifted = GraphAutomaticStructure(
        "zshift", z.symbols, z.generators, z.nf_automaton,
        {tok: z.multiplier(tok) for tok in z.generators.tokens()},
        seed_q=("a-",), quasigeodesic_c=1, growth=z.growth)
    assert shifted.mu == ("a-",)
    with pytest.raises(StructureError, match="empty word"):
        free_product(shifted, z)


def test_finf_restricted_quasigeodesic_constant(finf3):
    # restricted family carries the constant the verification sweep checks
    assert finf3.quasigeodesic_c == 6
    assert structure_from_expr("finf").quasigeodesic_c is None


def test_random_deep_words_match_oracle_encoding(bs23, bs47,
                                                 bs23_oracle, bs47_oracle):
    # beyond the exhaustive ball: the computed normal form must literally be
    # the encoding of the oracle's canonical form
    rng = random.Random(42)
    for structure, oracle, (m, n) in ((bs23, bs23_oracle, (2, 3)),
                                      (bs47, bs47_oracle, (4, 7))):
        for _ in range(60):
            word = tuple(rng.choice(("a", "a-", "t", "t-"))
                         for _ in range(rng.randint(0, 10)))
            assert structure.normal_form(word) == \
                bs_encode(oracle.pair(word), m, n)


def test_random_deep_finf_words_match_reduction_encoding(finf):
    rng = random.Random(17)
    gens = ("x1", "x1-", "x2", "x2-", "x3", "x3-", "x5", "x5-")

    def encode(reduced):
        out = []
        for g in reduced:
            out.append("n" if g.endswith("-") else "p")
            out.extend("1" * int(g.rstrip("-")[1:]))
        return tuple(out)

    for _ in range(60):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
        reduced = free_reduce(word, finf.generators.inverse_of)
        assert finf.normal_form(word) == encode(reduced)


# -- malformed expressions only ever give ExprError -----------------------------

EXPRESSIONS = [
    "z", "finf", "finf:3", "bs:2,3", "product(z,z)", "free(bs:2,3,z)",
    "regen(bs:2,3; a=a; t=t; u=at)", "regen(z; b=EPS; c=a a-)",
    "product(finf:2,regen(z; y=a a))",
]
EXPR_PIECES = st.sampled_from(list("(),;:=-_ 0123") + [
    "a", "t", "x1", "z", "EPS", "bs:", "finf", "product(", "free(",
    "regen(", "y="]) | st.characters()


@st.composite
def mutated_expressions(draw):
    """A valid expression with a few pieces inserted, deleted or replaced."""
    text = draw(st.sampled_from(EXPRESSIONS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.just("") | EXPR_PIECES) + text[j:]
    return text


@settings(max_examples=200, deadline=None)
@given(text=mutated_expressions())
@example(text="free(bs:28,3,z)")     # m >= n reached the BS oracle
@example(text="regen(finf; y=x1)")   # an unbounded family has no token list
@example(text="regen(z; y=)")        # an empty generator word
@example(text="product(finf,z)")     # an unbounded family as a product factor
def test_expression_text_fails_only_with_expr_errors(text):
    try:
        oracle_from_expr(text)
    except ExprError:
        pass
