import pytest

from cga.automata import CounterAutomaton
from cga.gastructure import (
    GeneratorSet,
    SearchBoundExceeded,
    StructureError,
    accepted_candidates,
    candidate_trie,
    multiplier_enumerative_naive,
    multiplier_enumerative_search,
    verify,
)
from cga.groups import (
    BSNormalPair,
    BSOracle,
    FreeGroupOracle,
    bs_encode,
    bs_structure,
    structure_from_expr,
)
from cga.langops import convolve
from cga.shortlex import OrderedAlphabet

from conftest import ball_normal_forms, toks


# -- identity normal form -----------------------------------------------------

def test_identity_bs47(bs47):
    assert bs47.mu == toks("# # # #")


def test_identity_finf_is_empty(finf3):
    assert finf3.mu == ()


def test_identity_from_shifted_seed():
    q = bs_encode(BSNormalPair((), 1), 2, 3)
    shifted = bs_structure(2, 3, seed_p=("a",), seed_q=q)
    assert shifted.mu == toks("# # # #")
    oracle = BSOracle(2, 3)
    assert oracle.is_trivial(())  # sanity on the oracle side
    assert shifted.normal_form(("a",)) == q


def test_seed_must_lie_in_language():
    with pytest.raises(StructureError):
        bs_structure(2, 3, seed_q=("#", "#"))


# -- single multiplication steps ------------------------------------------------

def test_step_bs47_identity_by_a(bs47):
    # N=1 encodes as r=1,p=0,s=1,q=0
    assert bs47.step_normal_form(toks("# # # #"), "a") == toks("# 1 # # 1 #")


def test_step_bs47_a7_then_t(bs47, bs47_oracle):
    u = bs47.mu
    for _ in range(7):
        u = bs47.step_normal_form(u, "a")
    got = bs47.step_normal_form(u, "t")
    expected = bs_encode(bs47_oracle.pair(("a",) * 7 + ("t",)), 4, 7)
    assert got == expected
    # a^7 t = t a^4
    assert got == bs47.normal_form(("t", "a", "a", "a", "a"))


def test_step_finf_cancellation(finf):
    assert finf.step_normal_form(("p", "1", "1"), "x2-") == ()


def test_step_rejects_word_outside_language(bs23):
    with pytest.raises(StructureError):
        bs23.step_normal_form(("#",), "a")


def test_step_reports_exhausted_growth_bound(bs23):
    from cga.gastructure import GraphAutomaticStructure, GrowthPolicy
    tight = GraphAutomaticStructure(
        "tight", bs23.symbols, bs23.generators, bs23.nf_automaton,
        {tok: bs23.multiplier(tok) for tok in bs23.generators.tokens()},
        seed_p=(), seed_q=bs23.mu, growth=GrowthPolicy(1, 0),
        order=bs23.order.letters)
    with pytest.raises(SearchBoundExceeded):
        # the growth cap of |u| leaves no room for the longer target word
        tight.step_normal_form(tight.mu, "a")


# -- normal_form -----------------------------------------------------------------

def test_normal_form_bs47_a7(bs47):
    assert bs47.normal_form(("a",) * 7) == toks("# 1 1 1 # 1 # # 1")


def test_normal_form_empty_word_is_mu(bs23, finf3, zs):
    for structure in (bs23, finf3, zs):
        assert structure.normal_form(()) == structure.mu


def test_normal_form_finf_paper_word(finf):
    got = finf.normal_form(toks("x2 x2 x2 x5-"))
    assert got == tuple("p11p11p11n11111")


def test_word_problem_and_equality(bs23, finf3):
    assert bs23.word_problem(toks("t a a t- a- a- a-"))
    assert not bs23.word_problem(("a",))
    assert finf3.are_equal(toks("x1 x2 x2-"), ("x1",))


def test_inverse_round_trip(bs23):
    for word in [("a",), ("t",), ("a", "t"), ("t-", "a", "a")]:
        inverse = tuple(bs23.generators.inverse_of(t) for t in reversed(word))
        assert bs23.normal_form(word + inverse) == bs23.mu


def test_right_multiplication_coherence(bs23):
    for nf in ball_normal_forms(bs23, 2):
        for x in bs23.generators.tokens():
            there = bs23.step_normal_form(nf, x)
            back = bs23.step_normal_form(
                there, bs23.generators.inverse_of(x))
            assert back == tuple(nf)


# -- enumerative algorithm ---------------------------------------------------------

def test_enumerative_matches_graph_search_on_ball(bs23):
    for u in ball_normal_forms(bs23, 4):
        if len(u) > 8:
            continue
        for x in bs23.generators.tokens():
            assert bs23.step_normal_form(u, x) == \
                bs23.step_normal_form_enumerative(u, x)


def test_enumerative_round_trip_identity(bs23):
    u = bs23.step_normal_form_enumerative(bs23.mu, "t")
    assert bs23.step_normal_form_enumerative(u, "t-") == bs23.mu


def test_enumerative_finf_first_step(finf):
    assert finf.step_normal_form_enumerative((), "x1") == ("p", "1")


def test_enumerative_search_equals_naive_loop(bs23, finf):
    # the pruned search is extensionally the literal successor loop
    cases = [
        (bs23.multiplier("a"), bs23.mu, bs23.order, 8),
        (bs23.multiplier("t"), bs23.normal_form(("a",)), bs23.order, 9),
        (finf.multiplier("x1"), ("p", "1"), finf.order, 5),
        (finf.multiplier("x1-"), ("p", "1"), finf.order, 5),
    ]
    for machine, u, order, cap in cases:
        assert multiplier_enumerative_search(machine, u, order, cap) == \
            multiplier_enumerative_naive(machine, u, order, cap)


# -- the search core on machines with epsilon edges ---------------------------------

REGEN_AA = "regen(bs:2,3; a=a; t=t; u=a a)"


@pytest.fixture(scope="module")
def free_zz():
    return structure_from_expr("free(z,z)")


@pytest.fixture(scope="module")
def regen_aa():
    return structure_from_expr(REGEN_AA)


def _outcome(search, machine, u, order, cap):
    try:
        return search(machine, u, order, cap)
    except SearchBoundExceeded:
        return None


def _assert_searches_agree(structure, steps, naive_cap):
    """Graph search, pruned enumeration and the literal successor loop agree
    on each (u, x); the loop runs up to naive_cap, and the two enumerations
    must then also agree when the answer lies beyond it."""
    for u, x in steps:
        machine = structure.multiplier(x)
        order = structure.order
        v = structure.step_normal_form(u, x)
        assert multiplier_enumerative_search(
            machine, u, order, structure.step_cap(len(u), x)) == v
        cap = min(len(v), naive_cap)
        got = _outcome(multiplier_enumerative_search, machine, u, order, cap)
        assert got == _outcome(multiplier_enumerative_naive, machine, u, order, cap)
        assert got == (v if len(v) <= cap else None)


def test_searches_agree_on_free_product(free_zz):
    gens = free_zz.generators.tokens()
    assert any(free_zz.multiplier(x).eps_by_state for x in gens)
    words = [(), ("1.a",), ("2.a", "1.a-"), ("1.a", "2.a", "2.a")]
    steps = [(free_zz.normal_form(w), x) for w in words for x in gens]
    _assert_searches_agree(free_zz, steps, naive_cap=5)


def test_searches_agree_on_regen_multiplier(regen_aa):
    machine = regen_aa.multiplier("u")
    assert machine.counters == 6
    assert sum(t.label is None for t in machine.transitions) == 474
    one, two = regen_aa.normal_form(("u",)), regen_aa.normal_form(("u", "u"))
    steps = [(regen_aa.mu, "u"), (regen_aa.mu, "u-"), (one, "u-"), (one, "t-"),
             (two, "u"), (two, "u-"), (regen_aa.normal_form(("t",)), "u")]
    _assert_searches_agree(regen_aa, steps, naive_cap=4)


@pytest.mark.parametrize("fixture,tokens", [("free_zz", None), ("regen_aa", ("u",))])
def test_accepted_candidates_on_epsilon_machines(fixture, tokens, request):
    structure = request.getfixturevalue(fixture)
    ball = ball_normal_forms(structure, 2)
    trie = candidate_trie(ball)
    for x in tokens or structure.generators.tokens():
        machine = structure.multiplier(x)
        for u in ball:
            marked = set(map(tuple, accepted_candidates(machine, u, trie)))
            for v in ball:
                assert (v in marked) == machine.accepts_word(convolve(u, v))


# -- traces and internal bounds ------------------------------------------------------

def test_trace_statistics_and_bounds(bs23):
    word = toks("a t a- t-")
    nf, trace = bs23.normal_form(word, with_trace=True)
    assert trace.word == word
    assert trace.chosen[0] == bs23.mu
    assert len(trace.chosen) == len(word) + 1
    assert len(trace.steps) == len(word)
    for step in trace.steps:
        D, F, k = step.machine_states, step.machine_growth, step.machine_counters
        for j, s_size, t_size, max_c in step.per_level:
            assert s_size <= 2 * D * (2 * F * j + 1) ** k
            assert max_c <= F * max(j, 1)


def test_normal_form_without_trace_skips_machine_constants(bs23, monkeypatch):
    def fail(self):
        raise AssertionError("machine constants computed without a trace")

    monkeypatch.setattr(CounterAutomaton, "degree_bound", fail)
    word = toks("a t a- t-")
    assert bs23.normal_form(word) == toks("at at- # -1 # -1 # # -1")
    with pytest.raises(AssertionError):
        bs23.normal_form(word, with_trace=True)


def test_backtracking_is_unique_and_deterministic(bs47):
    u = bs47.normal_form(toks("t a"))
    first = bs47.step_normal_form(u, "a")
    second = bs47.step_normal_form(u, "a")
    assert first == second


# -- verify ---------------------------------------------------------------------------

def test_verify_bs23_radius3_clean(bs23, bs23_oracle):
    report = verify(bs23, 3, bs23_oracle)
    assert report.ok
    assert report.words_checked == 1 + 4 + 16 + 64
    assert report.elements > 0


def broken_bs23(bs23):
    """bs:2,3 with M_a the diagonal (as if 'a' were trivial): normal forms
    collide and the multiplier accepts pairs the oracle refutes."""
    from cga.gastructure import GraphAutomaticStructure
    from cga.groups import _diagonal_language
    diag = _diagonal_language(bs23.nf_automaton, bs23.symbols)
    return GraphAutomaticStructure(
        "broken", bs23.symbols, bs23.generators, bs23.nf_automaton,
        {"a": diag, "a-": bs23.multiplier("a-"),
         "t": bs23.multiplier("t"), "t-": bs23.multiplier("t-")},
        seed_p=(), seed_q=bs23.mu, growth=bs23.growth,
        order=bs23.order.letters)


def first_witnesses(report):
    first = {}
    for f in report.failures:
        first.setdefault(f.kind, f.witness)
    return first


def test_verify_finds_planted_multiplier_fault(bs23, bs23_oracle):
    report = verify(broken_bs23(bs23), 1, bs23_oracle)
    assert not report.ok
    kinds = {f.kind for f in report.failures}
    assert "bijection-collision" in kinds
    assert "multiplier-sound" in kinds


def test_verify_broken_structure_first_witnesses(bs23, bs23_oracle):
    report = verify(broken_bs23(bs23), 2, bs23_oracle)
    assert (report.words_checked, report.elements) == (21, 17)
    assert first_witnesses(report) == {
        "bijection-collision": ("a",), "bijection-split": ("a", "a-"),
        "multiplier-sound": ("a",), "multiplier-complete": ("a",)}


def test_verify_geodesic_length_past_a_failed_step(bs23_oracle, monkeypatch):
    # every word through (mu, 1.a) fails, so the walk first reaches the class
    # of 2.a 1.a 2.a- at depth 3, but its geodesic length is 1 (the word 1.a,
    # which has no normal form); the quasigeodesic bound must use 1, not 3
    from cga.groups import ProductOracle, direct_product, oracle_from_expr, z_structure
    product = direct_product(bs_structure(2, 3, quasigeodesic_c=2), z_structure())
    step = product.step_normal_form

    def planted(u, x, trace_sink=None):
        if tuple(u) == product.mu and x == "1.a":
            raise SearchBoundExceeded("planted", 0, 0)
        return step(u, x, trace_sink)

    monkeypatch.setattr(product, "step_normal_form", planted)
    report = verify(product, 3, ProductOracle(bs23_oracle, oracle_from_expr("z")))
    assert (report.words_checked, report.elements) == (217, 87)
    assert first_witnesses(report)["termination"] == ("1.a",)
    quasi = {f.witness: f.detail for f in report.failures
             if f.kind == "quasigeodesic"}
    assert quasi[toks("2.a 1.a 2.a-")].endswith("= 6 > 2*(1+1)")


def test_verify_steps_each_state_once(monkeypatch):
    from cga.gastructure import GraphAutomaticStructure
    from cga.groups import oracle_from_expr
    calls = []
    step = GraphAutomaticStructure.step_normal_form

    def counted(self, u, x, trace_sink=None):
        calls.append((u, x))
        return step(self, u, x, trace_sink)

    monkeypatch.setattr(GraphAutomaticStructure, "step_normal_form", counted)
    zxz = structure_from_expr("product(z,z)")
    calls.clear()
    report = verify(zxz, 6, oracle_from_expr("product(z,z)"))
    assert report.ok
    assert (report.words_checked, report.elements) == (5461, 85)
    assert len(calls) < 500  # a step per word would make 5460


def test_verify_quasigeodesic_failure_with_forced_constant(bs23_oracle):
    forced = bs_structure(2, 3, quasigeodesic_c=1)
    report = verify(forced, 1, bs23_oracle)
    quasi = [f for f in report.failures if f.kind == "quasigeodesic"]
    assert quasi, "a failing witness should appear within radius 1"


def test_accepted_candidates_agrees_with_direct_accepts(bs23):
    machine = bs23.multiplier("t")
    candidates = ball_normal_forms(bs23, 2)
    trie = candidate_trie(candidates)
    for u in candidates[:6]:
        marked = set(map(tuple, accepted_candidates(machine, u, trie)))
        for v in candidates:
            assert (tuple(v) in marked) == machine.accepts_word(convolve(u, v))


# -- generator sets ---------------------------------------------------------------------

def test_generator_set_family_parsing(finf3, finf):
    gens = finf3.generators
    assert "x2" in gens and "x2-" in gens
    assert gens.inverse_of("x2") == "x2-"
    assert "x4" not in gens  # beyond max_index 3
    with pytest.raises(StructureError):
        gens.inverse_of("x4")
    assert gens.tokens() == ["x1", "x1-", "x2", "x2-", "x3", "x3-"]
    # the unbounded family knows arbitrary indices but cannot be enumerated
    assert finf.generators.inverse_of("x17-") == "x17"
    with pytest.raises(StructureError):
        finf.generators.tokens()


def test_generator_set_involution_rules():
    from cga.gastructure import GeneratorInfo
    # unmarked fixed point is an error
    with pytest.raises(StructureError):
        GeneratorSet([GeneratorInfo("a", "a", self_inverse=False)])
    # explicitly marked self-inverse is fine (from_pairs marks it)
    gens = GeneratorSet.from_pairs([("a", "a")])
    assert gens.inverse_of("a") == "a"


# -- polynomial-time sanity curve ---------------------------------------------------

def test_normal_form_runtime_sanity_curve(zs):
    # quasigeodesic structure: per-word runtime on a doubling-length family
    # should grow no faster than a fixed polynomial (generous exponent; this
    # is a sanity curve, not an asymptotic proof)
    import time

    def measure(length):
        word = ("a",) * length
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            zs.normal_form(word)
            best = min(best, time.perf_counter() - start)
        return max(best, 1e-4)  # noise floor

    t16, t32, t64 = measure(16), measure(32), measure(64)
    assert t32 <= 64 * t16 + 0.05
    assert t64 <= 64 * t32 + 0.05


def test_concurrent_normal_forms_and_lazy_caches():
    # normal_form calls on one structure may proceed concurrently; the lazy
    # multiplier cache must behave as a write-once memo table
    from concurrent.futures import ThreadPoolExecutor
    from cga.groups import finf_structure
    fresh = finf_structure(max_index=3)
    words = [("x1",), ("x2", "x2"), ("x3", "x1-"), ("x1", "x1-"),
             ("x2", "x3", "x3-")] * 6
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(fresh.normal_form, words))
    assert parallel == [fresh.normal_form(w) for w in words]
    assert fresh.instantiated_family_indices() == [1, 2, 3]
