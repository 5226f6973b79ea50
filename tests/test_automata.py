import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from cga.automata import (
    EMPTY_PROGRAM,
    EPSILON,
    NO_OP,
    SETZ,
    TEST0,
    TESTN0,
    AutomatonError,
    CounterAutomaton,
    TokenError,
    accepts,
    apply_program,
    counter_growth_bound,
    dec,
    inc,
    program_reads_counters,
    program_step,
    validate,
)
from cga.groups import (
    bs_l1_machine,
    bs_nf_machine,
    free_product,
    structure_from_expr,
    z_structure,
)

from conftest import brute_force_accepts, toks


def plus(delta):
    return ((inc(delta),),)


def minus(delta):
    return ((dec(delta),),)


@pytest.fixture(scope="module")
def anbn():
    # 1-counter machine for a^n b^n
    return CounterAutomaton(
        "anbn", ("a", "b"), 1, ["qa", "qb"], "qa", ["qa", "qb"],
        [("qa", "a", plus(1), "qa"),
         ("qa", "b", minus(1), "qb"),
         ("qb", "b", minus(1), "qb")])


# -- validate ----------------------------------------------------------------

def test_validate_bs_l1_is_realtime_blind_deterministic():
    report = validate(bs_l1_machine(4, 7))
    assert report.ok
    assert report.epsilon_bound == 0
    assert report.blind


def test_validate_empty_machine():
    machine = CounterAutomaton("empty", (), 0, ["q"], "q", ["q"], [])
    report = validate(machine)
    assert report.ok
    assert report.epsilon_bound == 0
    assert report.blind
    assert accepts(machine, ())


def test_validate_free_product_machine_has_epsilon_edges():
    z = z_structure()
    machine = free_product(z, z).nf_automaton
    report = validate(machine)
    assert report.ok
    assert report.epsilon_bound >= 1


def test_validate_epsilon_cycle_is_an_error():
    machine = CounterAutomaton(
        "cyc", ("a",), 0, ["p", "q"], "p", ["q"],
        [("p", EPSILON, EMPTY_PROGRAM, "q"), ("q", EPSILON, EMPTY_PROGRAM, "p")])
    report = validate(machine)
    assert not report.ok
    assert report.epsilon_bound is None
    assert any("cycle" in e for e in report.errors)


def test_validate_dangling_state_and_blind_contradiction():
    from cga.automata import SETZ
    machine = CounterAutomaton(
        "bad", ("a",), 1, ["p"], "p", ["p"],
        [("p", "a", ((SETZ,),), "ghost")], blind=True)
    report = validate(machine)
    assert any("dangling" in e for e in report.errors)
    assert any("blind" in e for e in report.errors)


# -- accepts ------------------------------------------------------------------

def test_accepts_bs47_paper_strings():
    machine = bs_nf_machine(4, 7)
    assert accepts(machine, toks("at # 1 1 1 # 1 # # 1"))
    assert not accepts(machine, toks("at # 1 1 1 1 1 # 1 # # 1"))
    assert not accepts(machine, toks("at # 1 1 # 1 1 # 1 # 1"))


def test_accepts_rejects_unknown_token(anbn):
    with pytest.raises(TokenError):
        accepts(anbn, ("a", "c"))


def test_accepts_anbn(anbn):
    assert accepts(anbn, ())
    assert accepts(anbn, ("a", "b"))
    assert accepts(anbn, ("a", "a", "b", "b"))
    assert not accepts(anbn, ("a",))
    assert not accepts(anbn, ("a", "b", "b"))
    assert not accepts(anbn, ("b", "a"))


def test_accepts_requires_zero_counters():
    machine = CounterAutomaton(
        "drift", ("a",), 1, ["q"], "q", ["q"], [("q", "a", plus(1), "q")])
    assert accepts(machine, ())
    assert not accepts(machine, ("a",))


# -- reachable configurations --------------------------------------------------

def test_reachable_empty_machine():
    machine = CounterAutomaton("empty", (), 0, ["q"], "q", ["q"], [])
    assert machine.run(()) == {("q", ())}


def test_reachable_bs23_counter_two():
    machine = bs_l1_machine(2, 3)
    assert machine.run(("#", "1", "1")) == {("r+", (2,))}


def test_reachable_dead_after_failed_guard():
    from cga.automata import TEST0, TESTN0
    machine = CounterAutomaton(
        "dead", ("a", "b"), 1, ["p", "q"], "p", ["q"],
        [("p", "a", plus(1), "p"), ("p", "b", ((TEST0,),), "q")])
    assert machine.run(("a", "b")) == set()


# -- growth bound ---------------------------------------------------------------

def test_growth_bound_formula():
    machine = CounterAutomaton(
        "unit", ("a",), 1, ["q"], "q", ["q"], [("q", "a", plus(1), "q")])
    assert counter_growth_bound(machine, 10) == 30  # 3 * max(K,1)=1 * m=1 * 10


def test_growth_bound_no_instructions():
    machine = CounterAutomaton(
        "still", ("a",), 2, ["q"], "q", ["q"],
        [("q", "a", EMPTY_PROGRAM, "q")])
    assert counter_growth_bound(machine, 50) == 0
    for length in range(5):
        for _, counters in machine.run(("a",) * length):
            assert counters == (0, 0)


def test_growth_bound_dominates_observed_values():
    # exhaustive configuration search over all inputs of length <= 20,
    # collapsed by (state, counters) per level
    machine = bs_l1_machine(2, 3)
    bound_per_letter = counter_growth_bound(machine, 1)
    level = machine.eps_closure({(machine.start, machine.zero_vector())})
    for depth in range(1, 21):
        nxt = set()
        for tok in machine.alphabet:
            nxt |= machine.eps_closure(machine.step(level, tok))
        level = nxt
        observed = max((abs(c) for _, cs in level for c in cs), default=0)
        assert observed <= bound_per_letter * depth


# -- semantic blindness and determinism-as-function ------------------------------

def test_blind_machine_semantics_ignore_guard_evaluation(monkeypatch):
    # blindness is semantic: a blind machine's programs compile to net
    # shifts, so with apply_program gone its verdicts stay the same
    import cga.automata as A
    words = [toks("# 1 # # 1 #"), toks("t # # # #"), toks("# 1 1 #"),
             toks("at # 1 # 1 # # 1"), ()]
    before = [accepts(bs_l1_machine(2, 3), w) for w in words]

    def interpreter_gone(prog, counters):
        raise AssertionError("a blind program reached apply_program")

    monkeypatch.setattr(A, "apply_program", interpreter_gone)
    fresh = bs_l1_machine(2, 3)
    assert validate(fresh).blind
    assert [accepts(fresh, w) for w in words] == before


# -- compiled programs agree with the interpreter -------------------------------

INSTRUCTIONS = (NO_OP, TEST0, TESTN0, SETZ, inc(1), inc(2), dec(1), dec(3))


def run_step(step, counters):
    """A program_step result applied to a counter vector."""
    return counters if step is None else step(counters)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_program_step_agrees_with_apply_program(data):
    k = data.draw(st.integers(0, 3))
    prog = tuple(data.draw(st.lists(
        st.tuples(*[st.sampled_from(INSTRUCTIONS)] * k), max_size=4)))
    step = program_step(prog)
    assert isinstance(step, partial) == program_reads_counters(prog)
    for counters in itertools.product(range(-3, 4), repeat=k):
        assert run_step(step, counters) == apply_program(prog, counters)


@pytest.mark.parametrize("expr", [
    "bs:2,3", "bs:4,7", "finf:3", "regen(bs:2,3; a=a; t=t; u=a a)"])
def test_multiplier_programs_compile_to_their_semantics(expr):
    structure = structure_from_expr(expr)
    rng = random.Random(expr)
    for x in structure.generators.tokens():
        machine = structure.multiplier(x)
        k = machine.counters
        vectors = [machine.zero_vector()] + [
            tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(20)]
        programs = {id(t.program): t.program for t in machine.transitions}
        for prog in programs.values():
            step = machine.compile(prog)
            assert step is machine.compile(prog)
            for counters in vectors:
                assert run_step(step, counters) == apply_program(prog, counters)


def test_accepts_is_deterministic_function(bs23):
    machine = bs23.multiplier("t")
    word = tuple(__import__("cga.langops", fromlist=["convolve"]).convolve(
        bs23.mu, bs23.step_normal_form(bs23.mu, "t")))
    assert machine.accepts_word(word)
    assert machine.accepts_word(word)


# -- zero-counter machines agree with plain NFA semantics -----------------------

@st.composite
def small_machines(draw, max_counters=1):
    n_states = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n_states)]
    counters = draw(st.integers(0, max_counters))
    alphabet = ("a", "b")
    programs = [EMPTY_PROGRAM]
    if counters:
        from cga.automata import SETZ, TEST0, TESTN0
        programs += [plus(1), minus(1), ((TEST0,),), ((TESTN0,),), ((SETZ,),)]
    n_trans = draw(st.integers(0, 8))
    transitions = []
    for _ in range(n_trans):
        src = draw(st.integers(0, n_states - 1))
        kind = draw(st.integers(0, 3))
        if kind == 0 and src < n_states - 1:
            # epsilon edges only go up in state order: structurally acyclic
            dst = draw(st.integers(src + 1, n_states - 1))
            label = EPSILON
        else:
            dst = draw(st.integers(0, n_states - 1))
            label = draw(st.sampled_from(alphabet))
        transitions.append(
            (states[src], label, draw(st.sampled_from(programs)), states[dst]))
    accepts_set = draw(st.sets(st.sampled_from(states)))
    return CounterAutomaton("rand", alphabet, counters, states, states[0],
                            accepts_set, transitions)


@settings(max_examples=60, deadline=None)
@given(machine=small_machines(), data=st.data())
def test_engine_matches_brute_force(machine, data):
    word = tuple(data.draw(st.lists(st.sampled_from(("a", "b")), max_size=6)))
    assert accepts(machine, word) == brute_force_accepts(machine, word)


def test_zero_counter_agrees_with_subset_construction():
    # textbook subset construction, implemented independently
    machine = CounterAutomaton(
        "nfa", ("a", "b"), 0, ["0", "1", "2"], "0", ["2"],
        [("0", "a", EMPTY_PROGRAM, "0"), ("0", "a", EMPTY_PROGRAM, "1"),
         ("0", "b", EMPTY_PROGRAM, "0"), ("1", "b", EMPTY_PROGRAM, "2"),
         ("0", EPSILON, EMPTY_PROGRAM, "1")])

    eps = {"0": {"0", "1"}, "1": {"1"}, "2": {"2"}}

    def subset_accepts(word):
        cur = set(eps["0"])
        for tok in word:
            nxt = set()
            for q in cur:
                for t in machine.transitions:
                    if t.src == q and t.label == tok:
                        nxt |= eps[t.dst]
            cur = nxt
        return any(q in machine.accepts for q in cur)

    from conftest import all_words
    for word in all_words(("a", "b"), 5):
        assert accepts(machine, word) == subset_accepts(word)


def test_concurrent_membership_queries():
    # operations are pure: concurrent callers must agree with serial results
    from concurrent.futures import ThreadPoolExecutor
    machine = bs_nf_machine(2, 3)
    words = [toks("# # # #"), toks("t # # # #"), toks("# 1 #"),
             toks("# 1 # # 1 #"), toks("at # # # #")] * 8
    serial = [accepts(machine, w) for w in words]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda w: accepts(machine, w), words))
    assert parallel == serial
