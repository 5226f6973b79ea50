import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cga.automata import (
    EPSILON,
    NO_OP,
    SETZ,
    TEST0,
    TESTN0,
    CounterAutomaton,
    apply_program,
    dec,
    inc,
)
from cga.gastructure import (
    STEP_BUDGET,
    FamilySpec,
    GeneratorSet,
    SearchBoundExceeded,
    StructureError,
    _dead,
    _search,
    _transposed,
    accepted_candidates,
    candidate_trie,
    multiplier_enumerative_search,
    multiplier_graph_search,
    stuck_counters,
    verify,
)
from cga.groups import (
    BSNormalPair,
    BSOracle,
    FreeGroupOracle,
    bs_decode,
    bs_encode,
    bs_structure,
    structure_from_expr,
)
from cga.langops import convolve, parse_tuple_token
from cga.shortlex import OrderedAlphabet, iter_shortlex

from conftest import ball_normal_forms, toks, z_leaving_l


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


@pytest.mark.parametrize("lazy", [False, True])
def test_two_accepted_words_break_uniqueness(lazy):
    # a planted multiplier accepts (EPS, a) and (EPS, b) in two accepting
    # states: both are found at level 1, and backtracking must report two
    # words, not pick one; the lazy case composes it after the diagonal of
    # L and prunes with that composition's weaker dead table
    from cga.gastructure import GraphAutomaticStructure
    from cga.langops import LazyAutomaton, compose, pair_letters

    letters = pair_letters(("a", "b"))
    nf = CounterAutomaton("ab", ("a", "b"), 0, ["q"], "q", ["q"],
                          [("q", "a", (), "q"), ("q", "b", (), "q")])
    planted = CounterAutomaton(
        "two", letters, 0, ["p", "va", "vb"], "p", ["va", "vb"],
        [("p", "(_|a)", (), "va"), ("p", "(_|b)", (), "vb")])
    if lazy:
        diagonal = CounterAutomaton(
            "diag", letters, 0, ["d"], "d", ["d"],
            [("d", "(a|a)", (), "d"), ("d", "(b|b)", (), "d")])
        planted = compose(diagonal, planted)
        assert isinstance(planted, LazyAutomaton)
    structure = GraphAutomaticStructure(
        "planted", ("a", "b"), GeneratorSet([("x", "x-")]), nf,
        {"x": planted})
    with pytest.raises(StructureError, match="backtracking produced 2 distinct "
                       "words; normal form uniqueness violated"):
        structure.normal_form(("x",))


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


def multiplier_enumerative_naive(machine, u, order, length_cap):
    """Literal successor-by-successor enumeration: the reference the pruned
    enumerative search is checked against."""
    for v in iter_shortlex(order, length_cap):
        if machine.accepts_word(convolve(u, v)):
            return v
    raise SearchBoundExceeded(machine.name, length_cap, length_cap)


# -- the search core on machines with epsilon edges ---------------------------------

REGEN_AA = "regen(bs:2,3; a=a; t=t; u=a a)"


@pytest.fixture(scope="module")
def free_zz():
    return structure_from_expr("free(z,z)")


@pytest.fixture(scope="module")
def product_zz():
    return structure_from_expr("product(z,z)")


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
    assert any(free_zz.multiplier(x).eps_steps for x in gens)
    words = [(), ("1.a",), ("2.a", "1.a-"), ("1.a", "2.a", "2.a")]
    steps = [(free_zz.normal_form(w), x) for w in words for x in gens]
    _assert_searches_agree(free_zz, steps, naive_cap=5)


def test_searches_agree_on_regen_multiplier(regen_aa):
    machine = regen_aa.multiplier("u")
    assert machine.counters == 6
    assert sum(t.label is None for t in machine.transitions) == 652
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
        accepted = accepted_candidates(machine, trie)
        assert set(accepted) == set(ball)
        for u in ball:
            for v in ball:
                assert (v in accepted[u]) == machine.accepts_word(convolve(u, v))


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


# -- dead-configuration pruning -------------------------------------------------------

def test_stuck_counter_table_on_hand_built_machine():
    machine = CounterAutomaton(
        "stuck", ("x", "y"), 2, ["s0", "s1", "s2", "s3", "trap"], "s0", ["s3"],
        [("s0", "x", ((inc(), NO_OP),), "s1"),
         ("s0", "y", ((NO_OP, SETZ),), "s2"),
         ("s1", EPSILON, ((NO_OP, TEST0),), "s2"),   # tests change nothing
         ("s2", "y", ((dec(), NO_OP),), "s2"),       # a decrement-only tail
         ("s2", "y", (), "s3"),
         ("s1", "x", ((NO_OP, inc()),), "trap"),
         ("trap", "x", (), "trap")])
    table = stuck_counters(machine)
    # (counters the state cannot lower, counters it cannot raise)
    assert table == {"s0": ((), ()), "s1": ((1,), (0, 1)), "s2": ((1,), (0, 1)),
                     "s3": ((0, 1), (0, 1))}
    assert table["s1"] is table["s2"]  # one entry per distinct pair of masks
    assert _search(machine).dead == table
    assert _search(machine).dead is _search(machine).dead  # built once
    assert not _dead(table, "s2", (3, 0))
    assert _dead(table, "s2", (-1, 0))   # counter 0 can only fall from s2
    assert _dead(table, "s1", (0, 2))
    assert _dead(table, "trap", (0, 0))  # cannot reach acceptance
    assert not _dead(table, "s0", (5, -3))


def eager_tables(machine):
    """(pair index, letter steps, epsilon steps) in one pass over the
    transitions, as the pair index was once built for every materialized
    machine: the reference for the tables read off ``moves``."""
    compile = machine.compile
    index, letters, eps = {}, {}, {}
    for src, letter, prog, dst in machine.transitions:
        arrow = (compile(prog), dst)
        if letter is EPSILON:
            eps.setdefault(src, []).append(arrow)
            continue
        top, bottom = parse_tuple_token(letter)
        index.setdefault((src, top), {}).setdefault(bottom, []).append(arrow)
        letters.setdefault((src, letter), []).append(arrow)
    return index, letters, eps


def filled(table, keys):
    """table's non-empty values on keys, each looked up (so filled) once."""
    return {key: table[key] for key in keys if table[key]}


@pytest.mark.parametrize("expr", ["bs:2,3", "finf:3", "free(z,z)",
                                  "product(z,z)", "regen(bs:2,3; a=a; t=t; u=at)"])
def test_arrow_tables_are_read_off_moves(expr):
    structure = structure_from_expr(expr)
    tops = [*structure.symbols, None]
    tokens = ["u"] if expr.startswith("regen") else structure.generators.tokens()
    for x in tokens:
        machine = structure.multiplier(x).materialized
        index, letters, eps = eager_tables(machine)
        search = _search(machine)
        assert filled(search.pair_index,
                      itertools.product(machine.states, tops)) == index, x
        assert filled(machine.letter_steps,
                      itertools.product(machine.states, machine.alphabet)) == letters, x
        assert machine.eps_steps == eps, x


def test_a_search_fills_only_the_pair_index_entries_it_visits():
    # fewer entries than the (state, top) pairs that have arrows, which an
    # index built in one pass over the transitions holds
    structure = bs_structure(2, 3)
    structure.normal_form(toks("a t- a- t"))
    for x in ("a", "t", "a-", "t-"):
        machine = structure.multiplier(x)
        entries = len(_search(machine).pair_index)
        assert 0 < entries < len(eager_tables(machine)[0]), x


@st.composite
def counter_machines(draw):
    """Small machines over one or two counters; epsilon edges go up in state
    order, so they are structurally acyclic."""
    n_states = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2))
    states = [f"q{i}" for i in range(n_states)]
    instruction = st.sampled_from(
        [NO_OP, inc(1), inc(2), dec(1), dec(2), TEST0, TESTN0, SETZ])
    programs = st.lists(st.tuples(*[instruction] * k), max_size=2).map(tuple)
    transitions = []
    for _ in range(draw(st.integers(0, 10))):
        src = draw(st.integers(0, n_states - 1))
        if draw(st.booleans()) and src < n_states - 1:
            label, dst = EPSILON, draw(st.integers(src + 1, n_states - 1))
        else:
            label = draw(st.sampled_from(("x", "y")))
            dst = draw(st.integers(0, n_states - 1))
        transitions.append((states[src], label, draw(programs), states[dst]))
    accepting = draw(st.sets(st.sampled_from(states)))
    return CounterAutomaton("rand", ("x", "y"), k, states, states[0],
                            accepting, transitions)


def accepted_within(machine, config, letters):
    """Whether some word of at most ``letters`` letters is accepted from
    config, by exhaustive exploration of the transition list."""
    frontier = {config}
    for depth in range(letters + 1):
        closed, stack = set(frontier), list(frontier)
        while stack:
            state, counters = stack.pop()
            for t in machine.transitions:
                if t.src == state and t.label is EPSILON:
                    after = apply_program(t.program, counters)
                    if after is not None and (t.dst, after) not in closed:
                        closed.add((t.dst, after))
                        stack.append((t.dst, after))
        if any(q in machine.accepts and not any(c) for q, c in closed):
            return True
        frontier = set()
        for state, counters in closed:
            for t in machine.transitions:
                if t.src == state and t.label is not EPSILON:
                    after = apply_program(t.program, counters)
                    if after is not None:
                        frontier.add((t.dst, after))
    return False


@settings(max_examples=150, deadline=None)
@given(machine=counter_machines())
def test_dead_configurations_are_never_accepted(machine):
    table = stuck_counters(machine)
    values = range(-2, 3)
    for state in machine.states:
        for counters in itertools.product(values, repeat=machine.counters):
            if _dead(table, state, counters):
                assert not accepted_within(machine, (state, counters), 4)


def all_live(machine):
    """A stuck_counters table that calls no configuration dead."""
    return {q: ((), ()) for q in machine.states}


def built(machine, table):
    """Whether machine's search has built its table of that name."""
    return table in vars(_search(machine))


@pytest.mark.parametrize("expr, max_len", [
    ("bs:2,3", 10), ("bs:4,7", 8), ("regen(bs:2,3; a=a; t=t; u=a a)", 4),
    ("product(bs:2,3,z)", 8), ("free(bs:2,3,z)", 8), ("finf:3", 8)])
def test_pruned_and_unpruned_searches_agree(expr, max_len, monkeypatch):
    import cga.gastructure
    rng = random.Random(expr)
    pruned = structure_from_expr(expr)
    tokens = pruned.generators.tokens()
    words = [tuple(rng.choice(tokens) for _ in range(rng.randint(1, max_len)))
             for _ in range(8)]
    runs = [pruned.normal_form(w, with_trace=True) for w in words]
    assert sum(step.pruned for _, trace in runs for step in trace.steps) > 0
    # a fresh structure whose tables call nothing dead
    monkeypatch.setattr(cga.gastructure, "stuck_counters", all_live)
    unpruned = structure_from_expr(expr)
    runs_unpruned = [unpruned.normal_form(w, with_trace=True) for w in words]
    assert [nf for nf, _ in runs_unpruned] == [nf for nf, _ in runs]
    assert not any(step.pruned for _, trace in runs_unpruned for step in trace.steps)


def test_start_level_is_pruned_once_the_table_exists():
    # the start's epsilon closure holds a dead configuration: the first
    # search builds the table and drops it, and so does every search after
    machine = CounterAutomaton(
        "start", ("(x|x)",), 1, ["s0", "s1", "trap"], "s0", ["s1"],
        [("s0", EPSILON, (), "trap"), ("s0", "(x|x)", (), "s1"),
         ("trap", "(x|x)", (), "trap")])
    for _ in range(2):
        v, rows, pruned = multiplier_graph_search(machine, ("x",), 1)
        assert (v, rows[0], pruned) == (("x",), (0, 1, 0, 0), 1)
        assert built(machine, "dead")


def test_a_fresh_structures_first_step_is_pruned():
    bs23 = bs_structure(2, 3)
    assert not built(bs23.multiplier("a"), "dead")
    _, trace = bs23.normal_form(("a",) * 16, with_trace=True)
    assert trace.steps[0].pruned > 0  # its first search builds the table
    assert trace.steps[-1].pruned > 0


def test_pruning_shrinks_a64():
    bs23 = bs_structure(2, 3)
    bs23.normal_form(("a",) * 16)
    nf, trace = bs23.normal_form(("a",) * 64, with_trace=True)
    assert bs_decode(nf, 2, 3) == BSOracle(2, 3).pair(("a",) * 64)
    assert trace.steps[-1].max_s <= 16  # 1168 unpruned


def test_concurrent_searches_agree_while_tables_are_built():
    import sys
    from concurrent.futures import ThreadPoolExecutor
    words = [toks("a t a- t-"), ("a",) * 12, toks("t t a t- a"),
             toks("a- t a a t-"), ("t-",) * 3 + ("a",) * 5] * 3
    expected = [bs_structure(2, 3).normal_form(w) for w in words]
    shared = bs_structure(2, 3)  # the racing first searches build its tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(shared.normal_form, words, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    _, trace = shared.normal_form(("a",) * 8, with_trace=True)
    assert sum(step.pruned for step in trace.steps) > 0


def test_search_of_dead_configurations_stops_early():
    machine = bs_structure(2, 3).multiplier("a")
    u = toks("# 1 # # #")  # not in L, but its configurations live on unpruned
    with pytest.raises(SearchBoundExceeded) as info:
        multiplier_graph_search(machine, u, 9)
    assert info.value.reached == 5  # unpruned, the search reaches level 9


def swept_stuck_table(machine):
    """stuck_counters' table by sweeping every transition until no state's
    (raise, lower) masks grow, read off each program's instructions."""
    reach = dict.fromkeys(machine.accepts, (0, 0))
    changed = True
    while changed:
        changed = False
        for t in machine.transitions:
            if t.dst not in reach:
                continue
            up, down = reach[t.dst]
            for step in t.program:
                for i, instr in enumerate(step):
                    if instr.kind in ("inc", "set_zero"):
                        up |= 1 << i
                    if instr.kind in ("dec", "set_zero"):
                        down |= 1 << i
            before = reach.get(t.src, (0, 0))
            masks = (up | before[0], down | before[1])
            if reach.get(t.src) != masks:
                reach[t.src] = masks
                changed = True
    k = range(machine.counters)
    return {q: (tuple(i for i in k if not down >> i & 1),
                tuple(i for i in k if not up >> i & 1))
            for q, (up, down) in reach.items()}


@pytest.mark.parametrize("expr", ["bs:2,3", "bs:4,7", "finf:3", REGEN_AA])
def test_stuck_table_equals_the_swept_fixpoint(expr):
    structure = structure_from_expr(expr)
    if expr == REGEN_AA:
        # u's first search builds its table before u- is made: the row
        # swap takes that table, which the loop checks against u-'s sweep
        structure.step_normal_form(structure.mu, "u")
        assert "u-" not in structure._multipliers
        assert (_search(structure.multiplier("u-")).dead
                is _search(structure.multiplier("u")).dead)
        # and the other way round: u-'s table, built at its first search,
        # is u's when u is searched later
        reverse = structure_from_expr(expr)
        reverse.step_normal_form(reverse.mu, "u-")
        reverse.step_normal_form(reverse.mu, "u")
        assert (_search(reverse.multiplier("u")).dead
                is _search(reverse.multiplier("u-")).dead)
    for x in structure.generators.tokens():
        machine = structure.multiplier(x)
        assert stuck_counters(machine) == swept_stuck_table(machine), x


@pytest.mark.parametrize("expr, x", [("bs:2,3", "a"), (REGEN_AA, "u")])
def test_a_row_swap_and_its_inverse_share_one_dead_table(expr, x):
    # the swap is searched first, then its inverse, each on its own machine
    structure = structure_from_expr(expr)
    m, sw = structure.multiplier(x), structure.multiplier(x + "-")
    for machine, token in ((sw, x + "-"), (m, x)):
        u = structure.mu
        multiplier_graph_search(machine, u, structure.step_cap(len(u), token))
    assert _search(m).dead is _search(sw).dead
    assert _search(m).start is _search(sw).start


@pytest.mark.parametrize("expr, radius", [
    ("bs:2,3", 3), ("regen(bs:2,3; a=a; t=t; u=a a)", 2)])
def test_a_shared_level_table_keeps_every_search(expr, radius):
    # two fresh structures take the same searches in the same order, the
    # second keeping its steps on its machines
    plain, shared = structure_from_expr(expr), structure_from_expr(expr)
    tokens = plain.generators.tokens()
    ball, frontier = {plain.mu}, [plain.mu]
    for d in range(radius + 1):
        nxt = []
        for u in frontier:
            for x in tokens:
                cap = plain.step_cap(len(u), x)
                want = multiplier_graph_search(plain.multiplier(x), u, cap)
                got = multiplier_graph_search(shared.multiplier(x), u, cap, keep=True)
                assert got == want, (u, x)
                if d < radius and want[0] not in ball:
                    ball.add(want[0])
                    nxt.append(want[0])
        frontier = nxt
    machines = [(plain.multiplier(x), shared.multiplier(x)) for x in tokens]
    assert any(_search(n).levels for _, n in machines)  # kept steps
    assert not any(_search(m).levels for m, _ in machines)
    assert all(built(m, "dead") and built(n, "dead") for m, n in machines)


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


# the failures, in order, that verify reports when free(z,z) and
# product(z,z) are each checked against the other's oracle at radius 2:
# classes are visited in the order of their canonical words
MISMATCHED_FAILURES = {
    ("free(z,z)", "product(z,z)"): [
        ("bijection-split", "2.a 1.a", "2.a 1.a got # 2.a # 1.a but class has # 1.a # 2.a"),
        ("bijection-split", "2.a 1.a-", "2.a 1.a- got # 2.a # 1.a- but class has # 1.a- # 2.a"),
        ("bijection-split", "2.a- 1.a", "2.a- 1.a got # 2.a- # 1.a but class has # 1.a # 2.a-"),
        ("bijection-split", "2.a- 1.a-",
         "2.a- 1.a- got # 2.a- # 1.a- but class has # 1.a- # 2.a-"),
        ("multiplier-complete", "1.a 2.a", "M_1.a- misses (# 1.a # 2.a, # 2.a)"),
        ("multiplier-complete", "1.a 2.a-", "M_1.a- misses (# 1.a # 2.a-, # 2.a-)"),
        ("multiplier-complete", "1.a- 2.a", "M_1.a misses (# 1.a- # 2.a, # 2.a)"),
        ("multiplier-complete", "1.a- 2.a-", "M_1.a misses (# 1.a- # 2.a-, # 2.a-)"),
        ("multiplier-complete", "2.a", "M_1.a misses (# 2.a, # 1.a # 2.a)"),
        ("multiplier-complete", "2.a", "M_1.a- misses (# 2.a, # 1.a- # 2.a)"),
        ("multiplier-complete", "2.a-", "M_1.a misses (# 2.a-, # 1.a # 2.a-)"),
        ("multiplier-complete", "2.a-", "M_1.a- misses (# 2.a-, # 1.a- # 2.a-)"),
    ],
    ("product(z,z)", "free(z,z)"): [
        ("bijection-collision", "2.a 1.a", "distinct elements share normal form (1.a|2.a)"),
        ("bijection-collision", "2.a 1.a-", "distinct elements share normal form (1.a-|2.a)"),
        ("bijection-collision", "2.a- 1.a", "distinct elements share normal form (1.a|2.a-)"),
        ("bijection-collision", "2.a- 1.a-",
         "distinct elements share normal form (1.a-|2.a-)"),
        ("multiplier-sound", "1.a 2.a", "M_1.a- accepts ((1.a|2.a), (_|2.a)) wrongly"),
        ("multiplier-sound", "1.a 2.a-", "M_1.a- accepts ((1.a|2.a-), (_|2.a-)) wrongly"),
        ("multiplier-sound", "1.a- 2.a", "M_1.a accepts ((1.a-|2.a), (_|2.a)) wrongly"),
        ("multiplier-sound", "1.a- 2.a-", "M_1.a accepts ((1.a-|2.a-), (_|2.a-)) wrongly"),
        ("multiplier-sound", "2.a 1.a", "M_2.a- accepts ((1.a|2.a), (1.a|_)) wrongly"),
        ("multiplier-sound", "2.a 1.a-", "M_2.a- accepts ((1.a-|2.a), (1.a-|_)) wrongly"),
        ("multiplier-sound", "2.a- 1.a", "M_2.a accepts ((1.a|2.a-), (1.a|_)) wrongly"),
        ("multiplier-sound", "2.a- 1.a-", "M_2.a accepts ((1.a-|2.a-), (1.a-|_)) wrongly"),
    ],
}


@pytest.mark.parametrize("expr, oracle_expr", MISMATCHED_FAILURES)
def test_verify_against_the_other_product_lists_every_failure_in_order(
        expr, oracle_expr):
    from cga.groups import oracle_from_expr
    report = verify(structure_from_expr(expr), 2, oracle_from_expr(oracle_expr))
    assert (report.words_checked, report.elements) == \
        (21, 13 if expr == "free(z,z)" else 17)
    assert [(f.kind, " ".join(f.witness), f.detail) for f in report.failures] == \
        MISMATCHED_FAILURES[expr, oracle_expr]


def test_verify_geodesic_length_past_a_failed_step(bs23_oracle, monkeypatch):
    # every word through (mu, 1.a) fails, so the walk first reaches the class
    # of 2.a 1.a 2.a- at depth 3, but its geodesic length is 1 (the word 1.a,
    # which has no normal form); the quasigeodesic bound must use 1, not 3
    from cga.groups import ProductOracle, direct_product, oracle_from_expr, z_structure
    product = direct_product(bs_structure(2, 3, quasigeodesic_c=2), z_structure())
    step = product.step_normal_form

    def planted(u, x, trace_sink=None, keep=False):
        if tuple(u) == product.mu and x == "1.a":
            raise SearchBoundExceeded("planted", 0, 0)
        return step(u, x, trace_sink, keep)

    monkeypatch.setattr(product, "step_normal_form", planted)
    report = verify(product, 3, ProductOracle(bs23_oracle, oracle_from_expr("z")))
    assert (report.words_checked, report.elements) == (217, 87)
    assert first_witnesses(report)["termination"] == ("1.a",)
    quasi = {f.witness: f.detail for f in report.failures
             if f.kind == "quasigeodesic"}
    assert quasi[toks("2.a 1.a 2.a-")].endswith("= 6 > 2*(1+1)")


def test_step_into_a_word_outside_l_is_refused_at_the_next_step():
    # a loaded multiplier can take u into a word outside L; the next step's
    # L check on its input is what stops the fold
    structure = z_leaving_l()
    assert structure.normal_form(("a",)) == ("a", "a-")
    with pytest.raises(StructureError, match="^word a a- is not in L$"):
        structure.normal_form(("a", "a"))


# structures whose builders declare keeps_l (multipliers inside L x L)
KEEPS_L = ["bs:2,3", "bs:4,7", "regen(bs:2,3; a=a; t=t; u=at)", "z",
           "product(bs:2,3,z)", "regen(bs:2,3; e=EPS; y=a; v=t a-)"]


def test_keeps_l_is_declared_only_by_builders_that_prove_it():
    assert all(structure_from_expr(expr).keeps_l for expr in KEEPS_L)
    for expr in ("finf:3", "free(z,z)", "product(bs:2,3,finf:2)",
                 "regen(finf:2; y=x1 x2)"):
        assert not structure_from_expr(expr).keeps_l, expr
    assert not z_leaving_l().keeps_l


@pytest.mark.parametrize("expr", KEEPS_L)
def test_normal_form_without_l_checks_folds_as_the_checked_steps(expr):
    # normal_form checks no step input against L here; folding the same
    # words with step_normal_form, which checks each new input, gives the
    # same steps, and every step lands in L
    structure = structure_from_expr(expr)
    gens = structure.generators.tokens()
    rng = random.Random(expr)
    for _ in range(10):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        chosen = [structure.mu]
        for x in word:
            chosen.append(structure.step_normal_form(chosen[-1], x))
            assert structure.nf_automaton.accepts_word(chosen[-1]), (word, x)
        nf, trace = structure.normal_form(word, with_trace=True)
        assert (nf, trace.chosen) == (chosen[-1], chosen), word
        assert structure.normal_form(word) == nf


def test_a_built_structure_loads_without_its_keeps_l(tmp_path, monkeypatch):
    # ga build writes no declaration: the loaded bs:2,3 checks each step's
    # input against L, the built one none
    from cga.cli import main
    from cga.formats import load_structure
    assert main(["build", "bs:2,3", "--out", str(tmp_path)]) == 0
    loaded, built = load_structure(tmp_path), bs_structure(2, 3)
    assert not loaded.keeps_l
    calls = []
    accepts_word = CounterAutomaton.accepts_word
    monkeypatch.setattr(CounterAutomaton, "accepts_word", lambda self, word: (
        calls.append(tuple(word)) or accepts_word(self, word)))
    word = toks("a t a- t t- a")
    nf = built.normal_form(word)
    assert calls == []
    assert loaded.normal_form(word) == nf
    assert len(calls) == len(word)


# the trace rows of a t a- t on bs:2,3, one list per step
A_T_AINV_T_ROWS = [
    [(0, 1, 0, 0), (1, 4, 4, 1), (2, 2, 2, 1), (3, 1, 1, 1), (4, 1, 1, 1),
     (5, 2, 2, 1), (6, 1, 1, 0)],
    [(0, 1, 0, 0), (1, 6, 6, 1), (2, 3, 3, 1), (3, 3, 3, 1), (4, 6, 6, 2),
     (5, 6, 6, 4), (6, 5, 5, 6)],
    [(0, 1, 0, 0), (1, 1, 1, 0), (2, 4, 4, 1), (3, 2, 2, 1), (4, 1, 1, 1),
     (5, 1, 1, 1), (6, 2, 2, 1), (7, 1, 1, 0)],
    [(0, 1, 0, 0), (1, 1, 1, 0), (2, 6, 6, 1), (3, 3, 3, 1), (4, 3, 3, 1),
     (5, 4, 4, 2), (6, 4, 4, 4), (7, 4, 4, 6), (8, 2, 2, 1), (9, 1, 1, 0)],
]


def test_untraced_searches_compute_no_level_widths(monkeypatch):
    import cga.gastructure as gastructure
    calls = []
    max_counter = gastructure._max_counter
    monkeypatch.setattr(gastructure, "_max_counter", lambda configs: (
        calls.append(1) or max_counter(configs)))
    bs23, word = bs_structure(2, 3), toks("a t a- t")
    for _ in range(2):  # cold, then warm
        bs23.normal_form(word)
        assert calls == []
    _, trace = bs23.normal_form(word, with_trace=True)
    assert [step.per_level for step in trace.steps] == A_T_AINV_T_ROWS
    assert all(type(step.per_level) is list for step in trace.steps)
    assert len(calls) == sum(map(len, A_T_AINV_T_ROWS))


def test_verify_stops_at_a_step_out_of_l():
    # the identity steps by a into a a-, outside L; by a- it has no step.  At
    # radius 1 a a- is only recorded; at radius 2 stepping it must raise
    from cga.groups import oracle_from_expr
    report = verify(z_leaving_l(), 1, oracle_from_expr("z"))
    assert first_witnesses(report)["termination"] == ("a-",)
    with pytest.raises(StructureError, match="^word a a- is not in L$"):
        verify(z_leaving_l(), 2, oracle_from_expr("z"))


def test_verify_steps_each_state_once(monkeypatch):
    from cga.gastructure import GraphAutomaticStructure
    from cga.groups import oracle_from_expr
    calls = []
    step = GraphAutomaticStructure.step_normal_form

    def counted(self, u, x, trace_sink=None, keep=False):
        calls.append((u, x))
        return step(self, u, x, trace_sink, keep)

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


def test_accepted_candidates_agrees_with_direct_accepts(bs23, finf3, product_zz):
    for structure, tokens in [(bs23, ("t",)), (finf3, None), (product_zz, None)]:
        candidates = ball_normal_forms(structure, 2)
        trie = candidate_trie(candidates)
        for x in tokens or structure.generators.tokens():
            machine = structure.multiplier(x)
            accepted = accepted_candidates(machine, trie)
            assert set(accepted) == set(candidates)
            for u in candidates:
                for v in candidates:
                    assert (v in accepted[u]) == machine.accepts_word(convolve(u, v))
            assert accepted_candidates(machine, trie) == accepted  # kept steps


# the generators whose machines verify walks over the trie; each other
# generator's machine is the row swap of an inverse walked before it, whose
# pairs verify transposes.  broken's a- is bs:2,3's, not the swap of its a
WALKED = {"bs:2,3": ("a", "t"), "free(z,z)": ("1.a", "2.a"),
          "finf:3": ("x1", "x2", "x3"), "product(z,z)": ("1.a", "2.a"),
          REGEN_AA: ("a", "t", "u"), "broken": ("a", "a-", "t")}


def assert_walked(structure, expr, budget=STEP_BUDGET):
    for x in structure.generators.tokens():
        machine = structure.multiplier(x)
        if x in WALKED[expr]:
            assert 0 < len(_search(machine).steps) <= budget, x
        else:
            assert not _search(machine).steps, x


def test_verify_walks_the_trie_once_per_generator(product_zz, monkeypatch):
    import cga.gastructure
    calls = []
    walk = cga.gastructure.accepted_candidates

    def counted(machine, trie):
        calls.append(machine.name)
        return walk(machine, trie)

    monkeypatch.setattr(cga.gastructure, "accepted_candidates", counted)
    from cga.groups import oracle_from_expr
    report = verify(product_zz, 6, oracle_from_expr("product(z,z)"))
    assert report.ok and report.elements == 85
    # one walk per inverse pair, not 85 x 4 = 340 nor one per generator
    assert len(product_zz.generators.tokens()) == 4
    assert calls == [product_zz.multiplier(x).name for x in WALKED["product(z,z)"]]


@pytest.mark.parametrize("expr, walked", [
    ("regen(bs:2,3; a=a; t=t; y=a t- t)", ["bs2_3_La", "bs2_3_Lt"]),
    ("regen(bs:2,3; y=a-; s=t)", ["bs2_3_La-", "bs2_3_Lt"])])
def test_verify_walks_an_alias_with_its_letter(expr, walked, monkeypatch):
    # y is a, so y's machine is a's and y-'s is a-'s: verify walks a's and
    # t's machines once each and transposes the rest.  Where y is a-, y's
    # machine is the row swap a-, walked before its inverse a (y-'s), which
    # takes the swap's pairs transposed
    import cga.gastructure
    from cga.groups import oracle_from_expr
    calls, walk = [], cga.gastructure.accepted_candidates
    monkeypatch.setattr(cga.gastructure, "accepted_candidates", lambda m, trie: (
        calls.append(m.name) or walk(m, trie)))
    report = verify(structure_from_expr(expr), 2, oracle_from_expr(expr))
    assert report.ok and report.elements == 17
    assert calls == walked


@pytest.mark.parametrize("expr", [
    "bs:2,3", "finf:3", "free(z,z)", "product(z,z)", REGEN_AA])
def test_transposed_pairs_equal_a_walk_of_the_row_swap(expr):
    from cga.langops import LazyAutomaton
    structure = structure_from_expr(expr)
    trie = candidate_trie(ball_normal_forms(structure, 2))
    tokens = structure.generators.tokens()
    swaps = [x for x in tokens if x not in WALKED[expr]]
    assert len(swaps) == len(tokens) // 2
    for x in swaps:
        swap = structure.multiplier(x)
        machine = structure.multiplier(structure.generators.inverse_of(x))
        assert _search(swap).twin is _search(machine)
        assert (_transposed(accepted_candidates(machine, trie))
                == accepted_candidates(swap, trie)), x
    if expr == REGEN_AA:
        assert all(isinstance(structure.multiplier(x), LazyAutomaton)
                   for x in ("u", "u-"))


def fresh_structure(expr):
    return broken_bs23(bs_structure(2, 3)) if expr == "broken" else (
        structure_from_expr(expr))


@pytest.mark.parametrize("expr, radius", [
    ("bs:2,3", 3), ("finf:3", 2), ("product(z,z)", 3), ("broken", 2)])
def test_transposed_pair_walks_leave_verify_unchanged(expr, radius,
                                                      monkeypatch):
    # unlinked from their inverses, the row swaps are walked too; linked,
    # verify walks only WALKED's machines and reports the same.  broken's a
    # and a- are both walked, since a- is not the swap of broken's a
    import cga.gastructure
    from cga.groups import oracle_from_expr
    oracle = oracle_from_expr("bs:2,3" if expr == "broken" else expr)
    calls = []
    walk = cga.gastructure.accepted_candidates
    monkeypatch.setattr(cga.gastructure, "accepted_candidates", lambda m, trie: (
        calls.append(m.name) or walk(m, trie)))
    unlinked = fresh_structure(expr)
    tokens = unlinked.generators.tokens()
    for x in tokens:
        _search(unlinked.multiplier(x)).twin = None
    want = verify(unlinked, radius, oracle)
    assert calls == [unlinked.multiplier(x).name for x in tokens]
    calls.clear()
    linked = fresh_structure(expr)
    assert verify(linked, radius, oracle) == want
    assert calls == [linked.multiplier(x).name for x in WALKED[expr]]
    assert len(set(calls)) == len(calls)


def test_a_second_verify_reads_every_search_answer(monkeypatch):
    # the first verify stores each search's answer and each pair-walk step;
    # the second neither backtracks nor asks the dead table anything
    import cga.gastructure
    from cga.groups import oracle_from_expr
    structure, oracle = bs_structure(2, 3), oracle_from_expr("bs:2,3")
    want = verify(structure, 3, oracle)
    calls = []

    def counted(name):
        original = getattr(cga.gastructure, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_backtrack", "_dead"):
        monkeypatch.setattr(cga.gastructure, name, counted(name))
    assert verify(structure, 3, oracle) == want
    assert calls == []
    assert verify(bs_structure(2, 3), 3, oracle) == want  # a fresh one does both
    assert {"_backtrack", "_dead"} == set(calls)


def test_a_kept_answer_is_stored_only_for_a_finished_search():
    bs23 = bs_structure(2, 3)
    machine, u = bs23.multiplier("t"), bs23.normal_form(toks("a a t"))
    with pytest.raises(SearchBoundExceeded):
        multiplier_graph_search(machine, u, 0, keep=True)
    assert (u, 0) not in _search(machine).levels
    cap = bs23.step_cap(len(u), "t")
    answer = multiplier_graph_search(machine, u, cap, keep=True)
    assert answer[0] == bs23.normal_form(toks("a a t t"))
    assert _search(machine).levels[u, cap] is answer
    assert multiplier_graph_search(machine, u, cap, keep=True) is answer
    assert multiplier_graph_search(machine, u, cap) == answer
    assert multiplier_graph_search(machine, u, cap) is not answer


@pytest.mark.parametrize("expr, keeps_l", [("bs:2,3", True), ("finf:3", False)])
def test_verify_checks_states_against_l_only_where_l_is_not_kept(
        expr, keeps_l, monkeypatch):
    from cga.groups import oracle_from_expr
    structure, calls = structure_from_expr(expr), []
    assert structure.keeps_l == keeps_l
    accepts_word = CounterAutomaton.accepts_word
    monkeypatch.setattr(CounterAutomaton, "accepts_word", lambda self, word: (
        calls.append(tuple(word)) or accepts_word(self, word)))
    assert verify(structure, 2, oracle_from_expr(expr)).ok
    assert (calls == []) == keeps_l


@pytest.mark.parametrize("expr, radius", [("finf:3", 2), ("product(z,z)", 3)])
def test_a_fresh_verify_prunes_and_keeps_every_pair_walk(expr, radius):
    # these machines are searched too little to have repaid a table by the
    # pair walk, which must still prune and keep its steps on each machine
    # it walks; the row swaps it transposes keep none
    from cga.groups import oracle_from_expr
    structure = structure_from_expr(expr)
    assert verify(structure, radius, oracle_from_expr(expr)).ok
    for x in structure.generators.tokens():
        assert built(structure.multiplier(x), "dead"), x
    assert_walked(structure, expr)


@pytest.mark.parametrize("expr, tokens", [
    ("bs:2,3", ("t",)), ("bs:4,7", ("t",)), ("finf:3", None),
    ("product(z,z)", None), (REGEN_AA, ("u",))])
def test_kept_steps_leave_accepted_candidates_unchanged(expr, tokens,
                                                       monkeypatch):
    # the reference walks the machines of a structure whose tables call
    # nothing dead; a fresh machine's first walk builds its own table and
    # fills the kept steps, the later walks read them, also for a smaller trie
    import cga.gastructure
    ball = ball_normal_forms(structure_from_expr(expr), 2)
    trie, small = candidate_trie(ball), candidate_trie(ball[::3])
    with monkeypatch.context() as patch:
        patch.setattr(cga.gastructure, "stuck_counters", all_live)
        unpruned = structure_from_expr(expr)
        tokens = tokens or unpruned.generators.tokens()
        wants = [(accepted_candidates(unpruned.multiplier(x), trie),
                  accepted_candidates(unpruned.multiplier(x), small))
                 for x in tokens]
    plain = structure_from_expr(expr)
    for x, (want, want_small) in zip(tokens, wants):
        machine = plain.multiplier(x)
        assert not _search(machine).steps
        assert accepted_candidates(machine, trie) == want, x
        assert built(machine, "dead")
        kept = len(_search(machine).steps)
        assert kept
        assert accepted_candidates(machine, trie) == want, x
        assert accepted_candidates(machine, small) == want_small, x
        assert len(_search(machine).steps) == kept  # the second walks read every step


class _ReadLog(dict):
    """A step store that records the keys its lookups find."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = set()

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


def test_enumerative_search_keeps_its_steps_for_the_pair_walk():
    # its steps drop dead configurations and go into the store the pair
    # walk reads: a walk over u and the answer re-reads the answer's path
    structure = bs_structure(2, 3)
    machine, u = structure.multiplier("t"), structure.normal_form(toks("a a t"))
    want = multiplier_enumerative_search(machine, u, structure.order, 12)
    search = _search(machine)
    kept = dict(search.steps)
    assert kept
    assert not any(_dead(search.dead, *cfg)
                   for nxt in kept.values() for cfg in nxt)
    search.steps = _ReadLog(kept)
    assert want in accepted_candidates(machine, candidate_trie([u, want]))[u]
    configs = frozenset(machine.initial_configs())
    for top, bottom in itertools.zip_longest(u, want):
        key = (configs, top, bottom)
        assert key in search.steps.read
        configs = kept[key]
    assert machine.accepting(configs)


@pytest.mark.parametrize("expr", [
    "bs:2,3", "free(z,z)", "finf:3", "product(z,z)", "broken"])
def test_verify_on_one_structure_matches_fresh_structures(expr):
    # radii 1..4 on one structure, whose machines keep their steps and dead
    # tables between calls, report exactly what fresh structures report
    from cga.groups import oracle_from_expr
    oracle = oracle_from_expr("bs:2,3" if expr == "broken" else expr)
    reused = fresh_structure(expr)
    for radius in range(1, 5):
        assert verify(reused, radius, oracle) == verify(
            fresh_structure(expr), radius, oracle)
    machines = [reused.multiplier(x) for x in reused.generators.tokens()]
    assert_walked(reused, expr)
    # the level steps outlive the calls: repeating a call adds no entry
    kept = [len(_search(machine).levels) for machine in machines]
    assert all(kept)
    assert verify(reused, 4, oracle) == verify(fresh_structure(expr), 4, oracle)
    assert [len(_search(machine).levels) for machine in machines] == kept


FLUSHED = [("bs:2,3", 3), ("finf:3", 2), (REGEN_AA, 2)]


@pytest.mark.parametrize("budget", [1, 2])
@pytest.mark.parametrize("expr, radius", FLUSHED)
def test_flushed_step_stores_leave_verify_unchanged(expr, radius, budget,
                                                    monkeypatch):
    # each search and pair walk keeps its steps, and a budget of one or two
    # entries empties both stores partway through searches and walks; the
    # reports must be those of fresh structures with the full budget
    import cga.gastructure
    from cga.groups import oracle_from_expr
    oracle = oracle_from_expr(expr)
    want = verify(structure_from_expr(expr), radius, oracle)
    monkeypatch.setattr(cga.gastructure, "STEP_BUDGET", budget)
    structure = structure_from_expr(expr)
    machines = [structure.multiplier(x) for x in structure.generators.tokens()]
    assert verify(structure, radius, oracle) == want
    assert verify(structure, radius, oracle) == want
    for machine in machines:
        assert 0 < len(_search(machine).levels) <= budget, machine.name
    assert_walked(structure, expr, budget)


def test_concurrent_verifies_agree_while_stores_flush(monkeypatch):
    # threads share one structure's stores, which a budget of two entries
    # empties under their lookups; each thread has its own oracle
    import sys
    from concurrent.futures import ThreadPoolExecutor
    import cga.gastructure
    from cga.groups import oracle_from_expr
    want = verify(bs_structure(2, 3), 3, oracle_from_expr("bs:2,3"))
    monkeypatch.setattr(cga.gastructure, "STEP_BUDGET", 2)
    shared = bs_structure(2, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(
                lambda _: verify(shared, 3, oracle_from_expr("bs:2,3")),
                range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8


@pytest.mark.parametrize("budget", [1, 2])
@pytest.mark.parametrize("expr", [expr for expr, _ in FLUSHED])
def test_flushed_step_stores_leave_accepted_candidates_unchanged(
        expr, budget, monkeypatch):
    import cga.gastructure
    trie = candidate_trie(ball_normal_forms(structure_from_expr(expr), 2))
    kept, flushed = structure_from_expr(expr), structure_from_expr(expr)
    for x in kept.generators.tokens():
        want = accepted_candidates(kept.multiplier(x), trie)
        with monkeypatch.context() as patch:
            patch.setattr(cga.gastructure, "STEP_BUDGET", budget)
            machine = flushed.multiplier(x)
            assert accepted_candidates(machine, trie) == want, x
            assert accepted_candidates(machine, trie) == want, x
            assert len(_search(machine).steps) <= budget


def test_verify_checks_each_stepped_input_against_l_once(monkeypatch):
    from cga.groups import oracle_from_expr
    structure = structure_from_expr("free(z,z)")
    steps, checks = [], []
    step, accepts_word = structure.step_normal_form, structure.nf_automaton.accepts_word

    def counted_step(u, x, trace_sink=None, keep=False):
        steps.append(tuple(u))
        return step(u, x, trace_sink, keep)

    def counted_check(word):
        checks.append(tuple(word))
        return accepts_word(word)

    monkeypatch.setattr(structure, "step_normal_form", counted_step)
    monkeypatch.setattr(structure.nf_automaton, "accepts_word", counted_check)
    assert verify(structure, 3, oracle_from_expr("free(z,z)")).ok
    gens = len(structure.generators.tokens())
    assert len(steps) == gens * len(checks)  # one check per stepped state
    assert checks == steps[::gens]


def test_verify_quasigeodesic_phase_shares_one_element_walk(product_zz, monkeypatch):
    # the quasigeodesic phase asks for every class's geodesic length; one walk
    # shared by the calls canonicalizes each (element, generator) at most once,
    # plus each class's word and the empty word
    import cga.shortlex
    from cga.groups import oracle_from_expr
    oracle = oracle_from_expr("product(z,z)")
    phase, calls = [], []
    canonicalize, geodesic_length = oracle.canonicalize, cga.shortlex.geodesic_length

    def counted(word):
        if phase:
            calls.append(word)
        return canonicalize(word)

    def in_phase(*args, **kwargs):
        phase.append(1)
        try:
            return geodesic_length(*args, **kwargs)
        finally:
            phase.pop()

    monkeypatch.setattr(oracle, "canonicalize", counted)
    monkeypatch.setattr(cga.shortlex, "geodesic_length", in_phase)
    report = verify(product_zz, 6, oracle)
    assert report.ok and report.elements == 85
    gens = product_zz.generators.tokens()
    assert 0 < len(calls) <= (report.elements + 1) * len(gens)


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


def test_family_index_has_one_spelling(finf):
    # a leading zero or a non-ASCII digit would name x1 a second time
    spec = finf.generators.family
    assert spec.parse("x1") == (1, False) and spec.parse("x10-") == (10, True)
    for token in ("x01", "x01-", "x0", "x\u0661", "x1\u0660"):
        assert spec.parse(token) is None, token
        assert token not in finf.generators
    with pytest.raises(StructureError, match="unknown generator 'x01'"):
        finf.generators.inverse_of("x01")


def test_generator_set_involution_rules():
    # a pair (a, a) makes a its own inverse
    gens = GeneratorSet([("a", "a")])
    assert gens.inverse_of("a") == "a"
    assert gens.tokens() == ["a"]


def test_generator_set_tokens_keep_order_past_collisions():
    # a fixed pair that names family tokens keeps its place, once
    gens = GeneratorSet([("x1", "x1-")], FamilySpec("x", None, 2))
    assert gens.tokens() == ["x1", "x1-", "x2", "x2-"]
    gens = GeneratorSet([("x2-", "x2"), ("a", "a")], FamilySpec("x", None, 2))
    assert gens.tokens() == ["x2-", "x2", "a", "x1", "x1-"]


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


def test_concurrent_searches_fill_lazy_multipliers_once():
    # threads that race to fill the same states of a lazy composed
    # multiplier, its row swap and their dead tables get the normal forms
    # of a structure that filled them alone
    import sys
    from concurrent.futures import ThreadPoolExecutor
    expr = "regen(bs:2,3; a=a; t=t; u=a a)"
    rng = random.Random(26)
    letters = ["u", "u-", "a", "t-"]
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
             for _ in range(12)]
    want = [structure_from_expr(expr).normal_form(w) for w in words]
    fresh = structure_from_expr(expr)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(fresh.normal_form, w) for w in words]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
