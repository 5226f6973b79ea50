import pytest

from cga.automata import EMPTY_PROGRAM, CounterAutomaton
from cga.gastructure import GeneratorSet, GraphAutomaticStructure, GrowthPolicy
from cga.groups import (
    BSOracle,
    FreeGroupOracle,
    bs_structure,
    finf_structure,
    z_structure,
)
from cga.langops import tuple_token


def toks(text):
    """Whitespace-tokenized word."""
    return tuple(text.split())


def brute_force_accepts(machine: CounterAutomaton, word):
    """Independent acceptance oracle: depth-first run enumeration, written
    separately from the engine on purpose."""
    word = tuple(word)

    def run_program(program, counters):
        values = list(counters)
        for step in program:
            for i, instr in enumerate(step):
                if instr.kind == "test_zero" and values[i] != 0:
                    return None
                if instr.kind == "test_nonzero" and values[i] == 0:
                    return None
            for i, instr in enumerate(step):
                if instr.kind == "inc":
                    values[i] += instr.amount
                elif instr.kind == "dec":
                    values[i] -= instr.amount
                elif instr.kind == "set_zero":
                    values[i] = 0
        return tuple(values)

    def search(state, counters, position, eps_chain):
        if position == len(word) and state in machine.accepts \
                and all(v == 0 for v in counters):
            return True
        for t in machine.transitions:
            if t.src != state:
                continue
            if t.label is None:
                if t.dst in eps_chain:
                    continue
                after = run_program(t.program, counters)
                if after is not None and search(
                        t.dst, after, position, eps_chain | {t.dst}):
                    return True
            elif position < len(word) and t.label == word[position]:
                after = run_program(t.program, counters)
                if after is not None and search(
                        t.dst, after, position + 1, frozenset()):
                    return True
        return False

    return search(machine.start, machine.zero_vector(), 0,
                  frozenset({machine.start}))


def all_words(alphabet, max_len):
    level = [()]
    yield ()
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in alphabet]
        yield from level


def ball_normal_forms(structure, radius):
    """Distinct normal forms reached within the generator ball."""
    gens = structure.generators.tokens()
    seen = {structure.mu}
    frontier = [structure.mu]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for x in gens:
                v = structure.step_normal_form(u, x)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


def z_leaving_l():
    """Z over a, a- whose multiplier for a takes the identity to a a-, a
    word outside L = a* | a-*; every other pair is rejected."""
    z = z_structure()
    grow, back = tuple_token((None, "a")), tuple_token((None, "a-"))
    leave = CounterAutomaton(
        "z_leave", (grow, back), 0, ["m0", "m1", "out"], "m0", ["out"],
        [("m0", grow, EMPTY_PROGRAM, "m1"), ("m1", back, EMPTY_PROGRAM, "out")],
        blind=True)
    return GraphAutomaticStructure(
        "z-leaving-L", z.symbols, GeneratorSet([("a", "a-")]),
        z.nf_automaton, {"a": leave}, growth=GrowthPolicy(1, 2),
        order=z.symbols)


@pytest.fixture(scope="session")
def bs23():
    return bs_structure(2, 3)


@pytest.fixture(scope="session")
def bs47():
    return bs_structure(4, 7)


@pytest.fixture(scope="session")
def bs23_oracle():
    return BSOracle(2, 3)


@pytest.fixture(scope="session")
def bs47_oracle():
    return BSOracle(4, 7)


@pytest.fixture(scope="session")
def finf3():
    return finf_structure(max_index=3)


@pytest.fixture(scope="session")
def finf():
    return finf_structure()


@pytest.fixture(scope="session")
def zs():
    return z_structure()


@pytest.fixture(scope="session")
def free_oracle_finf(finf3):
    return FreeGroupOracle(finf3.generators)
