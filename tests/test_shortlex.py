import itertools
import random

import pytest

from cga.groups import BSOracle, FreeGroupOracle, oracle_from_expr
from cga.gastructure import GeneratorSet, StructureError
from cga.shortlex import (
    OrderedAlphabet,
    SearchCapExceeded,
    ShortlexError,
    geodesic_length,
    geodesic_normal_form,
    iter_shortlex,
    successor,
)


AB = OrderedAlphabet(("a", "b"))


def test_successor_examples():
    assert successor(("b", "b"), AB) == ("a", "a", "a")
    assert successor(("a", "b"), AB) == ("b", "a")
    assert successor((), AB) == ("a",)


def test_ordered_alphabet_rejects_duplicates_and_unknowns():
    with pytest.raises(ShortlexError):
        OrderedAlphabet(("a", "a"))
    with pytest.raises(ShortlexError):
        AB.rank("z")


def test_successor_enumerates_shortlex_order():
    # first 500 strings match exhaustive (length, lex) sorting exactly
    exhaustive = []
    for length in range(9):  # 2^0 + ... + 2^8 = 511 words
        for word in itertools.product("ab", repeat=length):
            exhaustive.append(word)
    exhaustive.sort(key=lambda w: (len(w), tuple(AB.rank(c) for c in w)))
    got = list(itertools.islice(iter_shortlex(AB), 500))
    assert got == exhaustive[:500]
    assert len(set(got)) == 500


def test_geodesic_free_group_reduces():
    oracle = FreeGroupOracle(GeneratorSet([("a", "a-"), ("b", "b-")]))
    order = OrderedAlphabet(("a", "a-", "b", "b-"))
    assert geodesic_normal_form(oracle, order, ("a", "a-", "b")) == ("b",)
    assert geodesic_normal_form(oracle, order, ()) == ()
    # reduced words are already geodesic
    assert geodesic_length(oracle, order, ("a", "b", "a")) == 3


def test_geodesic_bs23_a9_has_length_eight():
    oracle = BSOracle(2, 3)
    order = OrderedAlphabet(("a", "a-", "t", "t-"))
    word = ("a",) * 9
    got = geodesic_normal_form(oracle, order, word)
    assert len(got) == 8
    assert oracle.equal(got, word)


def test_geodesic_length_never_exceeds_input():
    oracle = BSOracle(2, 3)
    order = OrderedAlphabet(("a", "a-", "t", "t-"))
    for word in [("a",), ("t", "a"), ("a", "a", "a")]:
        assert geodesic_length(oracle, order, word) <= len(word)


def test_geodesic_cap_is_reported():
    oracle = BSOracle(2, 3)
    order = OrderedAlphabet(("a", "a-", "t", "t-"))
    with pytest.raises(SearchCapExceeded):
        geodesic_normal_form(oracle, order, ("a",) * 4, max_len=2)


def reference_geodesic(oracle, order, word, max_len=None):
    """Literal successor loop: the first candidate v in shortlex order with
    word * v^-1 trivial."""
    for v in iter_shortlex(order, max_len):
        inverse = tuple(oracle.inverse_of(tok) for tok in reversed(v))
        if oracle.is_trivial(tuple(word) + inverse):
            return v
    raise SearchCapExceeded(max_len)


@pytest.mark.parametrize("expr", [
    "z", "bs:2,3", "free(z,z)", "product(z,z)", "finf:3",
    "regen(bs:2,3; a=a; t=t; u=a a)",
])
def test_geodesic_search_matches_successor_loop(expr):
    oracle = oracle_from_expr(expr)
    order = OrderedAlphabet(tuple(oracle.generators.tokens()))
    rng = random.Random(7)
    words = [tuple(rng.choice(order.letters) for _ in range(n))
             for n in range(6) for _ in range(4)]
    for word in words:
        assert (geodesic_normal_form(oracle, order, word)
                == reference_geodesic(oracle, order, word))


def test_geodesic_search_max_len_edges():
    oracle = BSOracle(2, 3)
    order = OrderedAlphabet(("a", "a-", "t", "t-"))
    for trivial in [(), ("t", "a", "a", "t-", "a-", "a-", "a-")]:
        assert geodesic_normal_form(oracle, order, trivial, max_len=0) == ()
    with pytest.raises(SearchCapExceeded):
        geodesic_normal_form(oracle, order, ("a",) * 4, max_len=2)
    with pytest.raises(SearchCapExceeded):
        reference_geodesic(oracle, order, ("a",) * 4, max_len=2)


def test_geodesic_search_rejects_a_word_outside_the_alphabet():
    # the walk over the positive powers of a would never reach a-
    oracle = oracle_from_expr("z")
    with pytest.raises(ShortlexError, match="'a-' not in ordered alphabet"):
        geodesic_normal_form(oracle, OrderedAlphabet(("a",)), ("a-",))


def _answer(oracle, order, word, max_len):
    try:
        return geodesic_normal_form(oracle, order, word, max_len)
    except SearchCapExceeded as exc:
        return ("cap", exc.cap)


@pytest.mark.parametrize("expr", ["bs:2,3", "free(z,z)"])
def test_shared_walk_answers_as_a_fresh_walk(expr):
    # one oracle keeps one walk per alphabet; queries in any order, with caps
    # below and above a word's geodesic length, must see what a walk of their
    # own would see
    order = OrderedAlphabet(tuple(oracle_from_expr(expr).generators.tokens()))
    rng = random.Random(11)
    words = [tuple(rng.choice(order.letters) for _ in range(n))
             for n in range(7) for _ in range(5)]
    queries = [(word, cap) for word in words for cap in (None, 0, 1, 2, 3, 5)]
    rng.shuffle(queries)
    shared = oracle_from_expr(expr)
    got = [_answer(shared, order, word, cap) for word, cap in queries]
    fresh = [_answer(oracle_from_expr(expr), order, word, cap)
             for word, cap in queries]
    assert got == fresh
    capped = [g[:1] == ("cap",) for g in got]
    assert any(capped) and not all(capped)


def test_shared_walk_repeats_the_oracle_error():
    # (a, q) is the second word of length two; q is unknown to the z oracle
    # only once it meets a letter before it, so the walk fails there on every
    # call that needs to pass it, and keeps what it found before
    oracle = oracle_from_expr("z")
    order = OrderedAlphabet(("a", "q"))
    assert geodesic_normal_form(oracle, order, ("a",)) == ("a",)
    for _ in range(3):
        with pytest.raises(StructureError, match="unknown generator 'q'"):
            geodesic_normal_form(oracle, order, ("a", "a", "a"))
    assert geodesic_normal_form(oracle, order, ("a", "a")) == ("a", "a")
    with pytest.raises(StructureError, match="unknown generator 'q'"):
        geodesic_normal_form(oracle_from_expr("z"), order, ("a", "a", "a"))
