import itertools
import random

import pytest

from cga.groups import BSOracle, FreeGroupOracle, oracle_from_expr
from cga.gastructure import GeneratorSet
from cga.shortlex import (
    OrderedAlphabet,
    SearchCapExceeded,
    ShortlexError,
    compare,
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


def test_compare_examples():
    assert compare(("b",), ("a", "a"), AB) == -1
    assert compare(("a", "b"), ("b", "a"), AB) == -1
    assert compare(("a", "b"), ("a", "b"), AB) == 0
    assert compare(("b", "a"), ("a", "b"), AB) == 1


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
    for earlier, later in zip(got, got[1:]):
        assert compare(earlier, later, AB) == -1
    assert len(set(got)) == 500


def test_geodesic_free_group_reduces():
    oracle = FreeGroupOracle(GeneratorSet.from_pairs([("a", "a-"), ("b", "b-")]))
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
