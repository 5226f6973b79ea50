"""Shortlex order: comparison, the successor subroutine, and oracle-driven
shortlex-geodesic normal forms.

Words are compared first by length, then lexicographically by a fixed letter
order.  The successor of the all-maximal word of length k is the all-minimal
word of length k+1; otherwise the rightmost non-maximal letter is bumped and
the suffix reset to the minimal letter.
"""

from __future__ import annotations

from dataclasses import dataclass


class ShortlexError(Exception):
    pass


class SearchCapExceeded(ShortlexError):
    """Enumeration hit the configured length cap without an answer."""

    def __init__(self, cap):
        super().__init__(f"shortlex search exceeded length cap {cap}")
        self.cap = cap


@dataclass(frozen=True)
class OrderedAlphabet:
    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ShortlexError("ordered alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ShortlexError("ordered alphabet has duplicate letters")

    def rank(self, letter) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise ShortlexError(f"letter {letter!r} not in ordered alphabet")

    @property
    def smallest(self):
        return self.letters[0]

    @property
    def largest(self):
        return self.letters[-1]


def successor(word, alphabet: OrderedAlphabet):
    """The immediate shortlex successor of a word."""
    word = tuple(word)
    letters = alphabet.letters
    top = alphabet.largest
    out = list(word)
    for i in range(len(out) - 1, -1, -1):
        if out[i] != top:
            out[i] = letters[alphabet.rank(out[i]) + 1]
            for j in range(i + 1, len(out)):
                out[j] = letters[0]
            return tuple(out)
    # all-maximal: wrap to the shortest word of the next length
    return (letters[0],) * (len(word) + 1)


def compare(u, v, alphabet: OrderedAlphabet) -> int:
    """-1, 0 or 1 as u is shortlex-less, equal or greater."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    for a, b in zip(u, v):
        ra, rb = alphabet.rank(a), alphabet.rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
    return 0


def iter_shortlex(alphabet: OrderedAlphabet, max_len=None):
    """Yield all words over the alphabet in shortlex order, starting at the
    empty word; stops after length max_len if given."""
    word = ()
    while max_len is None or len(word) <= max_len:
        yield word
        word = successor(word, alphabet)


def geodesic_normal_form(oracle, alphabet: OrderedAlphabet, word, max_len=None):
    """Shortlex-least word over the generator alphabet equal to ``word`` in
    the oracle's group, found by a breadth-first walk over group elements.

    Each level extends the previous level's representatives in order, letters
    in alphabet order, so the first word to reach a new element is its
    shortlex-least representative: a prefix of a shortlex-least geodesic is
    itself shortlex-least.  The input's length bounds the walk; an explicit
    cap turns a long search into SearchCapExceeded instead.
    """
    target, start = oracle.canonicalize(tuple(word)), oracle.canonicalize(())
    if target == start:
        return ()
    seen, level, depth = {start}, [()], 0
    while max_len is None or depth < max_len:
        depth, nxt = depth + 1, []
        for rep in level:
            for letter in alphabet.letters:
                candidate = rep + (letter,)
                canon = oracle.canonicalize(candidate)
                if canon == target:
                    return candidate
                if canon not in seen:
                    seen.add(canon)
                    nxt.append(candidate)
        level = nxt
    raise SearchCapExceeded(max_len)


def geodesic_length(oracle, alphabet: OrderedAlphabet, word, max_len=None) -> int:
    return len(geodesic_normal_form(oracle, alphabet, word, max_len))
