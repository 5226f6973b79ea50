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
    itself shortlex-least.  The walk is kept on the oracle, one per alphabet,
    and each call resumes it where the last call stopped; a call stops it at
    the first word of ``word``'s class, as a walk of its own would.  A word
    outside the alphabet is rejected, so the input's length bounds the walk;
    an explicit cap turns a long search into SearchCapExceeded instead, and
    the walk never goes past it.
    """
    word = tuple(word)
    for letter in word:
        if letter not in alphabet.letters:
            raise ShortlexError(f"letter {letter!r} not in ordered alphabet")
    walks = getattr(oracle, "_cga_walks", None)
    if walks is None:
        walks = oracle._cga_walks = {}
    walk = walks.get(alphabet.letters)
    if walk is None:
        walk = walks[alphabet.letters] = _ElementWalk(oracle, alphabet.letters)
    return walk.first_word(oracle, oracle.canonicalize(word), max_len)


class _ElementWalk:
    """The breadth-first element walk of geodesic_normal_form, resumable.

    ``first`` maps each class reached to the first word that reached it; the
    next word to try is letter ``letter`` after ``level[rep]``, and ``nxt``
    collects the next level's representatives.  The position moves only after
    ``canonicalize`` returns, so an oracle error leaves the walk as it was.
    """

    def __init__(self, oracle, letters):
        self.letters = letters
        self.first = {oracle.canonicalize(()): ()}
        self.level, self.nxt, self.rep, self.letter = [()], [], 0, 0

    def first_word(self, oracle, target, max_len):
        found = self.first.get(target)
        while found is None:
            if self.rep == len(self.level):
                if not self.nxt:  # every element reached, target not among them
                    raise SearchCapExceeded(max_len)
                self.level, self.nxt, self.rep = self.nxt, [], 0
            rep = self.level[self.rep]
            if max_len is not None and len(rep) >= max_len:
                raise SearchCapExceeded(max_len)
            candidate = rep + (self.letters[self.letter],)
            canon = oracle.canonicalize(candidate)
            self.letter += 1
            if self.letter == len(self.letters):
                self.rep, self.letter = self.rep + 1, 0
            if canon not in self.first:
                self.first[canon] = candidate
                self.nxt.append(candidate)
                if canon == target:
                    found = candidate
        # the empty word is within every cap, as in a walk of its own
        if found and max_len is not None and len(found) > max_len:
            raise SearchCapExceeded(max_len)
        return found


def geodesic_length(oracle, alphabet: OrderedAlphabet, word, max_len=None) -> int:
    return len(geodesic_normal_form(oracle, alphabet, word, max_len))
