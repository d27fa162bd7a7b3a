"""Words over the alphabet ``Z_d`` and conversions between encodings.

The nodes of the De Bruijn graph ``B(d, n)`` are the ``d**n`` words of length
``n`` over the alphabet ``Z_d = {0, 1, ..., d-1}``.  Throughout the package a
*word* is represented in one of two interchangeable encodings:

``tuple`` encoding
    A tuple of ``n`` Python ints, most-significant digit first, e.g. the node
    ``1120`` of ``B(3, 4)`` is ``(1, 1, 2, 0)``.  This is the readable,
    reference encoding used by the algorithmic (Chapter 2/3) code.

``int`` encoding
    The value of the word read as a base-``d`` number,
    ``x_1 d^{n-1} + ... + x_n``, i.e. ``1120 -> 1*27 + 1*9 + 2*3 + 0 = 42``.
    This is the compact encoding used by the vectorized (numpy) fast paths in
    :mod:`repro.graphs` and :mod:`repro.analysis`.

The paper orders words "by viewing them as base-d numbers"; the int encoding
therefore realises exactly the order used to pick canonical necklace
representatives and to order necklaces inside the modified tree ``D``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import AlphabetError, InvalidParameterError

__all__ = [
    "Word",
    "validate_alphabet",
    "validate_word",
    "integers",
    "word_to_int",
    "int_to_word",
    "all_words",
    "iter_words",
    "random_word",
    "words_as_array",
    "weight",
    "letter_count",
    "constant_word",
    "alternating_word",
]

#: Type alias used throughout the package for tuple-encoded words.
Word = tuple[int, ...]


def validate_alphabet(d: int) -> int:
    """Validate an alphabet size ``d`` and return it.

    Parameters
    ----------
    d:
        The alphabet size.  Must be an integer ``>= 2``.

    Raises
    ------
    InvalidParameterError
        If ``d`` is not an integer at least 2.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise InvalidParameterError(f"alphabet size must be an int, got {d!r}")
    if d < 2:
        raise InvalidParameterError(
            f"alphabet size must be >= 2, got {d} "
            f"(B(1, n) degenerates to a single self-loop node; the encoding "
            f"helpers word_to_int/int_to_word still accept d = 1 directly)"
        )
    return int(d)


def validate_word(word: Sequence[int], d: int) -> Word:
    """Validate that ``word`` is a word over ``Z_d`` and return it as a tuple.

    Raises
    ------
    AlphabetError
        If any digit lies outside ``{0, ..., d-1}``.
    InvalidParameterError
        If the word is empty.
    """
    d = validate_alphabet(d)
    w = integers(word, "word digits")
    if len(w) == 0:
        raise InvalidParameterError("words must be non-empty")
    for x in w:
        if not 0 <= x < d:
            raise AlphabetError(f"digit {x} outside alphabet Z_{d} in word {w}")
    return w


def integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, refusing to round.

    ``int()`` truncates ``1.7`` to ``1`` and overflows on ``inf``: a request
    carrying such a number would silently name another node or graph, so
    every value that is not integer-valued raises
    :class:`InvalidParameterError` (``what`` names the values in the message).
    """
    try:
        given = tuple(values)
        out = tuple(map(int, given))
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{what} must be integers, got {values!r}") from exc
    if out != given:
        raise InvalidParameterError(f"{what} must be integers, got {list(given)!r}")
    return out


def word_to_int(word: Sequence[int], d: int) -> int:
    """Return the int encoding of ``word`` (base-``d``, most-significant first).

    Accepts the degenerate unary alphabet ``d = 1`` (every word encodes to
    ``0``).  Digits outside ``{0, ..., d-1}`` raise :class:`AlphabetError`
    rather than silently producing the encoding of a different word, and the
    empty word is rejected — there is no length-0 node in any ``B(d, n)``.

    >>> word_to_int((1, 1, 2, 0), 3)
    42
    """
    if d < 1:
        raise InvalidParameterError(f"alphabet size must be >= 1, got {d}")
    value = 0
    count = 0
    for x in word:
        x = int(x)
        if not 0 <= x < d:
            raise AlphabetError(f"digit {x} outside alphabet Z_{d} in word {tuple(word)}")
        value = value * d + x
        count += 1
    if count == 0:
        raise InvalidParameterError("words must be non-empty")
    return value


def int_to_word(value: int, d: int, n: int) -> Word:
    """Return the tuple encoding of the length-``n`` word with int encoding ``value``.

    >>> int_to_word(42, 3, 4)
    (1, 1, 2, 0)
    """
    if d < 1:
        raise InvalidParameterError(f"alphabet size must be >= 1, got {d}")
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    if value < 0 or value >= d**n:
        raise InvalidParameterError(
            f"value {value} is not a valid encoding of a length-{n} word over Z_{d}"
        )
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        digits[i] = value % d
        value //= d
    return tuple(digits)


def iter_words(d: int, n: int) -> Iterator[Word]:
    """Iterate over all ``d**n`` words of length ``n`` in base-``d`` numeric order."""
    d = validate_alphabet(d)
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    word = [0] * n
    total = d**n
    for _ in range(total):
        yield tuple(word)
        # increment the base-d counter, least-significant digit last
        i = n - 1
        while i >= 0:
            word[i] += 1
            if word[i] < d:
                break
            word[i] = 0
            i -= 1


def all_words(d: int, n: int) -> list[Word]:
    """Return the list of all words of length ``n`` over ``Z_d`` in numeric order."""
    return list(iter_words(d, n))


def words_as_array(d: int, n: int) -> np.ndarray:
    """Return all words as a ``(d**n, n)`` uint8/int array of digits.

    Row ``i`` contains the digits of the word with int encoding ``i``.  The
    construction is fully vectorized and is the preferred way to materialise
    the node set for large graphs.
    """
    d = validate_alphabet(d)
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    values = np.arange(d**n, dtype=np.int64)
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (values[:, None] // powers[None, :]) % d
    dtype = np.uint8 if d <= 255 else np.int64
    return digits.astype(dtype)


def random_word(d: int, n: int, rng: np.random.Generator | int) -> Word:
    """Return a uniformly random word of length ``n`` over ``Z_d``.

    ``rng`` is required — a Generator or an explicit integer seed.  The
    historical unseeded fallback broke the package's determinism contract
    (every random stream descends from an explicit seed; REP002).
    """
    d = validate_alphabet(d)
    if not isinstance(rng, np.random.Generator):
        if not isinstance(rng, (int, np.integer)):
            raise InvalidParameterError(
                "random_word requires an explicit np.random.Generator or seed"
            )
        rng = np.random.default_rng(int(rng))
    return tuple(int(x) for x in rng.integers(0, d, size=n))


def weight(word: Sequence[int]) -> int:
    """Return ``wt(x)``: the sum of the digits of ``word`` (paper §1.4)."""
    return int(sum(word))


def letter_count(word: Sequence[int], letter: int) -> int:
    """Return ``wt_a(x)``: the number of occurrences of ``letter`` in ``word``."""
    return sum(1 for x in word if x == letter)


def constant_word(letter: int, n: int) -> Word:
    """Return the word ``letter**n`` (written ``a^n`` in the paper)."""
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    return (int(letter),) * n


def alternating_word(a: int, b: int, n: int) -> Word:
    """Return the alternating word ``abab...`` of length ``n``.

    This is the word written ``\\widehat{ab}`` in Section 3.2.3 of the paper:
    ``ab...ab`` when ``n`` is even and ``ab...aba`` when ``n`` is odd.
    """
    if n < 1:
        raise InvalidParameterError(f"word length must be >= 1, got {n}")
    return tuple(int(a) if i % 2 == 0 else int(b) for i in range(n))
