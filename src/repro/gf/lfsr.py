"""Linear and affine recurrences over ``GF(q)``: shift-register sequences.

Section 3.1 of the paper constructs cycles in ``B(d, n)`` from sequences
satisfying the linear recurrence (3.1)

    ``c_{n+i} = a_{n-1} c_{n-1+i} + ... + a_0 c_i``

over ``GF(d)``.  When the characteristic polynomial (3.2) is *primitive* the
sequence has period ``d**n - 1`` and yields a **maximal cycle**: a cycle that
visits every node of ``B(d, n)`` except ``0^n``.  Lemma 3.2 shows the shifted
sequence ``s + C`` obeys the *affine* recurrence obtained by adding the
constant ``s·(1 - ω)`` with ``ω = a_0 + ... + a_{n-1}``; this module therefore
implements the general affine recurrence and exposes maximal-cycle and
shifted-cycle constructors on top of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from .field import GF, GaloisField
from .poly import Poly
from .primitive import is_primitive, primitive_polynomial_coefficients

__all__ = [
    "AffineRecurrence",
    "LinearRecurrence",
    "maximal_cycle",
    "shifted_cycle",
    "sequence_period",
    "default_maximal_cycle_recurrence",
]


@dataclass(frozen=True)
class AffineRecurrence:
    """The affine recurrence ``c_{n+i} = a_{n-1} c_{n-1+i} + ... + a_0 c_i + constant``.

    Attributes
    ----------
    field:
        The coefficient field ``GF(q)``.
    coeffs:
        The recurrence coefficients ``(a_0, a_1, ..., a_{n-1})``.
    constant:
        The affine constant (0 for the plain linear recurrence of the paper's
        equation (3.1); ``s·(1-ω)`` for the shifted sequence of Lemma 3.2).
    """

    field: GaloisField
    coeffs: tuple[int, ...]
    constant: int = 0

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InvalidParameterError("a recurrence needs at least one coefficient")
        for c in (*self.coeffs, self.constant):
            if not 0 <= c < self.field.order:
                raise InvalidParameterError(
                    f"{c} is not an element of GF({self.field.order})"
                )
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    # -- structure ----------------------------------------------------------
    @property
    def order(self) -> int:
        """The recurrence order ``n`` (number of state digits)."""
        return len(self.coeffs)

    @property
    def coefficient_sum(self) -> int:
        """The field element ``ω = a_0 + ... + a_{n-1}`` of Lemma 3.2."""
        return self.field.sum(self.coeffs)

    def characteristic_polynomial(self) -> Poly:
        """Return the characteristic polynomial ``x^n - a_{n-1}x^{n-1} - ... - a_0``."""
        return Poly.from_characteristic(self.field, self.coeffs)

    def shifted(self, s: int) -> "AffineRecurrence":
        """Return the recurrence satisfied by ``s + C`` (Lemma 3.2).

        If ``C`` satisfies this recurrence then the termwise shift ``s + C``
        satisfies the same linear part with the constant increased by
        ``s·(1 - ω)``.
        """
        f = self.field
        extra = f.mul(s, f.sub(f.one, self.coefficient_sum))
        return AffineRecurrence(f, self.coeffs, f.add(self.constant, extra))

    # -- evaluation -----------------------------------------------------------
    def next_digit(self, window: Sequence[int]) -> int:
        """Return the digit following the state ``window`` (length ``n``, oldest first)."""
        if len(window) != self.order:
            raise InvalidParameterError(
                f"window must have length {self.order}, got {len(window)}"
            )
        f = self.field
        return f.add(f.dot(self.coeffs, window), self.constant)

    def sequence(self, initial: Sequence[int], length: int) -> list[int]:
        """Return the first ``length`` terms of the sequence with initial state ``initial``."""
        if length < 0:
            raise InvalidParameterError("length must be >= 0")
        state = [self.field._check(int(c)) for c in initial]
        if len(state) != self.order:
            raise InvalidParameterError(
                f"initial state must have length {self.order}, got {len(state)}"
            )
        out: list[int] = []
        for _ in range(length):
            out.append(state[0])
            state.append(self.next_digit(state))
            state.pop(0)
        return out

    def period(self, initial: Sequence[int], limit: int | None = None) -> int:
        """Return the least ``k > 0`` with ``c_i = c_{i+k}`` for all ``i``.

        The period of a recurrence is the period of its state cycle, so it is
        found by iterating states until the initial state reappears.  ``limit``
        bounds the search (default ``q**n``, an absolute upper bound).
        """
        q = self.field.order
        bound = q**self.order if limit is None else limit
        start = tuple(int(c) for c in initial)
        if len(start) != self.order:
            raise InvalidParameterError(
                f"initial state must have length {self.order}, got {len(start)}"
            )
        state = list(start)
        for step in range(1, bound + 1):
            state.append(self.next_digit(state))
            state.pop(0)
            if tuple(state) == start:
                return step
        raise InvalidParameterError(
            f"period exceeds search limit {bound}; the recurrence may not be purely periodic"
        )


class LinearRecurrence(AffineRecurrence):
    """The plain linear recurrence of the paper's equation (3.1) (zero constant)."""

    def __init__(self, field: GaloisField, coeffs: Sequence[int]) -> None:
        super().__init__(field, tuple(coeffs), field.zero)


def default_maximal_cycle_recurrence(d: int, n: int) -> LinearRecurrence:
    """Return the canonical maximal-cycle recurrence for ``B(d, n)``.

    Deterministically picks the lexicographically smallest primitive
    polynomial of degree ``n`` over ``GF(d)`` so that every component of the
    library (disjoint HCs, edge-fault embedding, benchmarks) agrees on the
    same maximal cycle.  The polynomial search is cached per ``(d, n)``
    (:func:`~repro.gf.primitive.primitive_polynomial_coefficients`).
    """
    return LinearRecurrence(GF(d), primitive_polynomial_coefficients(d, n))


def maximal_cycle(
    d: int,
    n: int,
    recurrence: LinearRecurrence | None = None,
    initial: Sequence[int] | None = None,
) -> list[int]:
    """Return a maximal cycle of ``B(d, n)`` as a circular digit sequence.

    The result is the list ``[c_0, c_1, ..., c_{d^n - 2}]`` of length
    ``d**n - 1``; consecutive windows of ``n`` digits (wrapping around) are
    exactly the nodes of ``B(d, n)`` other than ``0^n``, each visited once.

    Parameters
    ----------
    d:
        Alphabet size; must be a prime power.
    n:
        Word length / recurrence order.
    recurrence:
        Optional recurrence to use; must have a primitive characteristic
        polynomial.  Defaults to :func:`default_maximal_cycle_recurrence`.
    initial:
        Optional nonzero initial state; defaults to ``(0, ..., 0, 1)``.
    """
    if recurrence is None:
        recurrence = default_maximal_cycle_recurrence(d, n)
    else:
        if recurrence.field.order != d or recurrence.order != n:
            raise InvalidParameterError(
                "recurrence does not match the requested B(d, n) parameters"
            )
        if recurrence.constant != recurrence.field.zero:
            raise InvalidParameterError("maximal cycles require a linear (not affine) recurrence")
        if not is_primitive(recurrence.characteristic_polynomial()):
            raise InvalidParameterError(
                "maximal cycles require a primitive characteristic polynomial"
            )
    if initial is None:
        initial = (0,) * (n - 1) + (1,)
    if all(c == 0 for c in initial):
        raise InvalidParameterError("maximal cycles require a nonzero initial state")
    return recurrence.sequence(initial, d**n - 1)


def shifted_cycle(cycle: Sequence[int], s: int, field: GaloisField) -> list[int]:
    """Return the termwise field shift ``s + C`` of a circular sequence.

    By Lemma 3.1 the shift of a cycle is again a cycle; by Lemma 3.3 the
    shifts of a maximal cycle by distinct field elements are pairwise
    edge-disjoint.
    """
    field._check(s)
    return [field.add(s, c) for c in cycle]


def sequence_period(seq: Sequence[int]) -> int:
    """Return the period of a finite circular sequence (least rotation fixing it)."""
    n = len(seq)
    if n == 0:
        raise InvalidParameterError("empty sequences have no period")
    seq = tuple(seq)
    for t in range(1, n + 1):
        if n % t == 0 and seq[t:] + seq[:t] == seq:
            return t
    return n  # pragma: no cover
