"""Galois fields ``GF(q)`` for prime powers ``q = p**e``.

Section 3.1 of the paper assumes "``d`` is a prime power ``p**e`` and
``A = GF(d)``": the maximal cycles that seed the disjoint-Hamiltonian-cycle
construction are linear recurrences over the *field* with ``d`` elements, not
the ring ``Z_d``.  This module provides exact field arithmetic for both the
prime case (``e = 1``) and the extension case (``e > 1``).

Elements are represented as plain Python ints in ``range(q)``:

* in a :class:`PrimeField` the int *is* the residue modulo ``p``;
* in an :class:`ExtensionField` the int encodes the coefficient vector of the
  element (as a polynomial in the generator ``x`` modulo an irreducible
  polynomial), base ``p`` with the constant coefficient least significant.
  Addition is therefore digit-wise addition mod ``p`` and multiplication is
  polynomial multiplication reduced modulo the field's modulus polynomial.

This integer encoding doubles as the mapping "GF(d) -> Z_d" required by
Section 3.2.2 ("the cycles of the previous section can be readily mapped to
this representation using any one-to-one mapping of the elements of GF(d) to
Z_d"): the identity map on ``range(q)`` is exactly such a bijection.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ..engine.caches import register_cache
from ..exceptions import InvalidParameterError, NotPrimePowerError
from .modular import as_prime_power, prime_factorization, primitive_root

__all__ = ["GaloisField", "PrimeField", "ExtensionField", "GF"]


class GaloisField:
    """Abstract interface shared by :class:`PrimeField` and :class:`ExtensionField`.

    All operations take and return ints in ``range(self.order)``.
    """

    #: additive identity (always the integer 0)
    zero: int = 0
    #: multiplicative identity (always the integer 1)
    one: int = 1

    def __init__(self, p: int, e: int) -> None:
        self.characteristic = p
        self.degree = e
        self.order = p**e

    # -- arithmetic interface (implemented by subclasses) ------------------
    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    # -- derived operations -------------------------------------------------
    def sub(self, a: int, b: int) -> int:
        """Return ``a - b``."""
        return self.add(a, self.neg(b))

    def div(self, a: int, b: int) -> int:
        """Return ``a / b``; raises on division by zero."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        """Return ``a**k`` (``k`` may be negative for invertible ``a``)."""
        self._check(a)
        if k < 0:
            a = self.inv(a)
            k = -k
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def sum(self, values) -> int:
        """Return the field sum of an iterable of elements."""
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total

    def dot(self, left, right) -> int:
        """Return the field inner product ``sum(l_i * r_i)`` of two sequences."""
        total = self.zero
        for a, b in zip(left, right):
            total = self.add(total, self.mul(a, b))
        return total

    # -- structure ------------------------------------------------------------
    @property
    def elements(self) -> range:
        """All field elements as the range ``0..q-1``."""
        return range(self.order)

    def multiplicative_order(self, a: int) -> int:
        """Return the order of ``a`` in the multiplicative group ``GF(q)*``."""
        self._check(a)
        if a == self.zero:
            raise InvalidParameterError("zero has no multiplicative order")
        group = self.order - 1
        order = group
        for prime, exponent in prime_factorization(group):
            for _ in range(exponent):
                if self.pow(a, order // prime) == self.one:
                    order //= prime
                else:
                    break
        return order

    def generator(self) -> int:
        """Return a primitive element (generator of the multiplicative group)."""
        for candidate in range(2, self.order):
            if self.multiplicative_order(candidate) == self.order - 1:
                return candidate
        return self.one if self.order == 2 else self.zero  # pragma: no cover

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise InvalidParameterError(
                f"{a} is not an element of GF({self.order})"
            )
        return a

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(GF({self.order}))"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaloisField):
            return NotImplemented
        return (
            self.order == other.order
            and getattr(self, "modulus", None) == getattr(other, "modulus", None)
        )

    def __hash__(self) -> int:
        return hash((self.order, getattr(self, "modulus", None)))


class PrimeField(GaloisField):
    """The prime field ``GF(p) = Z_p``."""

    def __init__(self, p: int) -> None:
        factors = prime_factorization(p)
        if len(factors) != 1 or factors[0][1] != 1:
            raise NotPrimePowerError(f"{p} is not prime")
        super().__init__(p, 1)

    def add(self, a: int, b: int) -> int:
        return (self._check(a) + self._check(b)) % self.order

    def neg(self, a: int) -> int:
        return (-self._check(a)) % self.order

    def mul(self, a: int, b: int) -> int:
        return (self._check(a) * self._check(b)) % self.order

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(a, self.order - 2, self.order)

    def generator(self) -> int:
        return primitive_root(self.order) if self.order > 2 else 1


class ExtensionField(GaloisField):
    """The extension field ``GF(p**e)`` for ``e >= 2``.

    Parameters
    ----------
    p, e:
        Characteristic and extension degree.
    modulus:
        Optional monic irreducible polynomial of degree ``e`` over ``Z_p``
        given as a tuple of coefficients, constant term first.  When omitted
        the lexicographically smallest monic irreducible polynomial is used,
        making field construction deterministic.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None) -> None:
        if e < 2:
            raise InvalidParameterError("ExtensionField requires degree >= 2; use PrimeField")
        factors = prime_factorization(p)
        if len(factors) != 1 or factors[0][1] != 1:
            raise NotPrimePowerError(f"characteristic {p} is not prime")
        super().__init__(p, e)
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise InvalidParameterError(
                f"modulus must be monic of degree {e}, got {modulus}"
            )
        if not _is_irreducible_mod_p(modulus, p):
            raise InvalidParameterError(f"modulus {modulus} is reducible over Z_{p}")
        self.modulus = modulus
        self._mul_table: dict[tuple[int, int], int] | None = (
            {} if self.order <= 256 else None
        )

    # -- encoding helpers ----------------------------------------------------
    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Return the coefficient vector of ``a`` (constant term first, length ``e``)."""
        self._check(a)
        p = self.characteristic
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(a % p)
            a //= p
        return tuple(coeffs)

    def from_coeffs(self, coeffs) -> int:
        """Return the element encoded by a coefficient vector (constant term first)."""
        p = self.characteristic
        value = 0
        for c in reversed(list(coeffs)):
            value = value * p + (int(c) % p)
        self._check(value)
        return value

    # -- arithmetic ------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        p = self.characteristic
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        return self.from_coeffs((x + y) % p for x, y in zip(ca, cb))

    def neg(self, a: int) -> int:
        p = self.characteristic
        return self.from_coeffs((-x) % p for x in self.to_coeffs(a))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self._mul_table is not None:
            key = (a, b) if a <= b else (b, a)
            cached = self._mul_table.get(key)
            if cached is not None:
                return cached
        result = self._mul_uncached(a, b)
        if self._mul_table is not None:
            self._mul_table[(a, b) if a <= b else (b, a)] = result
        return result

    def _mul_uncached(self, a: int, b: int) -> int:
        p = self.characteristic
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        reduced = _poly_mod(prod, list(self.modulus), p)
        reduced += [0] * (self.degree - len(reduced))
        return self.from_coeffs(reduced[: self.degree])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(p^e)")
        # a^(q-2) = a^{-1} in GF(q)
        return self.pow(a, self.order - 2)


@lru_cache(maxsize=64)
def GF(q: int, modulus: tuple[int, ...] | None = None) -> GaloisField:
    """Return the Galois field with ``q`` elements (cached factory).

    Raises
    ------
    NotPrimePowerError
        If ``q`` is not a prime power.
    """
    p, e = as_prime_power(q)
    if e == 1:
        if modulus is not None:
            raise InvalidParameterError("prime fields do not take a modulus")
        return PrimeField(p)
    return ExtensionField(p, e, modulus)


# ---------------------------------------------------------------------------
# Internal dense polynomial arithmetic over Z_p (constant term first).  These
# helpers only exist to bootstrap ExtensionField; user-facing polynomial
# arithmetic over arbitrary Galois fields lives in repro.gf.poly.
# ---------------------------------------------------------------------------

def _poly_trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Return ``num mod den`` with coefficients in ``Z_p`` (den monic)."""
    num = _poly_trim([c % p for c in num])
    den = _poly_trim([c % p for c in den])
    if not den:
        raise ZeroDivisionError("polynomial modulus is zero")
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) >= len(den):
        factor = num[-1] * inv_lead % p
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        _poly_trim(num)
        if not num:
            break
    return num


def _is_irreducible_mod_p(poly: tuple[int, ...], p: int) -> bool:
    """Test irreducibility of a monic polynomial over ``Z_p`` by trial division."""
    coeffs = _poly_trim([c % p for c in poly])
    degree = len(coeffs) - 1
    if degree <= 0:
        return False
    if degree == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    # trial division by every monic polynomial of degree 1..degree//2
    for low_deg in range(1, degree // 2 + 1):
        for tail in product(range(p), repeat=low_deg):
            candidate = list(tail) + [1]
            if not _poly_mod(list(coeffs), candidate, p):
                return False
    return True


@lru_cache(maxsize=64)
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Return the lexicographically smallest monic irreducible polynomial of degree ``e``."""
    for tail in product(range(p), repeat=e):
        candidate = tuple(tail) + (1,)
        if _is_irreducible_mod_p(candidate, p):
            return candidate
    raise InvalidParameterError(  # pragma: no cover - irreducibles always exist
        f"no irreducible polynomial of degree {e} over Z_{p}"
    )


# Audit registration (REP001): every lru_cache in a resident process must be
# visible to the engine's /stats cache audit — bounded is not enough if the
# operator cannot enumerate, snapshot and clear it.
register_cache("gf.GF", GF)
register_cache("gf.smallest_irreducible", _smallest_irreducible)
