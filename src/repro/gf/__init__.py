"""Finite-field substrate: ``Z_p`` number theory, ``GF(p^e)`` arithmetic, LFSRs.

Chapter 3 of the paper builds its edge-fault-tolerant embeddings from maximal
(period ``d^n - 1``) linear-recurrence sequences over ``GF(d)``; this
subpackage provides everything needed to realise those constructions exactly:
prime/prime-power decomposition, primitive roots and the quadratic character
of 2 (Lemma 3.5), extension-field arithmetic, primitive-polynomial search and
shift-register sequence generation.

Symbols are loaded lazily (PEP 562), like the other package façades.
"""

from typing import Any

_LAZY = {
    "GF": "field",
    "ExtensionField": "field",
    "GaloisField": "field",
    "PrimeField": "field",
    "AffineRecurrence": "lfsr",
    "LinearRecurrence": "lfsr",
    "default_maximal_cycle_recurrence": "lfsr",
    "maximal_cycle": "lfsr",
    "sequence_period": "lfsr",
    "shifted_cycle": "lfsr",
    "as_prime_power": "modular",
    "divisors": "modular",
    "euler_phi": "modular",
    "is_prime": "modular",
    "is_prime_power": "modular",
    "is_primitive_root": "modular",
    "is_quadratic_residue": "modular",
    "legendre_symbol": "modular",
    "lemma_3_5_conditions": "modular",
    "mobius": "modular",
    "multiplicative_order": "modular",
    "prime_factorization": "modular",
    "prime_power_decomposition": "modular",
    "primitive_root": "modular",
    "primitive_roots": "modular",
    "two_as_odd_power": "modular",
    "two_as_odd_power_sum": "modular",
    "Poly": "poly",
    "find_irreducible": "primitive",
    "find_primitive_polynomial": "primitive",
    "is_irreducible": "primitive",
    "is_primitive": "primitive",
    "polynomial_order": "primitive",
    "primitive_polynomial_coefficients": "primitive",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
