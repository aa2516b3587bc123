"""Arithmetic for small finite fields F_q with q = p^d <= 121.

Field elements are integers 0..q-1 encoding polynomial coefficient vectors
in base p, least significant digit first: the integer sum(c_i * p^i)
stands for c_0 + c_1*x + ... + c_{d-1}*x^{d-1} modulo a fixed irreducible
monic polynomial.  The modulus for each (p, d) is shipped below (the
lexicographically least irreducible choice), so element encodings are
stable across runs and machines.

F_q is its add, mul and neg tables, built once over the coefficient rows
of the mixed-radix codec (digit_rows / codes) that the module arrays of
`families` and `adjoint` use too.  The mul table comes from the companion
matrix C of the frozen modulus: multiplying by a is sum_i a_i C^i acting
on coefficient vectors mod p.  The zero-divisor check and the inverses
are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# (p, d) -> monic modulus coefficients (c0, c1, ..., c_d), c_d = 1.
IRREDUCIBLE_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (5, 2): (1, 1, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
}

_MAX_Q = 121


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class FiniteFieldSpec:
    """Prime p, degree d and the modulus polynomial defining F_{p^d}."""

    p: int
    d: int
    modulus: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if self.q > _MAX_Q:
            raise ValueError(f"field size {self.q} exceeds supported bound {_MAX_Q}")
        if not self.modulus:
            if self.d == 1:
                object.__setattr__(self, "modulus", (0, 1))
            else:
                object.__setattr__(self, "modulus", IRREDUCIBLE_MODULI[(self.p, self.d)])
        if len(self.modulus) != self.d + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")

    @property
    def q(self) -> int:
        return self.p**self.d

    @classmethod
    def of(cls, q: int) -> "FiniteFieldSpec":
        """Spec for the field of order q (q a prime power <= 121)."""
        for p in range(2, q + 1):
            if _is_prime(p) and q % p == 0:
                d = 0
                m = q
                while m % p == 0:
                    m //= p
                    d += 1
                if m != 1:
                    raise ValueError(f"{q} is not a prime power")
                return cls(p, d)
        raise ValueError(f"{q} is not a prime power")


def digit_rows(count: int, radices) -> np.ndarray:
    """The mixed-radix digits of the codes 0..count-1, one row per code,
    first digit least significant."""
    place = np.cumprod((1, *radices), dtype=np.int64)[:-1]
    return np.arange(count, dtype=np.int64)[:, None] // place % np.array(radices, dtype=np.int64)


def codes(digits: np.ndarray, radices) -> np.ndarray:
    """Mixed-radix codes of digit rows (last axis), each digit reduced first."""
    place = np.cumprod((1, *radices), dtype=np.int64)[:-1]
    return (digits % np.array(radices, dtype=np.int64) * place).sum(axis=-1)


class FiniteField:
    """F_{p^d} as int64 arrays: add_table and mul_table (q x q), neg_table
    and inv_table (q).  The scalar methods read them and return Python ints.
    """

    def __init__(self, spec: FiniteFieldSpec):
        self.spec = spec
        p, d, q = self.p, self.d, self.q = spec.p, spec.d, spec.q
        radices = (p,) * d
        rows = digit_rows(q, radices)
        self.add_table = codes(rows[:, None] + rows[None, :], radices)
        self.neg_table = codes(-rows, radices)
        # C maps the coefficients of b to those of x*b: shift up, reduce x^d
        companion = np.eye(d, k=-1, dtype=np.int64)
        companion[:, -1] = -np.array(spec.modulus[:-1]) % p
        powers = [np.eye(d, dtype=np.int64)]
        for _ in range(d - 1):
            powers.append(companion @ powers[-1] % p)
        times = np.einsum("ai,ijk->ajk", rows, np.array(powers))
        self.mul_table = codes(np.einsum("ajk,bk->abj", times, rows), radices)
        # the quotient ring is a field iff there are no zero divisors
        if not self.mul_table[1:, 1:].all():
            raise ValueError(f"modulus {spec.modulus} is reducible over F_{p}")
        self.inv_table = np.argmax(self.mul_table == 1, axis=1)

    @classmethod
    def of(cls, q) -> "FiniteField":
        if isinstance(q, FiniteFieldSpec):
            return cls(q)
        return cls(FiniteFieldSpec.of(q))

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_table[a])

    def embed(self, k: int) -> int:
        """Image of the integer k in the prime subfield."""
        return k % self.p

    def __repr__(self):
        return f"FiniteField(q={self.q})"
