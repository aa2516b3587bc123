"""Finite field arithmetic tables.

Oracles: the field axioms checked exhaustively for every supported size,
Fermat's little theorem, cyclicity of the multiplicative group, and
sympy's GF(p) polynomial product reduced mod the same modulus.
"""

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_rem

from quandles.fields import IRREDUCIBLE_MODULI, FiniteField, FiniteFieldSpec

SMALL_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49]


@pytest.mark.parametrize("q", SMALL_SIZES)
def test_field_axioms_exhaustive(q):
    f = FiniteField.of(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, f.embed(1)) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == f.embed(1)
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_SIZES)
def test_frobenius_fixed_points(q):
    """a^q == a for all a, and a^p == a exactly on the prime subfield."""
    f = FiniteField.of(q)

    def power(a, n):
        out = f.embed(1)
        for _ in range(n):
            out = f.mul(out, a)
        return out

    for a in range(q):
        assert power(a, q) == a
    fixed = [a for a in range(q) if power(a, f.p) == a]
    assert len(fixed) == f.p


def element_order(f: FiniteField, a: int) -> int:
    n, x = 1, a
    while x != 1:
        x = f.mul(x, a)
        n += 1
    return n


@pytest.mark.parametrize("q", SMALL_SIZES)
def test_multiplicative_group_cyclic(q):
    f = FiniteField.of(q)
    orders = {element_order(f, a) for a in range(1, q)}
    assert max(orders) == q - 1  # a generator exists
    for n in orders:
        assert (q - 1) % n == 0


@pytest.mark.parametrize("p,d", sorted(IRREDUCIBLE_MODULI))
def test_mul_matches_sympy_polynomials(p, d):
    """Element a is the polynomial with base-p digits of a as coefficients,
    constant term first; a*b is sympy's product reduced mod the modulus."""
    f = FiniteField(FiniteFieldSpec(p, d))
    modulus = list(reversed(IRREDUCIBLE_MODULI[(p, d)]))
    # galoistools lists coefficients leading term first
    polys = [[a // p**i % p for i in reversed(range(d))] for a in range(p**d)]
    for a, pa in enumerate(polys):
        for b, pb in enumerate(polys):
            code = 0
            for c in gf_rem(gf_mul(pa, pb, p, ZZ), modulus, p, ZZ):
                code = code * p + int(c)
            assert f.mul(a, b) == code


def test_gf4_known_multiplication():
    """GF(4) = F2[x]/(x^2+x+1): with elements 0,1,x,x+1 packed as 0,1,2,3."""
    f = FiniteField.of(4)
    assert f.mul(2, 2) == 3  # x * x = x + 1
    assert f.mul(2, 3) == 1  # x * (x+1) = x^2 + x = 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


def test_gf9_characteristic():
    f = FiniteField.of(9)
    three = f.add(f.embed(1), f.add(f.embed(1), f.embed(1)))
    assert three == 0
    assert f.p == 3 and f.d == 2


def test_rejects_non_prime_power():
    with pytest.raises(ValueError):
        FiniteField.of(6)
    with pytest.raises(ValueError):
        FiniteField.of(12)
    with pytest.raises(ValueError):
        FiniteFieldSpec(4, 1)  # 4 is not prime


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteFieldSpec(2, 2, (1, 1))  # not degree d+1


def test_reducible_modulus_rejected():
    # F_2[x]/(x^2 + 1) has the zero divisor (x + 1)^2 = 0
    with pytest.raises(ValueError, match=r"modulus \(1, 0, 1\) is reducible"):
        FiniteField(FiniteFieldSpec(2, 2, (1, 0, 1)))


def test_spec_of_prime_power():
    spec = FiniteFieldSpec.of(27)
    assert (spec.p, spec.d, spec.q) == (3, 3, 27)
