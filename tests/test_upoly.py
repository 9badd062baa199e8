"""The coefficient-list kernel against schoolbook arithmetic in the field
objects of `coeff`, which share no code with it."""
from fractions import Fraction
from random import Random

import pytest

from projdyn import upoly
from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ

FIELDS = [QQ, GF(7), GF(10007), GF(DEFAULT_MODULAR_PRIME)]
IDS = ["QQ", "GF7", "GF10007", "GF62bit"]


def rand(fld, rng, length):
    if fld == QQ:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]
    return [fld.random(rng) for _ in range(length)]


def trimmed(fld, a):
    a = list(a)
    while a and fld.is_zero(a[-1]):
        a.pop()
    return a


def schoolbook(fld, a, b):
    out = [fld.zero()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fld.add(out[i + j], fld.mul(x, y))
    return out


def long_division(fld, a, m):
    """(quotient, remainder) of a by a nonzero trimmed m."""
    rem = list(a)
    quo = [fld.zero()] * max(len(a) - len(m) + 1, 0)
    while len(rem) >= len(m):
        q = fld.div(rem[-1], m[-1])
        k = len(rem) - len(m)
        quo[k] = q
        for i, c in enumerate(m):
            rem[k + i] = fld.sub(rem[k + i], fld.mul(q, c))
        rem.pop()
    return quo, rem


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_mulmod_is_a_product_then_a_remainder(fld):
    rng = Random(1717)
    p = fld.characteristic
    reduced = 0
    for _ in range(200):
        a, b = rand(fld, rng, rng.randint(0, 6)), rand(fld, rng, rng.randint(0, 6))
        product = schoolbook(fld, a, b)
        assert upoly.mulmod(a, b, p=p) == product
        m = trimmed(fld, rand(fld, rng, rng.randint(1, 5)))
        if not m:
            continue
        got = upoly.mulmod(a, b, upoly.monic(m, p), p)
        assert len(got) <= len(m) - 1
        assert trimmed(fld, got) == trimmed(fld, long_division(fld, product, m)[1])
        reduced += len(product) >= len(m)
    assert reduced > 50


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_quo_inverts_the_product_and_gcd_divides_both(fld):
    rng = Random(1718)
    p = fld.characteristic
    for _ in range(100):
        a = trimmed(fld, rand(fld, rng, rng.randint(0, 5)))
        b = trimmed(fld, rand(fld, rng, rng.randint(1, 5)))
        if not b:
            continue
        assert upoly.quo(schoolbook(fld, a, b), b, p) == a
        g = trimmed(fld, rand(fld, rng, rng.randint(1, 3)))
        if not g:
            continue
        x, y = schoolbook(fld, a, g), schoolbook(fld, b, g)
        h = upoly.gcd(x, y, p)
        assert len(h) >= len(g)
        for f in (x, y):  # h divides both: long division leaves no remainder
            assert not trimmed(fld, long_division(fld, trimmed(fld, f), h)[1])


def test_derivative_and_trailing_zeros():
    assert upoly.derivative([3, 0, 0, 0, 0, 0, 0, 1], 7) == []  # x^7 + 3
    assert upoly.derivative([3, 0, 0, 0, 0, 0, 0, 1]) == [0] * 6 + [7]
    assert upoly.derivative([5, 2, 1], 7) == [2, 2]
    assert upoly.derivative([5]) == []
    # a bare product keeps its zero top coefficients: the Vieta product of
    # the roots (0:1) and (1:0) is x*y, chart coefficients (0, 1, 0)
    assert upoly.mulmod([1, 0], [0, -1], p=7) == [0, 6, 0]
    assert upoly.mulmod([0, 0], [0]) == [0, 0]
    assert upoly.lincomb([(2, [1, 3]), (1, [5, 1, 0])], 7) == []
    assert upoly.lincomb([(1, [1, 3, 5]), (-1, [0, 0, 5])]) == [1, 3]


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_evaluate_and_lincomb_against_the_field(fld):
    rng = Random(1719)
    p = fld.characteristic
    for _ in range(50):
        a, b = rand(fld, rng, rng.randint(0, 6)), rand(fld, rng, rng.randint(0, 6))
        x, c = rand(fld, rng, 2)
        value = fld.zero()
        for i, v in enumerate(a):
            value = fld.add(value, fld.mul(v, fld.pw(x, i)))
        assert upoly.evaluate(a, x, p) == value
        total = [fld.zero()] * max(len(a), len(b))
        for i, v in enumerate(a):
            total[i] = fld.add(total[i], fld.mul(c, v))
        for i, v in enumerate(b):
            total[i] = fld.sub(total[i], v)
        assert upoly.lincomb([(c, a), (-1, b)], p) == trimmed(fld, total)
