"""The coefficient-list kernel against schoolbook arithmetic in the field
objects of `coeff`, which share no code with it."""
import math
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


def rand_int(rng, length, height=99):
    return [rng.randint(-height, height) for _ in range(length)]


def test_pseudo_rem_is_a_scaled_remainder():
    # each list times lc(m)^s, s the common step count, is the remainder
    # of long division over QQ scaled by lc(m)^s
    rng = Random(2931)
    steps = set()
    for _ in range(200):
        m = upoly.trim(rand_int(rng, rng.randint(1, 5)))
        if not m:
            continue
        polys = [rand_int(rng, rng.randint(0, 9), 2 ** rng.choice((4, 40)))
                 for _ in range(rng.randint(1, 3))]
        s = max(0, max(map(len, polys)) - (len(m) - 1))
        steps.add(s)
        got = upoly.pseudo_rem(polys, m)
        assert len(got) == len(polys)
        for a, r in zip(polys, got):
            rem = long_division(QQ, [Fraction(c) for c in a], m)[1]
            assert r == trimmed(QQ, [m[-1] ** s * c for c in rem])
            assert all(isinstance(c, int) for c in r) and len(r) < len(m)
    assert {0, 1} < steps and max(steps) >= 8


def test_cleared_and_primitive():
    assert upoly.cleared([Fraction(1, 2), 3], [Fraction(-5, 3)]) == [[3, 18], [-10]]
    assert upoly.cleared([2, 0, -4]) == [[2, 0, -4]]
    assert upoly.primitive([6, -9, 0, 0]) == [[2, -3]]
    assert upoly.primitive([0, 0]) == [[]]
    assert upoly.primitive([4, 0], [6, 10]) == [[2], [3, 5]]  # joint content


def _with_factor(rng, g):
    return upoly.mulmod(g, upoly.trim(rand_int(rng, rng.randint(1, 5))) or [1])


def test_integer_gcd_degree_against_sympy_and_a_good_prime():
    # the primitive remainder sequence over Z has the gcd's degree over QQ:
    # sympy's, and the F_p gcd's at a prime dividing neither leading
    # coefficient nor the PRS's content (a good prime); its result is
    # primitive and divides both inputs
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = Random(2932)
    p = DEFAULT_MODULAR_PRIME
    degrees = set()
    for _ in range(120):
        g = upoly.trim(rand_int(rng, rng.randint(1, 4), 2 ** rng.choice((3, 40))))
        if not g:
            continue
        a, b = _with_factor(rng, g), _with_factor(rng, g)
        h = upoly.gcd(a, b)
        expect = sympy.gcd(sympy.Poly(a[::-1], t), sympy.Poly(b[::-1], t))
        assert len(h) - 1 == expect.degree()
        assert len(h) == len(upoly.gcd(a, b, p))
        assert all(isinstance(c, int) for c in h) and math.gcd(*h) == 1
        for f in (a, b):
            assert not trimmed(QQ, long_division(QQ, [Fraction(c) for c in f], h)[1])
        degrees.add(len(h) - 1)
    assert {0, 1, 2, 3} <= degrees
    assert upoly.gcd([], []) == [] and upoly.gcd([0, 6], []) == [0, 1]
    # Fractions in, a primitive integer gcd out: (t - 1/2) and (t^2 - 1/4)
    assert upoly.gcd([Fraction(-1, 2), 1], [Fraction(-1, 4), 0, 1]) in ([-1, 2], [1, -2])
