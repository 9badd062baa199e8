"""Dense polynomials in one variable, as coefficient lists.

A polynomial is a list [c_0, c_1, ..., c_n], low degree first.  Every
function takes the coefficient ring as `p`: None for Z or QQ (ints or
Fractions; `monic` and `quo` divide, so their results are Fractions), or a
prime p for F_p, where inputs may be any ints and outputs are reduced into
[0, p).  With p = None, `gcd` stays fraction-free: it clears denominators
(`cleared`) and runs a primitive remainder sequence over Z on
`pseudo_rem`, so its result is a primitive integer list.  `lincomb`,
`derivative`, `pseudo_rem` and `gcd` trim their results (no zero top
coefficient, so [] is zero).  `mulmod` does not: a bare product keeps the
length len(a) + len(b) - 1 that a product of binary forms needs when a
root sits at (0:1) or (1:0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional


def _inverse(c, p: Optional[int]):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def trim(a: list) -> list:
    """Drop a's zero top coefficients, in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def mulmod(a, b, m: Optional[list] = None, p: Optional[int] = None) -> list:
    """a * b, reduced by the monic m when one is given (to length deg m at
    most), and mod p once at the end."""
    if len(a) == 1:
        c = a[0]
        out = [c * v for v in b]
    else:
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for k, v in enumerate(b):
                    out[i + k] += u * v
    if m is not None:
        n = len(m) - 1
        while len(out) > n:
            q = out.pop() % p if p else out.pop()
            if q:
                k = len(out) - n
                for i in range(n):
                    out[k + i] -= q * m[i]
    return [v % p for v in out] if p else out


def monic(a: list, p: Optional[int] = None) -> list:
    """a divided by its top coefficient; a trimmed and nonzero."""
    inv = _inverse(a[-1], p)
    if p:
        return [c * inv % p for c in a]
    return [c * inv for c in a]


def lincomb(terms: Iterable, p: Optional[int] = None) -> list:
    """The sum of c * a over the pairs (c, a) of terms, trimmed."""
    out = []
    for c, a in terms:
        if c:
            out += [0] * (len(a) - len(out))
            for i, v in enumerate(a):
                out[i] += c * v
    return trim([v % p for v in out] if p else out)


def derivative(a: list, p: Optional[int] = None) -> list:
    """d/dt of a, trimmed: [] for a constant, and in characteristic p for
    every polynomial in t^p."""
    out = [i * c for i, c in enumerate(a)][1:]
    return trim([v % p for v in out] if p else out)


def quo(a: list, b: list, p: Optional[int] = None) -> list:
    """a / b for a trimmed b that divides a."""
    a = list(a)
    top = len(b) - 1
    inv = _inverse(b[top], p)
    out = [0] * (len(a) - top)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + top] * inv
        out[k] = c = c % p if p else c
        for i in range(top):
            a[k + i] -= c * b[i]
    return out


def cleared(*polys) -> list:
    """The lists, each times the lcm L of all their denominators, as ints
    (numerator * (L // denominator), never a truncating int())."""
    den = math.lcm(*(c.denominator for a in polys for c in a))
    return [[c.numerator * (den // c.denominator) for c in a] for a in polys]


def primitive(*polys) -> list:
    """The integer lists, trimmed, each divided by the gcd of all their
    entries together (their joint content)."""
    g = math.gcd(*(c for a in polys for c in a))
    return [trim([c // g for c in a] if g > 1 else list(a)) for a in polys]


def pseudo_rem(polys, m: list) -> list:
    """Each integer list of polys times lc(m)^s, reduced mod m, trimmed;
    all by the same s = max(0, max len - deg m) pseudo-division steps over
    Z, so the lists keep their ratios.  m is a trimmed nonzero int list."""
    n = len(m) - 1
    lc = m[-1]
    size = max(map(len, polys), default=0)
    out = []
    for a in polys:
        a = list(a) + [0] * (size - len(a))
        while len(a) > n:
            q = a.pop()
            if lc != 1:
                a = [lc * c for c in a]
            if q:
                k = len(a) - n
                for i in range(n):
                    a[k + i] -= q * m[i]
        out.append(trim(a))
    return out


def gcd(a: list, b: list, p: Optional[int] = None) -> list:
    """A gcd of a and b, not made monic; trimmed, so [] for gcd(0, 0) and
    length 1 for a unit.  Over F_p by Euclid; with p = None by the
    primitive remainder sequence over Z (Collins, J. ACM 14, 1967), whose
    remainders are primitive pseudo-remainders, so the result is a
    primitive integer list."""
    if p is None:
        a, b = (primitive(c)[0] for c in cleared(a, b))
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, primitive(*pseudo_rem([a], b))[0]
        return a
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        n = len(b) - 1
        while len(a) > n:
            q = a.pop() * inv
            shift = len(a) - n
            a[shift:] = [(x - q * y) % p for x, y in zip(a[shift:], b)]
            trim(a)
        a, b = b, a
    return a


def evaluate(a, x, p: Optional[int] = None):
    """a(x) by Horner."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
        if p:
            acc %= p
    return acc
