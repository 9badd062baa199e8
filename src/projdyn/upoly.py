"""Dense polynomials in one variable, as coefficient lists.

A polynomial is a list [c_0, c_1, ..., c_n], low degree first.  Every
function takes the coefficient ring as `p`: None for Z or QQ (ints or
Fractions; `monic`, `quo` and `gcd` divide, so their results are
Fractions), or a prime p for F_p, where inputs may be any ints and outputs
are reduced into [0, p).  `lincomb`, `derivative` and `gcd` trim their
results (no zero top coefficient, so [] is zero).  `mulmod` does not: a
bare product keeps the length len(a) + len(b) - 1 that a product of binary
forms needs when a root sits at (0:1) or (1:0).
"""

from __future__ import annotations

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


def gcd(a: list, b: list, p: Optional[int] = None) -> list:
    """A gcd of a and b by Euclid over the field, not made monic; trimmed,
    so [] for gcd(0, 0) and length 1 for a unit."""
    if p:
        a, b = [c % p for c in a], [c % p for c in b]
    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = _inverse(b[-1], p)
        n = len(b) - 1
        while len(a) > n:
            q = a.pop() * inv
            shift = len(a) - n
            if p:
                a[shift:] = [(x - q * y) % p for x, y in zip(a[shift:], b)]
            else:
                a[shift:] = [x - q * y for x, y in zip(a[shift:], b)]
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
