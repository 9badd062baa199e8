"""Minimal GF(p^k) arithmetic for brute-force closure oracles (k <= 3).

Not a coefficient field for polynomials: projdyn's coeff module stays QQ /
F_p.  Resultant tests use this to enumerate projective points over
small extensions when checking vanishing statements against the closure.

Elements are exponent-ordered coefficient tuples of length k (constant term
first) modulo a fixed irreducible polynomial.
"""

from __future__ import annotations

from random import Random
from typing import Iterator, Sequence

from projdyn.coeff import PrimeField
from projdyn.errors import InvalidInputError

Element = tuple[int, ...]


class SmallExtField:
    def __init__(self, p: int, k: int, seed: int = 0):
        if k < 1 or k > 3:
            raise InvalidInputError("extension degree must be 1..3")
        self.base = PrimeField(p)
        self.p = p
        self.k = k
        self.modulus = self._find_irreducible(Random(seed)) if k > 1 else (0, 1)

    def _find_irreducible(self, rng: Random) -> tuple[int, ...]:
        # monic degree-k poly over F_p with no root: irreducible for k in {2,3}
        p, k = self.p, self.k
        while True:
            cand = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            if all(self._eval_base(cand, x) != 0 for x in range(p)):
                return cand

    def _eval_base(self, coeffs: Sequence[int], x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def zero(self) -> Element:
        return (0,) * self.k

    def one(self) -> Element:
        return (1,) + (0,) * (self.k - 1)

    def from_base(self, c: int) -> Element:
        return (c % self.p,) + (0,) * (self.k - 1)

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple(-x % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return tuple(prod[:k])

    def pw(self, a: Element, e: int) -> Element:
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: Element) -> Element:
        if a == self.zero():
            raise ZeroDivisionError("inverse of 0 in extension field")
        return self.pw(a, self.p ** self.k - 2)

    def is_zero(self, a: Element) -> bool:
        return all(x == 0 for x in a)

    def elements(self) -> Iterator[Element]:
        p, k = self.p, self.k
        idx = [0] * k
        while True:
            yield tuple(idx)
            i = 0
            while i < k:
                idx[i] += 1
                if idx[i] < p:
                    break
                idx[i] = 0
                i += 1
            if i == k:
                return


def projective_points(field: SmallExtField, n: int) -> Iterator[tuple[Element, ...]]:
    """Normalized points of P^n over the extension: last nonzero coordinate 1."""
    for last in range(n + 1):
        # coordinates after position `last` are 0, position `last` is 1
        free = list(field.elements())
        def rec(i: int, acc: list):
            if i == last:
                yield tuple(acc + [field.one()] + [field.zero()] * (n - last))
                return
            for e in free:
                yield from rec(i + 1, acc + [e])
        yield from rec(0, [])


def evaluate_poly(field: SmallExtField, poly, point: Sequence[Element]) -> Element:
    """Evaluate an F_p mpoly at an extension point (fields must share p)."""
    if poly.ring.field.characteristic != field.p:
        raise InvalidInputError("characteristic mismatch in extension evaluation")
    total = field.zero()
    for m, c in poly.terms.items():
        v = field.from_base(c)
        for i, e in enumerate(m):
            if e:
                v = field.mul(v, field.pw(point[i], e))
        total = field.add(total, v)
    return total
