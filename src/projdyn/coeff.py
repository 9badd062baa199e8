"""Exact coefficient arithmetic: the rationals and odd prime fields.

Field objects carry the operations; values themselves stay plain
(`fractions.Fraction` over QQ, `int` in [0, p) over F_p) so inner loops do not
pay for a wrapper class.  Text form of a field is ``QQ`` or ``Fp:<prime>``.

Also home to the stream of primes used by the modular resultant strategy.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional, Union

from .errors import InvalidInputError

Value = Union[Fraction, int]

# Fixed working prime for modular runs (62-bit).  2**62 - 57.
DEFAULT_MODULAR_PRIME = 4611686018427387847

# Documented bounds for random_element over QQ: numerator in [-RAND_NUM_BOUND,
# RAND_NUM_BOUND], denominator in [1, RAND_DEN_BOUND] before reduction.
RAND_NUM_BOUND = 100
RAND_DEN_BOUND = 100

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field QQ.  Values are Fraction (lowest terms, positive denominator)."""

    kind = "rationals"
    characteristic: Optional[int] = None

    def spec(self) -> str:
        return "QQ"

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise InvalidInputError(f"cannot coerce {x!r} into QQ")

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0 in QQ")
        return a / b

    def pw(self, a, e: int):
        return a ** e

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng: Random) -> Fraction:
        return Fraction(rng.randint(-RAND_NUM_BOUND, RAND_NUM_BOUND),
                        rng.randint(1, RAND_DEN_BOUND))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Moduli that is_prime has proven, so that building a field over one again
# skips Miller-Rabin; a composite is tested (and rejected) on every call.
_PROVEN_PRIMES: set[int] = set()


class PrimeField:
    """F_p for an odd prime p >= 3.  Values are int in [0, p)."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or (p not in _PROVEN_PRIMES and not is_prime(p)):
            raise InvalidInputError(f"prime field modulus must be an odd prime >= 3, got {p}")
        _PROVEN_PRIMES.add(p)
        self.p = p
        self.characteristic = p

    def spec(self) -> str:
        return f"Fp:{self.p}"

    def coerce(self, x) -> int:
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, -1, p) % p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise InvalidInputError(f"cannot coerce {x!r} into F_{p}")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        # pow(0, -1, p) would raise ValueError; callers read ZeroDivisionError
        # (from here or from coerce) as a vanishing denominator, i.e. a bad prime
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pw(self, a, e: int):
        return pow(a, e, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def random(self, rng: Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(spec: str) -> Field:
    """Parse ``QQ`` or ``Fp:<prime>``."""
    s = spec.strip()
    if s == "QQ":
        return QQ
    if s.startswith("Fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise InvalidInputError(f"bad prime in field spec {spec!r}")
        return PrimeField(p)
    raise InvalidInputError(f"unrecognized field spec {spec!r} (want 'QQ' or 'Fp:<prime>')")


def random_element(field: Field, rng: Random) -> Value:
    """Seeded random field element; bounds documented at module top for QQ."""
    return field.random(rng)


# Every prime internal_primes yields lies below this bound, so that products
# of two residues stay inside int64 for the vectorized resultant kernel.
_INTERNAL_PRIME_BOUND = 1 << 28

# The primes below _INTERNAL_PRIME_BOUND in descending order, as far as any
# stream has drawn them; every stream reads and extends the one list.
_INTERNAL_PRIMES: list[int] = []


def internal_primes():
    """Deterministic descending stream of the primes below
    _INTERNAL_PRIME_BOUND, used by the modular-interpolation strategy.

    Primes found once are not searched for again.
    """
    found = _INTERNAL_PRIMES
    i = 0
    while True:
        if i == len(found):
            c = (found[-1] if found else _INTERNAL_PRIME_BOUND) - 1
            if c % 2 == 0:
                c -= 1
            while c > 3 and not is_prime(c):
                c -= 2
            if c <= 3:
                return
            found.append(c)
            _PROVEN_PRIMES.add(c)
        yield found[i]
        i += 1
