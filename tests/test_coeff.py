"""Field layer: parsing, arithmetic invariants, internal primes."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from projdyn.coeff import (DEFAULT_MODULAR_PRIME, GF, QQ, internal_primes,
                           is_prime, parse_field, random_element)
from projdyn.errors import InvalidInputError

RNG_SEED = 20240816


def test_parse_field_round_trip():
    assert parse_field("QQ") is not None
    assert parse_field("QQ").spec() == "QQ"
    f = parse_field("Fp:65537")
    assert f.spec() == "Fp:65537"
    assert f.characteristic == 65537


def test_parse_field_rejects_bad_specs():
    for bad in ["Fp:4", "Fp:2", "Fp:1", "Fp:", "Fp:abc", "RR", "", "Fp:-7"]:
        with pytest.raises(InvalidInputError):
            parse_field(bad)


def test_default_prime_is_62_bit_prime():
    assert is_prime(DEFAULT_MODULAR_PRIME)
    assert DEFAULT_MODULAR_PRIME.bit_length() == 62


def test_rational_values_stay_normalized():
    v = QQ.coerce(Fraction(4, -6))
    assert v.numerator == -2 and v.denominator == 3
    assert QQ.add(Fraction(1, 2), Fraction(1, 2)) == 1


def test_prime_field_values_stay_reduced():
    f = GF(101)
    rng = Random(RNG_SEED)
    for _ in range(200):
        a, b = rng.randrange(101), rng.randrange(101)
        for v in (f.add(a, b), f.mul(a, b), f.sub(a, b), f.neg(a)):
            assert 0 <= v < 101
    assert f.mul(55, f.inv(55)) == 1
    # Fraction coercion goes through the inverse of the denominator
    assert f.coerce(Fraction(1, 2)) == f.inv(2)


@pytest.mark.parametrize("p", [101, DEFAULT_MODULAR_PRIME])
def test_prime_field_inverse_of_zero_is_a_zero_division(p):
    # a vanishing denominator marks a bad prime through ZeroDivisionError
    f = GF(p)
    for zero in (0, p, -2 * p):
        with pytest.raises(ZeroDivisionError):
            f.inv(zero)
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, p))
    assert f.inv(p - 1) == p - 1
    assert f.coerce(Fraction(3, p + 2)) == 3 * f.inv(2) % p


def test_field_axioms_seeded():
    rng = Random(RNG_SEED)
    for field in (QQ, GF(13), GF(DEFAULT_MODULAR_PRIME)):
        for _ in range(50):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one()


def test_random_element_documented_bounds_and_determinism():
    r1, r2 = Random(7), Random(7)
    xs = [random_element(QQ, r1) for _ in range(100)]
    ys = [random_element(QQ, r2) for _ in range(100)]
    assert xs == ys
    for x in xs:
        assert abs(x.numerator) <= 100 and 1 <= x.denominator <= 100
    f = GF(13)
    assert [random_element(f, Random(3)) for _ in range(20)] == \
           [random_element(f, Random(3)) for _ in range(20)]


def test_internal_primes_stream():
    ps = []
    for p in internal_primes():
        ps.append(p)
        if len(ps) == 5:
            break
    assert all(is_prime(p) and p < 2 ** 28 for p in ps)
    assert ps == sorted(ps, reverse=True)


def _counting_is_prime(monkeypatch):
    """Fresh prime memos, and a list that grows by one per is_prime call."""
    from projdyn import coeff
    calls = []
    real = coeff.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(coeff, "is_prime", counted)
    monkeypatch.setattr(coeff, "_PROVEN_PRIMES", set())
    monkeypatch.setattr(coeff, "_INTERNAL_PRIMES", [])
    return calls


def test_each_prime_field_modulus_is_proven_once(monkeypatch):
    calls = _counting_is_prime(monkeypatch)
    assert GF(DEFAULT_MODULAR_PRIME) == GF(DEFAULT_MODULAR_PRIME)
    assert calls == [DEFAULT_MODULAR_PRIME]
    for attempt in (1, 2):
        with pytest.raises(InvalidInputError):
            GF(15)
        assert calls.count(15) == attempt


def test_internal_primes_streams_share_one_search(monkeypatch):
    calls = _counting_is_prime(monkeypatch)
    a, b = internal_primes(), internal_primes()
    first = [(next(a), next(b)) for _ in range(8)]
    assert all(x == y for x, y in first)
    searched = len(calls)
    again = list(itertools.islice(internal_primes(), 8))
    assert again == [x for x, _ in first] and len(calls) == searched
    assert all(is_prime(p) and p < 2 ** 28 for p in again)
    assert again == sorted(again, reverse=True)
    # primes a stream found need no second proof to build their field
    GF(again[0])
    assert len(calls) == searched
