"""Polynomial layer: arithmetic axioms, grammar round trip, gcd/squarefree,
determinants."""

from fractions import Fraction
from random import Random

import pytest

from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ, random_element
from projdyn.errors import (InvalidInputError, NotDivisibleError,
                            RingMismatchError, VerificationError)
from projdyn.mpoly import (NEG_INF, Polynomial, Ring, _exact_quotient,
                           content_primitive, determinant, divexact, embed,
                           equal_up_to_scalar, format_polynomial,
                           monomials_of_degree, parse_polynomial, poly_gcd,
                           primitive_part, squarefree_part)

RNG_SEED = 917

R3 = Ring(3, QQ)
R2 = Ring(2, QQ)


def P(text, ring=R3, **kw):
    return parse_polynomial(text, ring, **kw)


def random_poly(ring, rng, max_deg=3, nterms=5):
    out = ring.zero()
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        out = out + Polynomial(ring, {mono: ring.field.coerce(1)}).scale(
            random_element(ring.field, rng))
    return out


# -- parsing / printing -------------------------------------------------------

def test_parse_basics():
    p = P("2*x0^2*x1-1/2*x1^3+x2")
    assert p.coefficient((2, 1, 0)) == 2
    assert p.coefficient((0, 3, 0)) == Fraction(-1, 2)
    assert p.coefficient((0, 0, 1)) == 1


def test_aliases_normalize_on_output():
    assert format_polynomial(P("x+y+z")) == "x0+x1+x2"
    assert format_polynomial(P("x^2-y*z")) == "x0^2-x1*x2"


def test_inline_rational_division():
    assert P("x1/2") == P("1/2*x1")
    assert P("x0/2/3") == P("1/6*x0")
    assert P("3*x0/6") == P("1/2*x0")


def test_custom_aliases():
    ring = Ring(6, QQ)
    al = {"a": 3, "b": 4, "c": 5}
    p = parse_polynomial("a*x0+b*x1+c*x2", ring, aliases=al)
    assert p == parse_polynomial("x3*x0+x4*x1+x5*x2", ring)


def test_round_trip_bit_exact_seeded():
    rng = Random(RNG_SEED)
    for ring in (R3, Ring(2, GF(13)), Ring(4, QQ), Ring(1, QQ)):
        for _ in range(40):
            p = random_poly(ring, rng)
            s = format_polynomial(p)
            assert parse_polynomial(s, ring) == p
            assert format_polynomial(parse_polynomial(s, ring)) == s


def test_parse_rejects_garbage():
    for bad in ["", "x0*", "x0/", "*x0", "2**x0", "x0^", "x0^x1", "q0",
                "x0/x1", "x9", "x0 x1", "3x0", "x 0", "2^3", "x0^2^3",
                "x0*-x1", "1/0", "X0"]:
        with pytest.raises(InvalidInputError):
            P(bad)


def test_parse_takes_ascii_digits_only():
    # other decimal digits (Arabic-Indic, fullwidth) are characters outside
    # the grammar, as a coefficient, an index or an exponent
    for bad in ["\u0663*x0", "x\u0663", "x0^\u0663", "\uff13*x0", "x0+x\uff11"]:
        with pytest.raises(InvalidInputError, match="bad character"):
            P(bad)
    assert P("3*x0+x1^2") == P("x0+x0+x0+x1*x1")


def test_parse_coerces_each_term_as_it_ends():
    # 1/7 has no value mod 7, even though the two terms would cancel
    with pytest.raises(ZeroDivisionError):
        P("x0/7-x0/7", Ring(3, GF(7)))
    assert P("x0*7/7", Ring(3, GF(7))) == P("x0", Ring(3, GF(7)))


def test_parse_merges_repeated_monomials():
    assert P("x0+x0") == P("2*x0")
    assert P("x0-x0").is_zero()


def test_parse_seeded_texts_against_polynomial_arithmetic():
    # well-formed texts written alongside the polynomial they denote
    rng = Random(RNG_SEED)
    names = {"x0": 0, "x1": 1, "x2": 2, "x": 0, "y": 1, "z": 2}
    spaced = ["{}", " {}", "{} ", " {} "]
    for ring in (R3, Ring(3, GF(7))):
        gens = ring.gens()
        for _ in range(150):
            text, expect = "", ring.zero()
            terms = []
            for k in range(rng.randint(1, 5)):
                if terms and rng.random() < 0.3:  # a monomial seen before
                    body, value = rng.choice(terms)
                else:
                    body, value = "", ring.one()
                    for j in range(rng.randint(1, 4)):
                        if j and rng.random() < 0.3:
                            n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
                            body += rng.choice(spaced).format("/") + str(n)
                            value = value.scale(Fraction(1, n))
                            continue
                        if j:
                            body += rng.choice(spaced).format("*")
                        if rng.random() < 0.3:
                            n = rng.randint(0, 14)
                            body, value = body + str(n), value.scale(n)
                        else:
                            name = rng.choice(list(names))
                            e = rng.randint(0, 3)
                            body += name + (f"^{e}" if e != 1 or rng.random() < 0.3 else "")
                            value = value * gens[names[name]] ** e
                    terms.append((body, value))
                signs = rng.choice(["+", "-", "--", " + ", " - ", "-+-"] if k else
                                   ["", "", "-", "+", "- ", "+-"])
                text += rng.choice(spaced).format(signs) + body
                expect = expect + value if signs.count("-") % 2 == 0 else expect - value
            assert P(text, ring) == expect, text


# -- arithmetic ----------------------------------------------------------------

def test_ring_axioms_seeded():
    rng = Random(RNG_SEED)
    for ring in (R2, Ring(3, GF(11))):
        for _ in range(25):
            a, b, c = (random_poly(ring, rng, 2, 4) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == ring.zero()
            assert a * ring.one() == a


def test_pow_matches_repeated_mul():
    p = P("x0+2*x1-x2")
    q = p * p * p * p * p
    assert p ** 5 == q
    assert p ** 0 == R3.one()


def test_degree_and_homogeneity():
    assert P("x0^2*x1+x2^3").degree() == 3
    assert R3.zero().degree() == NEG_INF
    assert P("x0^2+x1*x2").is_homogeneous()
    assert not P("x0^2+x1").is_homogeneous()
    assert R3.zero().is_homogeneous()


def test_euler_identity_on_homogeneous_forms():
    rng = Random(RNG_SEED)
    for _ in range(20):
        d = rng.randint(1, 4)
        monos = monomials_of_degree(3, d)
        p = Polynomial(R3, {m: QQ.coerce(rng.randint(-5, 5)) for m in monos
                            if rng.random() < 0.7})
        p = Polynomial(R3, {m: c for m, c in p.terms.items() if c != 0})
        lhs = R3.zero()
        for v in range(3):
            lhs = lhs + R3.var(v) * p.derivative(v)
        assert lhs == p.scale(d)


def test_substitute_and_evaluate_agree():
    rng = Random(RNG_SEED)
    p = P("x0^2-3*x1*x2+x2^2")
    images = [P("x0+x1"), P("x1-x2"), P("x0*x2")]
    q = p.substitute(images)
    for _ in range(10):
        pt = [random_element(QQ, rng) for _ in range(3)]
        assert q.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])
    # terms that cancel across monomials, a constant term, a zero result;
    # no zero coefficient is stored
    xy = [P("x0+x1"), P("x0-x1"), P("x2")]
    assert P("x0^2-x1^2-x0*x1").substitute(xy) == P("4*x0*x1-x0^2+x1^2")
    assert P("x0*x1-x0^2+5").substitute(xy) == P("5-2*x0*x1-2*x1^2")
    assert P("x0*x1-x1^2-2*x0+4*x1").substitute([P("x0+x1"), P("x0+x1"), P("x2")]) \
        == P("2*x0+2*x1")
    assert P("x0-x1+x2-1").substitute([P("x2+1"), P("x2"), R3.zero()]).is_zero()
    f5 = Ring(2, GF(5))
    r = parse_polynomial("x0^2+x1^2+3", f5).substitute(
        [parse_polynomial("x0+2*x1", f5), parse_polynomial("2*x0-x1", f5)])
    assert r == parse_polynomial("3", f5)
    for out in (q, r):
        assert all(not out.ring.field.is_zero(c) for c in out.terms.values())


def test_substitute_ring_mismatch():
    with pytest.raises(RingMismatchError):
        P("x0").substitute([Ring(2, GF(5)).var(0), Ring(2, GF(5)).var(1),
                            Ring(2, GF(5)).var(0)])


def test_derivative_prime_field_drop():
    ring = Ring(1, GF(5))
    p = parse_polynomial("x0^5+x0^2", ring)
    assert p.derivative(0) == parse_polynomial("2*x0", ring)


# -- normalization ----------------------------------------------------------------

def test_content_primitive_examples():
    c, prim = content_primitive(P("4/3*x0-2/3*x1"))
    assert c == Fraction(2, 3)
    assert prim == P("2*x0-x1")
    c, prim = content_primitive(P("-x0-x1"))
    assert c == -1 and prim == P("x0+x1")
    c, prim = content_primitive(R3.zero())
    assert c == 0 and prim.is_zero()


def test_content_primitive_prime_field_monic():
    ring = Ring(2, GF(7))
    p = parse_polynomial("3*x0^2+5*x1^2", ring)
    c, prim = content_primitive(p)
    assert c == 3
    assert prim.leading()[1] == 1


def test_equal_up_to_scalar():
    assert equal_up_to_scalar(P("2*x0-2*x1"), P("-3*x0+3*x1"))
    assert not equal_up_to_scalar(P("x0"), P("x1"))
    assert equal_up_to_scalar(R3.zero(), R3.zero())
    assert not equal_up_to_scalar(R3.zero(), P("x0"))


# -- division, gcd, squarefree -----------------------------------------------------

def test_divexact_round_trip_seeded():
    rng = Random(RNG_SEED)
    for ring in (R2, Ring(3, GF(11))):
        for _ in range(20):
            a = random_poly(ring, rng, 2, 3)
            b = random_poly(ring, rng, 2, 3)
            if b.is_zero():
                continue
            assert divexact(a * b, b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(NotDivisibleError):
        divexact(P("x0^2+x1"), P("x0+x1"))


def test_gcd_known_factors():
    g = P("x0+x1")
    a = g * P("x0-x1")
    b = g * P("x0+2*x2")
    assert poly_gcd(a, b) == g
    # difference and square of the same binomial share one factor
    assert poly_gcd(P("x0^2-x1^2"), P("x0^2+2*x0*x1+x1^2")) == P("x0+x1")


def test_gcd_property_seeded():
    rng = Random(RNG_SEED)
    for ring in (R2, R3, Ring(2, GF(13))):
        for _ in range(12):
            g = random_poly(ring, rng, 2, 3)
            a = random_poly(ring, rng, 2, 3)
            b = random_poly(ring, rng, 2, 3)
            if g.is_zero():
                continue
            d = poly_gcd(g * a, g * b)
            # gcd contains g (up to the cofactor gcd)
            divexact(d, poly_gcd(d, primitive_part(g)))  # no exception
            assert poly_gcd(d, primitive_part(g)) == primitive_part(g)
            # and divides both products
            divexact(g * a, d)
            divexact(g * b, d)


def test_gcd_coprime_gives_one():
    assert poly_gcd(P("x0"), P("x1+1")) == R3.one()
    assert poly_gcd(P("x0+x1"), R3.zero()) == P("x0+x1")


def test_squarefree_part_examples():
    assert squarefree_part(P("x0^2*x1")) == P("x0*x1")
    sf = squarefree_part(P("x0^2+2*x0*x1+x1^2"))
    assert sf == P("x0+x1")
    p = P("x0^3*x1^2-x0^2*x1^3")  # x0^2*x1^2*(x0-x1)
    assert squarefree_part(p) == P("x0^2*x1-x0*x1^2")  # x0*x1*(x0-x1)


def test_squarefree_char_p_power():
    ring = Ring(1, GF(5))
    p = parse_polynomial("x0^5", ring)  # derivative vanishes identically
    assert squarefree_part(p) == parse_polynomial("x0", ring)
    q = parse_polynomial("x0^10+x0^5", ring)  # (x0^2+x0)^5
    assert squarefree_part(q) == parse_polynomial("x0^2+x0", ring)


# -- determinants -----------------------------------------------------------------

def test_determinant_small_known():
    rows = [[P("x0"), P("x1")], [P("x2"), P("x0")]]
    assert determinant(rows) == P("x0^2-x1*x2")


def _laplace(mat, ring):
    """Independent oracle: Laplace expansion along the first row."""
    k = len(mat)
    if k == 1:
        return mat[0][0]
    total = ring.zero()
    for j in range(k):
        if mat[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
        t = mat[0][j] * _laplace(minor, ring)
        total = total + (t if j % 2 == 0 else -t)
    return total


def test_determinant_bareiss_matches_cofactor_seeded():
    rng = Random(RNG_SEED)
    for ring in (R2, Ring(2, GF(11)), Ring(2, GF(DEFAULT_MODULAR_PRIME))):
        for n in range(1, 7):
            rows = [[random_poly(ring, rng, 1, 2) for _ in range(n)]
                    for _ in range(n)]
            if ring.field == QQ:  # rows are cleared of these denominators
                assert any(c.denominator > 1 for row in rows for e in row
                           for c in e.terms.values())
            assert determinant(rows) == _laplace(rows, ring)


def test_determinant_sizes_its_exponent_fields_from_the_input():
    ring = Ring(1, QQ)
    big = ring.var(0) ** 20000
    assert determinant([[big, ring.one()], [ring.one(), big]]) == \
        parse_polynomial("x0^40000-1", ring)
    rng = Random(RNG_SEED)
    for fld in (QQ, GF(101)):
        ring = Ring(2, fld)
        rows = [[Polynomial(ring, {(rng.randint(2 ** 15, 2 ** 16), rng.randint(0, 3)):
                                   fld.coerce(rng.randint(1, 9))})
                 + ring.const(rng.randint(-3, 3)) for _ in range(5)]
                for _ in range(5)]
        det = determinant(rows)
        assert det.degree() > 5 * 2 ** 15
        assert det == _laplace(rows, ring)


def test_exact_quotient_rejects_what_does_not_divide():
    # determinant's key layout for two variables in 4-bit fields: total
    # degree, then x0, then x1, with guard bits 3 and 7
    def key(e0, e1):
        return (((e0 + e1) << 4) | e0) << 4 | e1

    guard = 1 << 3 | 1 << 7
    one, x0, x1 = key(0, 0), key(1, 0), key(0, 1)
    x0_plus_1 = {x0: 1, one: 1}
    assert _exact_quotient({key(2, 0): 1, one: -1}, x0_plus_1, None, guard) == \
        {x0: 1, one: -1}
    assert _exact_quotient({key(2, 0): 1, one: 10}, x0_plus_1, 11, guard) == \
        {x0: 1, one: 10}
    for num, den, p in [({x1: 1}, {x0: 1}, None),              # negative key
                        ({key(3, 0): 1}, {x1: 1}, 101),        # guard bit
                        ({one: 3}, {one: 2}, None),            # integer remainder
                        ({key(2, 0): 1, one: 1}, x0_plus_1, None),
                        ({key(1, 1): 1, one: 1}, x0_plus_1, 7)]:
        with pytest.raises(VerificationError):
            _exact_quotient(num, den, p, guard)


def test_determinant_singular_and_permutation():
    one, zero = R3.one(), R3.zero()
    rows = [[one, one, one, one, one]] * 2 + \
           [[zero, one, zero, zero, zero], [zero, zero, one, zero, zero],
            [zero, zero, zero, one, zero]]
    assert determinant(rows).is_zero()
    # permutation matrix with sign -1 (single row swap of identity), 5x5
    perm = [[zero] * 5 for _ in range(5)]
    order = [1, 0, 2, 3, 4]
    for i, j in enumerate(order):
        perm[i][j] = one
    assert determinant(perm) == -R3.one()


def test_determinant_multiplicative_on_numbers():
    rng = Random(RNG_SEED)
    ring = Ring(1, QQ)
    for n in (5, 6):
        A = [[ring.const(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        B = [[ring.const(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        AB = [[sum((A[i][k] * B[k][j] for k in range(n)), ring.zero())
               for j in range(n)] for i in range(n)]
        assert determinant(AB) == determinant(A) * determinant(B)


def test_embed_pads_variables():
    big = Ring(5, QQ)
    p = P("x0*x1+x2")
    q = embed(p, big)
    assert q.degree_in(0) == 1 and q.degree_in(4) == 0
    r = embed(p, big, var_map=[2, 3, 4])
    assert r == parse_polynomial("x2*x3+x4", big)
