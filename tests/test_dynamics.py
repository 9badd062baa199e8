"""Endomorphism, orbit, Jacobian, pushforward and certificate checks.

Numeric oracles here were computed by hand from the definitions (resultant
row conventions, Vieta expansions, explicit orbit arithmetic) and frozen.
"""
import functools
import math
from fractions import Fraction
from random import Random

import pytest

from projdyn import dynamics, resultant, upoly
from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ, internal_primes
from projdyn.dynamics import (Endomorphism, HypersurfaceForm, ProjectivePoint,
                              _certify_pushforward, _critical_orbit,
                              _extended_ring, _homogeneous_blocks,
                              _line_coeffs, _line_jacobian, _parse_forms,
                              _probably_squarefree,
                              _pushforward_chain, _strip_param_content,
                              critical_points, dim_end, dim_forms,
                              endomorphism_from_strings, fixed_form,
                              generic_cert_degree, has_periodic_critical_point,
                              improper_certificate, jacobian,
                              jacobian_polynomial, periodic_points,
                              pushforward, pushforward_iterated,
                              search_improper_witness)
from projdyn.errors import (DegeneracyError, InvalidInputError,
                            UnsupportedScopeError)
from projdyn.mpoly import (Polynomial, Ring, embed, equal_up_to_scalar,
                           monomials_of_degree, parse_polynomial, poly_gcd,
                           primitive_part, squarefree_part)
from projdyn.resultant import (_probe_count, _reduce_form_mod, macaulay_resultant,
                               sylvester_resultant)

from conftest import count_calls
from test_acceptance import certificate_product_mod

R2 = Ring(2, QQ)
R3 = Ring(3, QQ)


def P(text, ring=R2):
    return parse_polynomial(text, ring)


def pt(coords, fld=QQ):
    return ProjectivePoint(coords, fld)


def squaring():
    return endomorphism_from_strings(["x^2", "y^2"], QQ)


def z2_minus_1():
    return endomorphism_from_strings(["x^2-y^2", "y^2"], QQ)


# -- points and construction -----------------------------------------------------

def test_projective_point_normalization():
    assert pt((2, 4)).coords == (Fraction(1, 2), Fraction(1))
    assert pt((3, 0)).coords == (Fraction(1), Fraction(0))
    assert pt((0, 7)) == pt((0, 1))
    assert pt((2, 4)) != pt((2, 5))
    assert len({pt((1, 2)), pt((2, 4)), pt((3, 6))}) == 1
    with pytest.raises(InvalidInputError):
        pt((0, 0))


def test_endomorphism_shape_checks():
    with pytest.raises(InvalidInputError):
        Endomorphism([P("x^2"), P("y^3")])
    with pytest.raises(InvalidInputError):
        Endomorphism([P("x^2"), R2.zero()])
    with pytest.raises(InvalidInputError):
        Endomorphism([P("x^2+x"), P("y^2")])
    f = squaring()
    assert (f.n, f.d, f.nparams) == (1, 2, 0)


def test_joint_scaling_is_by_one_constant():
    f = endomorphism_from_strings(["x", "y/2", "-z/3"], QQ)
    assert f.forms == (P("6*x", R3), P("3*y", R3), P("-2*z", R3))
    g = endomorphism_from_strings(["3*x^2", "4*y^2"], GF(7))
    # one scalar makes the first form monic; the ratio 3:4 survives as 1:6
    assert g.forms == (parse_polynomial("x^2", Ring(2, GF(7))),
                       parse_polynomial("6*y^2", Ring(2, GF(7))))


def test_iterate_composes_and_caches():
    f = squaring()
    g = f.iterate(3)
    assert g.d == 8
    assert g.forms == (P("x^8"), P("y^8"))
    assert f.iterate(3) is g


def test_orbit_of_zero_under_z2_minus_1():
    f = z2_minus_1()
    rec = f.orbit(pt((0, 1)))
    assert rec.tail == 0 and rec.period == 2
    assert rec.points == [pt((0, 1)), pt((-1, 1))]
    wander = f.orbit(pt((2, 1)), max_steps=6)
    assert wander.period is None and not wander.terminated


def test_apply_at_indeterminate_point_raises():
    f = Endomorphism([P("x^2"), P("x*y")])
    with pytest.raises(DegeneracyError):
        f.apply(pt((0, 1)))


def test_is_morphism():
    assert squaring().is_morphism()
    assert not Endomorphism([P("x^2"), P("x*y")]).is_morphism()


def test_conjugate_by_translation():
    f = squaring()
    g = f.conjugate([[1, 1], [0, 1]])
    assert g.forms == (P("x^2+2*x*y"), P("y^2"))
    with pytest.raises(InvalidInputError):
        f.conjugate([[1, 1], [2, 2]])


def test_conjugate_over_a_prime_field():
    f = endomorphism_from_strings(["x^2", "y^2"], GF(7))
    a, a_inv = [[1, 2], [3, 1]], [[4, 6], [2, 4]]  # inverse pair mod 7
    assert f.conjugate(a).conjugate(a_inv) == f
    with pytest.raises(InvalidInputError):
        f.conjugate([[1, 2], [3, -1]])  # determinant -7


@pytest.mark.parametrize("fld", [QQ, GF(10007)], ids=["QQ", "GF10007"])
def test_conjugate_moves_the_map_by_the_matrix(fld):
    # seeded quadratic maps of P^2 and 3 x 3 matrices A: at random points x,
    # A . g(x) is proportional to f(A . x) for g = A^(-1) o f o A, and a
    # singular A is refused
    rng = Random(2031)
    ring = Ring(3, fld)

    def times(a, x):
        return [fld.coerce(sum(r * c for r, c in zip(row, x))) for row in a]

    conjugated = 0
    for _ in range(12):
        f = Endomorphism([random_block_form(ring, 3, 2, rng, 0.7) for _ in range(3)])
        a = [[fld.coerce(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
               - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
               + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        if fld.is_zero(fld.coerce(det)):
            with pytest.raises(InvalidInputError, match="conjugation matrix is singular"):
                f.conjugate(a)
            continue
        g = f.conjugate(a)
        conjugated += 1
        for _ in range(5):
            x = [fld.coerce(rng.randint(-20, 20)) for _ in range(3)]
            u = times(a, [h.evaluate(x) for h in g.forms])
            v = [h.evaluate(times(a, x)) for h in f.forms]
            assert all(fld.is_zero(fld.coerce(ui * vj - uj * vi))
                       for ui, vi in zip(u, v) for uj, vj in zip(u, v))
            assert any(u) == any(v)
    assert conjugated >= 6
    singular = [a[0], a[1], [fld.add(x, y) for x, y in zip(a[0], a[1])]]
    with pytest.raises(InvalidInputError, match="conjugation matrix is singular"):
        f.conjugate(singular)


def test_json_round_trip():
    f = endomorphism_from_strings(["x0^2+3*x2*x1^2", "x1^2"], QQ, nvars=3)
    g = Endomorphism.from_json(f.to_json())
    assert g == f
    h = endomorphism_from_strings(["2*x^2", "3*y^2"], GF(11))
    assert Endomorphism.from_json(h.to_json()) == h


def test_from_strings_rejects_small_ring():
    with pytest.raises(InvalidInputError):
        endomorphism_from_strings(["x0^2", "x1^2", "x2^2"], QQ, nvars=2)
    with pytest.raises(InvalidInputError):  # an inferred ring stops at x63
        endomorphism_from_strings(["x0^2", "x1^2*x64"], QQ)


def test_from_strings_ring_width():
    f = endomorphism_from_strings(["x0^2", "x1^2*x70"], QQ, nvars=100)
    assert f.ring.nvars == 100 and f.forms[1].variables() == [1, 70]
    # an inferred ring ignores variables met only to the power 0 or times 0
    forms = _parse_forms(["z^0+x0", "0*x5+x0"], QQ, 2)
    assert forms == [parse_polynomial("x0+1", R2), parse_polynomial("x0", R2)]


# -- jacobians ----------------------------------------------------------------------

def test_jacobian_of_squaring():
    f = squaring()
    assert jacobian_polynomial(f) == P("4*x*y")
    assert jacobian(f).poly == P("x*y")
    lin = endomorphism_from_strings(["x+y", "y"], QQ)
    with pytest.raises(InvalidInputError):
        jacobian(lin)


def test_jacobian_of_symmetric_quadratic_family():
    # f = (a x^2 + r y z, b y^2 + s x z, c z^2 + t x y) with parameters
    # (a, b, c, r, s, t) = (x3, x4, x5, x6, x7, x8); determinant expanded by hand.
    ring = Ring(9, QQ)
    f = Endomorphism([parse_polynomial(s, ring) for s in (
        "x3*x0^2+x6*x1*x2", "x4*x1^2+x7*x0*x2", "x5*x2^2+x8*x0*x1")])
    raw = jacobian_polynomial(f)
    expect = parse_polynomial(
        "8*x0*x1*x2*x3*x4*x5+2*x0*x1*x2*x6*x7*x8"
        "-2*x0^3*x3*x7*x8-2*x1^3*x4*x6*x8-2*x2^3*x5*x6*x7", ring)
    assert raw == expect
    assert jacobian(f).poly == parse_polynomial(
        "x0^3*x3*x7*x8+x1^3*x4*x6*x8+x2^3*x5*x6*x7"
        "-4*x0*x1*x2*x3*x4*x5-x0*x1*x2*x6*x7*x8", ring)


# -- pushforwards --------------------------------------------------------------------

def test_pushforward_single_point():
    f = squaring()
    image, raw = pushforward(f, P("x-2*y"), raw=True)
    assert image.poly == P("x-4*y")
    assert raw == P("4*y-x")


def test_pushforward_keeps_coordinate_components():
    f = squaring()
    image = pushforward(f, P("x*y"))
    assert image.poly == P("x*y")


def test_pushforward_merges_conjugate_points():
    # both roots of x^2 - 2 y^2 land on (2 : 1); multiplicity drops out
    f = squaring()
    image = pushforward(f, P("x^2-2*y^2"))
    assert image.poly == P("x-2*y")


def test_pushforward_parametric_point():
    f = endomorphism_from_strings(["x^2", "y^2"], QQ, nvars=3)
    image = pushforward(f, parse_polynomial("x0-x2*x1", R3))
    assert image.poly == parse_polynomial("x1*x2^2-x0", R3)


def test_pushforward_linear_plane_map():
    f = endomorphism_from_strings(["x", "y/2", "-z/3"], QQ)
    image, raw = pushforward(f, P("x+y+z", R3), raw=True)
    assert raw == P("-6*x^2-12*x*y+18*x*z", R3)
    assert image.poly == P("x+2*y-3*z", R3)


def test_pushforward_line_under_coordinate_squaring():
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], QQ)
    image = pushforward(f, P("x+y+z", R3))
    assert image.poly == P("x^2+y^2+z^2-2*x*y-2*x*z-2*y*z", R3)
    assert image.degree == 2


def test_pushforward_iterated_steps_match_direct():
    f = squaring()
    by_steps = pushforward_iterated(f, P("x-2*y"), 2)
    direct = pushforward_iterated(f, P("x-2*y"), 2, mode="direct")
    assert by_steps.poly == P("x-16*y")
    assert direct == by_steps
    assert pushforward_iterated(f, P("x-2*y"), 0).poly == P("x-2*y")


def test_pushforward_checks_a_candidate_when_planned_primes_degenerate():
    # the middle coordinate vanishes mod each planned certification prime, so
    # only a further prime can show that the quadric misses the V(x) part
    n = 10007 * 10009 * 10037
    f = endomorphism_from_strings(["x^2", f"{n}*y^2", "z^2"], QQ)
    image = pushforward(f, P("x^2+x*y+x*z", R3))
    # V(x) maps to V(x0); x+y+z = 0 maps to the conic in x0, x1/n, x2
    conic = P(f"{n * n}*x^2+y^2+{n * n}*z^2-{2 * n}*x*y-{2 * n * n}*x*z"
              f"-{2 * n}*y*z", R3)
    assert image.poly == P("x", R3) * conic


def strip_monomial_content(p):
    """Divide out the largest monomial dividing every term."""
    if p.is_zero():
        return p
    mins = [min(m[i] for m in p.terms) for i in range(p.ring.nvars)]
    return Polynomial(p.ring, {tuple(e - lo for e, lo in zip(m, mins)): c
                               for m, c in p.terms.items()})


def eager_image_form(f, phi_poly, *, seed, strategy, rescale, retries=None):
    """Oracle: the eager image step.  For n >= 2 both choices of minors are
    eliminated up front, and their stripped forms are compared, or combined
    by gcd, before any candidate is checked.  Where no unnormalized
    candidate passes it retries normalized, and records phi in `retries`."""
    n1 = f.n + 1
    ring = f.ring
    phi_degree = phi_poly.homogeneous_degree_in_block(tuple(range(n1)))
    if phi_poly.is_zero() or phi_degree is None or phi_degree < 1:
        raise InvalidInputError("not a hypersurface")
    norm = primitive_part if rescale else (lambda g: g)
    ext, into, back = _extended_ring(ring, f.n)
    fx = [embed(g, ext, into) for g in f.forms]
    px = embed(phi_poly, ext, into)
    y = [ext.var(n1 + i) for i in range(n1)]
    if f.n == 1:
        raw = combined = sylvester_resultant(px, y[1] * fx[0] - y[0] * fx[1])
    else:
        results = []
        for pairs in ([(0, k) for k in range(1, n1)],
                      [(0, 1)] + [(k, k + 1) for k in range(1, f.n)]):
            forms = [px] + [y[j] * fx[k] - y[k] * fx[j] for j, k in pairs]
            blocks = _homogeneous_blocks(forms, [range(n1, 2 * n1),
                                                 range(2 * n1, ext.nvars)])
            results.append(macaulay_resultant(forms, n1, strategy=strategy, seed=seed,
                                              blocks=blocks))
        raw = results[0]
        if any(r.is_zero() for r in results):
            raise DegeneracyError("pushforward-degenerate", "resultant vanished")
        reduced = [_strip_param_content(primitive_part(r), 2 * n1) if rescale
                   else strip_monomial_content(r) for r in results]
        combined = (reduced[0] if equal_up_to_scalar(*reduced)
                    else poly_gcd(*reduced))
    if combined.is_zero():
        raise DegeneracyError("pushforward-degenerate", "zero form")
    combined = _strip_param_content(norm(combined), 2 * n1)
    stripped = strip_monomial_content(combined)
    candidates = []
    for g in ([stripped, combined] if stripped != combined else [combined]):
        if not _probably_squarefree(g, seed):
            sf = squarefree_part(g)
            if rescale or sf.degree() != g.degree():
                g = sf
        candidates.append(g)
    for g in candidates:
        if not 1 <= g.degree_in_block(tuple(range(n1, 2 * n1))) <= phi_degree * f.d ** (n1 - 2):
            continue
        if any(g.degree_in(v) for v in range(n1)):
            raise DegeneracyError("pushforward-degenerate", "x survived")
        g_base = norm(embed(g, ring, back))
        if _certify_pushforward(f, phi_poly, phi_degree, g_base, seed):
            return g_base, raw
    if not rescale:
        if retries is not None:
            retries.append(phi_poly)
        return eager_image_form(f, phi_poly, seed=seed, strategy=strategy, rescale=True,
                                retries=retries)
    raise DegeneracyError("pushforward-unreduced", "no candidate passed")


def random_block_form(ring, n1, degree, rng, density=1.0):
    """Seeded form of the given degree in the first n1 variables."""
    fld = ring.field
    terms = {}
    for mb in monomials_of_degree(n1, degree):
        if rng.random() < density:
            c = fld.coerce(rng.randint(-5, 5) if fld == QQ else rng.randrange(fld.p))
            if c:
                terms[tuple(mb) + (0,) * (ring.nvars - n1)] = c
    form = Polynomial(ring, terms)
    return form if not form.is_zero() else random_block_form(ring, n1, degree, rng, density)


def image_step_cases(fld, rng):
    """(map, phi, also certify) triples: seeded P^2 and P^3 maps, parametric
    planes, and phis with a component inside some V(f_i), whose image has
    the coordinate hyperplane y_i = 0 as a component (with multiplicity 1 in
    the norm under the linear map of P^3)."""
    r3, r4 = Ring(3, fld), Ring(4, fld)
    cases = []
    f = Endomorphism([random_block_form(r3, 3, 2, rng, 0.6) for _ in range(3)])
    cases.append((f, random_block_form(r3, 3, 1, rng), True))
    line = random_block_form(r3, 3, 1, rng)
    forms = [line * random_block_form(r3, 3, 1, rng)] + list(f.forms[1:])
    cases.append((Endomorphism(forms), line * random_block_form(r3, 3, 1, rng), True))
    squares = [r4.var(i) ** 2 + (r4.var(j) * r4.var(k)).scale(fld.coerce(rng.randint(1, 5)))
               for i in range(4) for j, k in [sorted(rng.sample(range(4), 2))]]
    cases.append((Endomorphism(squares), random_block_form(r4, 4, 1, rng), False))
    linear = [r4.var(0) + r4.var(1)] + [random_block_form(r4, 4, 1, rng) for _ in range(3)]
    cases.append((Endomorphism(linear), linear[0] * random_block_form(r4, 4, 1, rng), True))
    r6 = Ring(6, fld)
    plane = P("x3*x0+x4*x1+x5*x2", r6)
    squaring_plane = Endomorphism([r6.var(i) ** 2 for i in range(3)])
    cases += [(squaring_plane, plane, False), (squaring_plane, r6.var(0) * plane, False)]
    squaring_line = Endomorphism([r4.var(i) ** 2 for i in range(3)])
    cases.append((squaring_line, P("x0+x3*x1+x2", r4), True))
    return cases


def image_step_outcomes(f, phi, certify, eliminations, steps):
    """The pushforward with its raw elimination, then the certificate if
    asked, each followed by the eliminations it ran less its image steps; a
    raised exception stands as its type, which the other route must match."""
    def outcome(step):
        eliminations.clear()
        steps.clear()
        try:
            value = step()
        except Exception as exc:
            value = type(exc)
        return [value, len(eliminations) - len(steps)]

    out = outcome(lambda: pushforward(f, phi, raw=True))
    if certify:
        out += outcome(lambda: improper_certificate(f, phi, range(f.n + 1)))
    return out


def scalar_exponent(f, chain, indices):
    """K with certificate(f, c*phi) = c^K certificate(f, phi) over the
    parameter-free `chain` of image forms.  Image i carries c^s_i, s_0 = 1.
    R is homogeneous of degree d^n in the coefficients of the form it
    eliminates, so s_i = d^n s_(i-1) where the step's norm is squarefree
    and the image has degree deg(image_(i-1)) * d^(n-1); where the degree
    drops, `squarefree_part` normalized the image and s_i = 0.  The
    resultant is homogeneous of degree prod_(j != i) deg(image_j) in the
    coefficients of image i."""
    degrees = [g.degree() for g in chain]
    s = [1]
    for prev, cur in zip(degrees, degrees[1:]):
        s.append(s[-1] * f.d ** f.n if cur == prev * f.d ** (f.n - 1) else 0)
    return sum(s[i] * math.prod(degrees[j] for j in indices if j != i) for i in indices)


def certificate_is_covariant(f, phi, indices, cert, c=2):
    """improper_certificate(f, c*phi) == c^K * cert, K from `scalar_exponent`."""
    chain = _pushforward_chain(f, phi, max(indices), seed=0, strategy="auto")
    scaled = improper_certificate(f, phi.scale(c), indices)
    return scaled == cert.scale(f.field.coerce(c ** scalar_exponent(f, chain, indices)))


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(101), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF7", "GF101", "GF62bit"])
def test_lazy_second_elimination_matches_the_eager_route(fld, monkeypatch):
    # the eager oracle runs both eliminations; the image step runs only R_a
    eliminations = count_calls(monkeypatch, dynamics, "macaulay_resultant")
    steps = count_calls(monkeypatch, dynamics, "_image_form")
    retried = 0
    for f, phi, certify in image_step_cases(fld, Random(8)):
        retries = []
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_image_form",
                      functools.partial(eager_image_form, retries=retries))
            expected = image_step_outcomes(f, phi, certify, eliminations, steps)
        got = image_step_outcomes(f, phi, certify, eliminations, steps)
        # one elimination per image step: the pushforward's one step runs one
        # elimination, and a certificate one per step plus its own resultant
        assert got[1] == 0
        if certify:
            assert got[3] == isinstance(got[2], Polynomial)
        assert got[0] == expected[0]
        if not retries:
            assert got[2::2] == expected[2::2]
            continue
        # the oracle normalized a step whose image has a coordinate-hyperplane
        # component; the certificate keeps the scalar the input form gives it
        retried += 1
        cert, oracle = got[2], expected[2]
        assert isinstance(cert, Polynomial) and isinstance(oracle, Polynomial)
        assert cert.is_zero() == oracle.is_zero()
        assert certificate_is_covariant(f, phi, range(f.n + 1), cert)
    assert retried


def planted_image_cases(fld, rng):
    """(map, phi, k) for seeded morphisms of P^2 and P^3 of degree d:
    phi = l^k * psi, where the line or plane l divides f0.  Then V(l) lies in
    V(f0), and f maps it onto V(y0) with degree d^(n-1), as f1..fn restrict
    to a morphism of V(l); k = 0 is an unplanted phi."""
    cases = []
    for n, d, k, rest in [(2, 2, 0, 2), (2, 3, 0, 1), (3, 2, 0, 1), (2, 1, 1, 1),
                          (2, 2, 1, 1), (2, 2, 2, 0), (2, 3, 1, 0), (3, 1, 1, 1),
                          (3, 2, 1, 0)]:
        ring = Ring(n + 1, fld)
        line = random_block_form(ring, n + 1, 1, rng)
        while True:
            forms = [random_block_form(ring, n + 1, d, rng) for _ in range(n + 1)]
            if k:
                forms[0] = line * random_block_form(ring, n + 1, d - 1, rng)
            f = Endomorphism(forms)
            if f.is_morphism():
                break
        cases.append((f, line ** k * random_block_form(ring, n + 1, rest, rng), k))
    return cases


@pytest.mark.parametrize("fld", [QQ, GF(101), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF101", "GF62bit"])
def test_image_elimination_carries_the_known_power_of_y0(fld):
    for f, phi, k in planted_image_cases(fld, Random(25)):
        n, d, m = f.n, f.d, phi.degree()
        image, raw = pushforward(f, phi, raw=True)
        # R is homogeneous of degree deg phi * d^(n-1) in each minor's
        # coefficients, which are linear in y
        assert {sum(mono[:n + 1]) for mono in raw.terms} == {n * m * d ** (n - 1)}
        # R = y0^e * N with e = (n-1) deg phi d^(n-1), and V(y0) has
        # multiplicity k d^(n-1) in the norm N
        e = (n - 1) * m * d ** (n - 1)
        assert min(mono[0] for mono in raw.terms) == e + k * d ** (n - 1)
        assert min(mono[0] for mono in image.poly.terms) == (k > 0)


@pytest.mark.parametrize("fld", [QQ, GF(101), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF101", "GF62bit"])
def test_certificates_are_covariant_in_the_input_form(fld):
    # parameter-free chains through a coordinate hyperplane: V(l) lies in
    # V(f0) and maps onto V(y0).  Under the linear maps, and on P^1, every
    # norm is squarefree and no step normalizes; under the quadratic map of
    # P^2, V(y0) has multiplicity 2 and squarefree_part normalizes that
    # image.  P^3 keeps phi = l: over QQ the certificate of four quadrics in
    # P^3 takes tens of seconds
    rng = Random(2501)
    cases = []
    for n, d, planes in [(1, 2, 2), (2, 1, 2), (3, 1, 1), (2, 2, 2)]:
        ring = Ring(n + 1, fld)
        line = random_block_form(ring, n + 1, 1, rng)
        forms = [line * random_block_form(ring, n + 1, d - 1, rng)]
        forms += [random_block_form(ring, n + 1, d, rng) for _ in range(n)]
        f = Endomorphism(forms)
        phi = line
        for _ in range(planes):
            cases.append((f, phi))
            phi = phi * random_block_form(ring, n + 1, 1, rng)
    carried = 0  # nonzero certificates whose images carry c past phi itself
    for f, phi in cases:
        assert f.is_morphism()
        indices = range(f.n + 1)
        cert = improper_certificate(f, phi, indices)
        assert certificate_is_covariant(f, phi, indices, cert)
        chain = _pushforward_chain(f, phi, f.n, seed=0, strategy="auto")
        carried += (not cert.is_zero() and scalar_exponent(f, chain, indices)
                    > math.prod(g.degree() for g in chain[1:]))
    assert carried >= 4


def test_bad_prime_reduction_is_an_internal_signal():
    with pytest.raises(ZeroDivisionError) as err:
        _reduce_form_mod(P("x/10007+y"), Ring(2, GF(10007)))
    assert not isinstance(err.value, InvalidInputError)


def trial_lines(calls):
    """The number of lines each `_line_trial` call was given."""
    return [len(lines) for *_, lines, _seed in calls]


def trial_primes(calls):
    return [fq.p for _, _, _, fq, *_ in calls]


def test_certifier_runs_one_trial_on_a_parameter_free_prime_field_map(monkeypatch):
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(10007))
    plane, image, wrong = (parse_polynomial(t, f.ring) for t in
                           ("x+y+z", "x^2+y^2+z^2-2*x*y-2*x*z-2*y*z", "x+2*y+3*z"))
    trials = count_calls(monkeypatch, dynamics, "_line_trial")
    evaluations = count_calls(monkeypatch, dynamics, "_evaluate_coeffs")
    composed = count_calls(monkeypatch, dynamics, "_composed_trial")

    def lines_run():  # each line restricts phi once, with no modulus
        return sum(len(args) == 3 for args in evaluations)

    assert not _certify_pushforward(f, plane, 1, wrong, seed=0)
    # one trial of k lines, (bound/q)^k <= 2^-32 for bound 2D + deg phi, D = 1*1*2;
    # its first line fails, which proves the rejection
    assert trial_lines(trials) == [_probe_count(5, 10007)] == [3]
    assert lines_run() == 1
    trials.clear()
    evaluations.clear()
    assert _certify_pushforward(f, plane, 1, image, seed=0)
    assert trial_lines(trials) == [_probe_count(9, 10007)] == [4]
    assert lines_run() == 4
    assert not composed


def test_certifier_keeps_independent_trials_with_parameters(monkeypatch):
    f = endomorphism_from_strings(["x0^2", "x1^2", "x3*x2^2"], GF(10007))
    plane, wrong = (parse_polynomial(t, f.ring) for t in ("x0+x1+x2", "x0+2*x1+3*x2"))
    trials = count_calls(monkeypatch, dynamics, "_line_trial")
    assert not _certify_pushforward(f, plane, 1, wrong, seed=0)
    # rejection takes two trials at fresh parameter values: the third form
    # specializes to c*x2^2 with a new c
    assert trial_lines(trials) == [3, 3]
    third = [fs_q[2] for _, _, fs_q, *_ in trials]
    assert [set(h) for h in third] == [{(0, 0, 2)}] * 2 and third[0] != third[1]


def test_certifier_runs_one_trial_per_prime_on_a_parameter_free_rational_map(
        monkeypatch):
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], QQ)
    plane, image, wrong = (parse_polynomial(t, f.ring) for t in
                           ("x+y+z", "x^2+y^2+z^2-2*x*y-2*x*z-2*y*z", "x+2*y+3*z"))
    trials = count_calls(monkeypatch, dynamics, "_line_trial")
    assert not _certify_pushforward(f, plane, 1, wrong, seed=0)
    # the two failures come from two primes, not one check run twice
    assert trial_primes(trials) == [10007, 10009]
    trials.clear()
    assert _certify_pushforward(f, plane, 1, image, seed=0)
    assert trial_primes(trials) == [10007]


def test_certifier_keeps_two_trials_per_prime_for_a_parametric_rational_map(
        monkeypatch):
    f = endomorphism_from_strings(["x0^2", "x1^2", "x3*x2^2"], QQ)
    plane, wrong = (parse_polynomial(t, f.ring) for t in ("x0+x1+x2", "x0+2*x1+3*x2"))
    trials = count_calls(monkeypatch, dynamics, "_line_trial")
    assert not _certify_pushforward(f, plane, 1, wrong, seed=0)
    assert trial_primes(trials) == [10007, 10007]


def exact_certifier(monkeypatch, *args):
    """Oracle: `_certify_pushforward` with every trial composing g∘f exactly,
    the route it takes where no line count meets the bound."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_probe_count", lambda bound, q: None)
        return _certify_pushforward(*args)


def certifier_cases(fld, rng):
    """(map, phi, candidate, kind) for the differential test: the image
    steps of `image_step_cases`, and the two steps of two sweep planes under
    squaring (one planted with a + b + c = 0) plus the first with phi
    squared, each with its true image, a multiple g*h of it, and a
    one-coefficient perturbation."""
    steps = []
    for f, phi, _ in image_step_cases(fld, rng):
        try:
            steps.append((f, phi, pushforward(f, phi).poly))
        except DegeneracyError:
            continue
    ring = Ring(3, fld)
    squaring_map = Endomorphism([ring.var(i) ** 2 for i in range(3)])
    p = fld.p if fld != QQ else 10007
    for planted in (False, True):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        c = -a - b if planted else rng.randrange(1, p)
        plane = Polynomial(ring, {(1, 0, 0): fld.coerce(a), (0, 1, 0): fld.coerce(b),
                                  (0, 0, 1): fld.coerce(c)})
        chain = _pushforward_chain(squaring_map, plane, 2, seed=0, strategy="auto")
        steps += [(squaring_map, chain[i], chain[i + 1]) for i in range(2)]
        # a square: the divisor is rad(phi), not phi
        steps.append((squaring_map, chain[0] ** 2, chain[1]))
    cases = []
    for f, phi, g in steps:
        n1 = f.n + 1
        h = random_block_form(f.ring, n1, 1, rng)
        mono = rng.choice(monomials_of_degree(n1, g.degree_in_block(range(n1))))
        bump = Polynomial(f.ring, {tuple(mono) + (0,) * f.nparams:
                                   fld.coerce(rng.randint(1, 5))})
        cases += [(f, phi, g, "image"), (f, phi, g * h, "multiple"),
                  (f, phi, g + bump, "perturbed")]
    return cases


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(101), GF(10007), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF7", "GF101", "GF10007", "GF62bit"])
def test_line_certifier_matches_the_exact_composition(fld, monkeypatch):
    line_trials = count_calls(monkeypatch, dynamics, "_line_trial")
    composed = count_calls(monkeypatch, dynamics, "_composed_trial")
    verdicts = {"image": set(), "multiple": set(), "perturbed": set()}
    routes = []
    for seed, (f, phi, g, kind) in enumerate(certifier_cases(fld, Random(5501))):
        phi_degree = phi.homogeneous_degree_in_block(range(f.n + 1))
        args = (f, phi, phi_degree, g, seed)
        expected = exact_certifier(monkeypatch, *args)
        line_trials.clear()
        composed.clear()
        got = _certify_pushforward(*args)
        assert got == expected, (kind, f, phi, g)
        verdicts[kind].add(got)
        bound = phi_degree * (2 * g.degree_in_block(range(f.n + 1)) * f.d + 1)
        k = _probe_count(bound, fld.p if fld != QQ else 10007)
        routes.append((k is not None, bool(line_trials), bool(composed)))
    assert verdicts["image"] == verdicts["multiple"] == {True}
    if fld == QQ or fld.p >= 10007:
        assert verdicts["perturbed"] == {False}
    if fld == GF(7):
        # no line count reaches the bound: every trial composes exactly
        assert {r[1:] for r in routes} == {(False, True)}
    else:
        # every candidate whose bound some number of lines meets runs its
        # lines, however many that takes; only over F_101 did a degenerate
        # line (r = 0 or r' = 0) hand its trial to the exact composition
        assert all(lines for fits, lines, _ in routes if fits)
        assert all(not lines for fits, lines, _ in routes if not fits)
        assert any(fits for fits, _, _ in routes)
        if fld != GF(101):
            assert not any(exact for fits, _, exact in routes if fits)
        if fld == GF(DEFAULT_MODULAR_PRIME):
            assert all(fits for fits, _, _ in routes)


def test_sweep_certificate_never_composes(monkeypatch):
    # squaring and seeded planes at 62 bits, as in the certificate sweep: the
    # certifier restricts to lines and calls no multivariate kernel
    p = DEFAULT_MODULAR_PRIME
    fld = GF(p)
    ring = Ring(3, fld)
    f = Endomorphism([ring.var(i) ** 2 for i in range(3)])
    calls, inside = [], [0]
    counts = {"substitute": 0, "divexact": 0, "squarefree_part": 0}
    certify = dynamics._certify_pushforward

    def scoped(*args):
        calls.append(args)
        inside[0] += 1
        try:
            return certify(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(dynamics, "_certify_pushforward", scoped)
    for owner, name in ((Polynomial, "substitute"), (dynamics, "divexact"),
                        (dynamics, "squarefree_part")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += inside[0] > 0
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rng = Random(41)
    ratios = []
    for _ in range(2):
        a, b, c = (rng.randrange(1, p) for _ in range(3))
        phi = Polynomial(ring, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        value = improper_certificate(f, phi, (0, 1, 2)).constant_value()
        ratios.append(value * pow(certificate_product_mod(a, b, c, p), -1, p) % p)
    assert len(calls) == 4  # two image steps per certificate
    assert counts == {"substitute": 0, "divexact": 0, "squarefree_part": 0}
    # criterion 03's factored product, up to its one universal constant
    assert ratios[0] == ratios[1] != 0


def floored_image_cases(fld, rng):
    """(map, phi, whole chain) for seeded parameter-free maps: quadratic
    maps of P^2 with lines and conics, a quadratic map of P^3 with a plane
    (its pushforward only: a second image there takes minutes) and a linear
    map of P^3 with a quadric."""
    r3, r4 = Ring(3, fld), Ring(4, fld)
    cases = []
    for degree in (1, 1, 2, 2):
        f = Endomorphism([random_block_form(r3, 3, 2, rng, 0.6) for _ in range(3)])
        cases.append((f, random_block_form(r3, 3, degree, rng), True))
    f = Endomorphism([random_block_form(r4, 4, 2, rng, 0.6) for _ in range(4)])
    cases.append((f, random_block_form(r4, 4, 1, rng), False))
    f = Endomorphism([random_block_form(r4, 4, 1, rng) for _ in range(4)])
    cases.append((f, random_block_form(r4, 4, 2, rng), True))
    return cases


def floored_outcomes(cases, monkeypatch, shift):
    """Per case the pushforward with its raw elimination, and for a whole
    chain the second image and the certificate (a DegeneracyError stands as
    its code), with each image step's pivot floor e moved to e + shift, or
    taken away when shift is None; and per nonzero floored image, in order,
    whether its probe passed.  Where R vanishes identically, as where V(phi)
    meets a base point, the floored image is zero whatever the floor, and
    right."""
    real = dynamics.macaulay_resultant
    dense, verify = resultant._dense_coeffs, resultant._verify_candidate
    verdicts = []

    def elimination(*args, _pivot_floor=0, **kwargs):
        if _pivot_floor:
            _pivot_floor = 0 if shift is None else _pivot_floor + shift
        return real(*args, _pivot_floor=_pivot_floor, **kwargs)

    def logged_dense(system, plan, floored=False):
        coeffs = dense(system, plan, floored)
        if floored and coeffs:
            verdicts.append(None)  # the next probe is this image's
        return coeffs

    def logged_verify(*args):
        verdict = verify(*args)
        if verdicts and verdicts[-1] is None:
            verdicts[-1] = verdict
        return verdict

    def outcome(call):
        try:
            return call()
        except DegeneracyError as exc:
            return exc.code

    with monkeypatch.context() as m:
        m.setattr(dynamics, "macaulay_resultant", elimination)
        m.setattr(resultant, "_dense_coeffs", logged_dense)
        m.setattr(resultant, "_verify_candidate", logged_verify)
        out = []
        for f, phi, whole in cases:
            out.append(outcome(lambda: pushforward(f, phi, raw=True)))
            if whole:
                out.append(outcome(lambda: pushforward_iterated(f, phi, 2)))
                out.append(outcome(lambda: improper_certificate(f, phi, range(f.n + 1))))
    return out, verdicts


@pytest.mark.parametrize("fld", [GF(DEFAULT_MODULAR_PRIME), GF(1000003), QQ],
                         ids=["GF62bit", "GF1000003", "QQ"])
def test_floored_image_steps_match_the_unfloored_route(fld, monkeypatch):
    # the floored lower set, without the floor (Zippel's stages), and with
    # a wrong floor e + 1, whose every nonzero image fails its probe and
    # falls back to Zippel's stages: the same images, certificates and
    # error codes
    cases = floored_image_cases(fld, Random(3030))
    floorless, none = floored_outcomes(cases, monkeypatch, None)
    floored, passed = floored_outcomes(cases, monkeypatch, 0)
    wrong, failed = floored_outcomes(cases, monkeypatch, 1)
    assert floored == floorless == wrong
    assert not none
    # over QQ only systems of order above 14 interpolate: the P^2 maps'
    # second images and the P^3 images
    assert len(passed) == len(failed) >= 6
    assert all(passed) and not any(failed)
    assert sum(not isinstance(o, str) for o in floored) >= 12  # not error codes


def test_pushforward_through_indeterminacy_raises():
    f = Endomorphism([P("x^2"), P("x*y")])
    with pytest.raises(DegeneracyError):
        pushforward(f, P("x"))


# -- improperness certificates ---------------------------------------------------------

def test_certificates_of_diagonal_plane_map():
    f = endomorphism_from_strings(["x", "y/2", "-z/3"], QQ)
    plane = P("x+y+z", R3)
    values = {(0, 1, 2): -4320, (0, 2, 3): 1088640,
              (1, 2, 3): -5598720, (0, 1, 3): 0}
    for idx, expect in values.items():
        cert = improper_certificate(f, plane, idx)
        assert cert.constant_value() == expect, idx
    assert search_improper_witness(f, plane, 3) == (0, 1, 3)


def test_certificate_scales_with_the_input_form():
    # no hidden normalization: for a linear map every chain form is linear
    # in the input scalar, so the three-form resultant picks up a cube
    f = endomorphism_from_strings(["x", "y/2", "-z/3"], QQ)
    plane = P("x+y+z", R3).scale(QQ.coerce(7))
    cert = improper_certificate(f, plane, (0, 1, 2))
    assert cert.constant_value() == 343 * -4320


def test_certificate_index_validation():
    f = endomorphism_from_strings(["x", "y/2", "-z/3"], QQ)
    plane = P("x+y+z", R3)
    for bad in [(0, 1), (1, 0, 2), (0, 0, 1), (-1, 0, 1)]:
        with pytest.raises(InvalidInputError):
            improper_certificate(f, plane, bad)
    with pytest.raises(InvalidInputError):
        search_improper_witness(f, plane, 1)


def test_proper_family_has_no_witness():
    f = endomorphism_from_strings(["x", "2*y", "5*z"], QQ)
    assert search_improper_witness(f, P("x+y+z", R3), 3) is None


@pytest.mark.parametrize("p", [7, 10007, 4611686018427387847], ids=str)
def test_squarefree_filter_over_a_prime_field(p):
    # True is a proof at every p; over F_7 a single line is often unlucky
    ring = Ring(3, GF(p))
    g, h = P("x^2+y*z-3*z^2", ring), P("x-2*y+z", ring)
    assert any(dynamics._probably_squarefree(g * h, seed) for seed in range(8))
    assert not any(dynamics._probably_squarefree(g * h * h, seed)
                   for seed in range(8))


def substituted_filter(g, seed):
    """The line filter through symbolic polynomials: g substituted into
    Ring(1, lf) on the same line, then poly_gcd.  Returns the verdict and
    why it was reached, with the prime of the deciding line."""
    if g.is_zero():
        return False, "zero"
    fld = g.ring.field
    fields = [GF(q) for q in dynamics._CERT_PRIMES] if fld == QQ else [fld]
    why = "undecided"
    for lf in fields:
        rng = Random(seed ^ lf.p)
        line = Ring(1, lf)
        t = line.var(0)
        images = [line.const(rng.randrange(lf.p)) + t.scale(rng.randrange(1, lf.p))
                  for _ in range(g.ring.nvars)]
        try:
            gm = _reduce_form_mod(g, Ring(g.ring.nvars, lf)).substitute(images)
        except ZeroDivisionError:
            why = "bad prime"
            continue
        if gm.is_zero() or gm.degree() < g.degree():
            why = "degree dropped"
            continue
        der = gm.derivative(0)
        if der.is_zero():
            why = "zero derivative"
            continue
        return poly_gcd(gm, der).degree() == 0, f"gcd at {lf.p}"
    return False, why


def random_dense_poly(ring, rng, degree):
    fld = ring.field
    out = ring.zero()
    for _ in range(4):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(ring.nvars)] += 1
        out = out + Polynomial(ring, {tuple(mono): fld.coerce(rng.randint(-9, 9))})
    return out


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(101), GF(10007), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF7", "GF101", "GF10007", "GF62bit"])
def test_squarefree_filter_matches_the_substituted_restriction(fld):
    # the coefficient-list filter against substitution into Ring(1, lf) and
    # poly_gcd, seed for seed: random polynomials, planted squares, and
    # lines that drop the degree
    rng = Random(4049)
    ring = Ring(3, fld)
    polys = []
    for _ in range(5):
        g, h = random_dense_poly(ring, rng, 3), random_dense_poly(ring, rng, 2)
        polys += [g, g * h, g * h * h]
    # over F_7 the top part x^7 y - x y^7 vanishes at every point of F_7^2,
    # so every line drops the degree
    polys.append(P("x^7*y-x*y^7+z^3+x", ring))
    # over QQ a top coefficient divisible by every line prime drops the degree
    polys.append(P(f"{math.prod(dynamics._CERT_PRIMES)}*x^3+x*y-z^2", ring))
    reasons = set()
    for g in polys:
        for seed in range(8):
            verdict, why = substituted_filter(g, seed)
            assert _probably_squarefree(g, seed) == verdict
            reasons.add(why if not why.startswith("gcd") else verdict)
    assert {True, False} <= reasons
    if fld in (GF(7), QQ):
        assert "degree dropped" in reasons


def test_squarefree_filter_edge_cases(monkeypatch):
    # zero derivative in characteristic 7: every restriction of x^7 + y^7
    # is a polynomial in t^7
    g = P("x^7+y^7", Ring(2, GF(7)))
    for seed in range(8):
        assert substituted_filter(g, seed)[1] in ("zero derivative", "degree dropped")
        assert not _probably_squarefree(g, seed)
    # a denominator 10007 skips the first prime; 10009 decides
    g = P("x^2/10007+x*y-3*y^2", R2)
    restrictions = count_calls(monkeypatch, dynamics, "_evaluate_coeffs")
    for seed in range(8):
        restrictions.clear()
        assert _probably_squarefree(g, seed) == substituted_filter(g, seed)[0]
        assert substituted_filter(g, seed)[1] == "gcd at 10009"
        # 10007 fails while mapping the coefficients, before any restriction
        assert [p for _, _, p in restrictions] == [10009]
    assert not _probably_squarefree(Polynomial(R2, {}), 0)


# -- periodic points --------------------------------------------------------------------

def test_fixed_form_of_squaring():
    f = squaring()
    assert fixed_form(f, 1) == P("x*y^2-x^2*y")
    assert fixed_form(f, 2) == P("x*y^4-x^4*y")
    with pytest.raises(UnsupportedScopeError):
        fixed_form(endomorphism_from_strings(["x", "y", "z"], QQ), 1)


def test_rational_periodic_points():
    f = z2_minus_1()
    div2 = periodic_points(f, 2)
    assert set(p.coords for p in div2) == {(1, 0), (0, 1), (-1, 1)}
    exact2 = periodic_points(f, 2, exact=True)
    assert set(p.coords for p in exact2) == {(0, 1), (-1, 1)}
    exact1 = periodic_points(f, 1, exact=True)
    assert [p.coords for p in exact1] == [(1, 0)]


def test_periodic_points_over_prime_field():
    f = endomorphism_from_strings(["x^2+y^2", "y^2"], GF(5))
    fld = GF(5)
    cycle = periodic_points(f, 3, exact=True)
    assert set(p.coords for p in cycle) == {(0, 1), (1, 1), (2, 1)}
    rec = f.orbit(ProjectivePoint((0, 1), fld))
    assert rec.period == 3 and rec.tail == 0
    fixed = periodic_points(f, 1)
    assert [p.coords for p in fixed] == [(1, 0)]


def test_periodic_critical_point_reports():
    hit = has_periodic_critical_point(z2_minus_1(), 2)
    assert hit.found and hit.period == 1  # infinity is critical and fixed
    free = has_periodic_critical_point(
        endomorphism_from_strings(["x^2+y^2", "x*y"], QQ), 4)
    assert not free.found and free.period is None
    assert free.scope == "closure-exact"
    with pytest.raises(UnsupportedScopeError):
        has_periodic_critical_point(
            endomorphism_from_strings(["x^2", "y^2", "z^2"], QQ), 2)


def _resultant_oracle(p, q):
    degs = tuple(g.homogeneous_degree_in_block((0, 1)) for g in (p, q))
    return sylvester_resultant(p, q, degrees=degs)


def _random_line_map(rng, fld, d, lo, hi):
    ring = Ring(2, fld)
    x, y = ring.var(0), ring.var(1)
    while True:
        forms = [ring.zero(), ring.zero()]
        for k in range(2):
            for i in range(d + 1):
                c = fld.coerce(rng.randint(lo, hi))
                forms[k] = forms[k] + (x ** i * y ** (d - i)).scale(c)
        if all(not g.is_zero() for g in forms) and \
                not jacobian_polynomial(Endomorphism(forms)).is_zero():
            return Endomorphism(forms)


# edge maps for the differential test: two non-morphisms whose Phi_1
# vanishes identically; z^2/(z+1), with (0:1) critical and fixed;
# 1 - 2/z^2, whose critical points (1:0) and (0:1) are not periodic;
# 1/(z^3+1) and z^3+2, whose double critical points at (1:0) and (0:1)
# drop deg j by two; z + 10007/z, with Res(J, Phi_1) = 10007^2; and
# z^3/(z^2+3), with a double critical point at (0:1), fixed
_EDGE_MAPS = (["x*y", "y^2"], ["x^2+x*y", "x*y+y^2"], ["x^2", "x*y+y^2"],
              ["x^2-2*y^2", "x^2"], ["y^3", "x^3+y^3"], ["x^3+2*y^3", "y^3"],
              ["x^2+10007*y^2", "x*y"], ["x^3", "x^2*y+3*y^3"])


def _sparse_line_map(rng, fld, d):
    ring = Ring(2, fld)
    while True:
        forms = [ring.zero(), ring.zero()]
        for k in range(2):
            for i in range(d + 1):
                c = fld.coerce(rng.randint(-4, 4)) if rng.random() < 0.5 else 0
                forms[k] = forms[k] + P(f"x^{i}*y^{d - i}", ring).scale(c)
        if all(not g.is_zero() for g in forms):
            return Endomorphism(forms)


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(101)], ids=str)
def test_shared_zero_test_matches_sylvester_oracle(fld):
    # per-period verdicts of the critical orbit and the first period found
    # by has_periodic_critical_point, against Res(J, Phi_s) at formal
    # degrees (Phi_s may vanish identically), over the field itself
    rng = Random(2206)
    maps = [_random_line_map(rng, fld, d, -3, 3) for d in (2, 3) for _ in range(12)]
    maps += [endomorphism_from_strings(texts, fld) for texts in _EDGE_MAPS]
    maps += [_sparse_line_map(rng, fld, rng.choice((2, 3))) for _ in range(24)]
    outcomes, seen, periods = set(), set(), set()
    for f in maps:
        bound = 3 if f.d == 2 else 2
        try:
            jf = jacobian(f).poly
        except DegeneracyError:  # J vanishes identically
            with pytest.raises(DegeneracyError):
                has_periodic_critical_point(f, bound)
            continue
        jc = _line_coeffs(jf)
        orbit = _critical_orbit(*map(_line_coeffs, f.forms), jc, fld)
        first = None
        for s in range(1, bound + 1):
            degrees = (2 * f.d - 2, f.d ** s + 1)
            expect = sylvester_resultant(jf, fixed_form(f, s),
                                         degrees=degrees).is_zero()
            got = next(orbit)
            assert got == expect, (f, s)
            outcomes.add(got)
            if expect and first is None:
                first = s
        report = has_periodic_critical_point(f, bound)
        assert (report.found, report.period) == (first is not None, first), f
        periods.add(first)
        if not f.is_morphism():
            seen.add("non-morphism")
        if fld.is_zero(jc[-1]):
            seen.add("critical (1:0)")
        if fld.is_zero(jc[0]):
            seen.add("critical (0:1)")
        if fld.is_zero(jc[-1]) and fld.is_zero(jc[-2]):
            seen.add("deg j drops by two")
    assert outcomes == {True, False}
    assert seen == {"non-morphism", "critical (1:0)", "critical (0:1)",
                    "deg j drops by two"}
    assert None in periods and len(periods) >= 3


def test_shared_zero_only_at_infinity():
    # z -> z^2 + 1: infinity is a fixed critical point, 0 wanders; the
    # dehomogenized gcd is a unit, so only the top coefficients decide
    for fld in (QQ, GF(7)):
        f = endomorphism_from_strings(["x^2+y^2", "y^2"], fld)
        jc, phic = _line_coeffs(jacobian(f).poly), _line_coeffs(fixed_form(f, 1))
        assert len(upoly.gcd(jc, phic, fld.characteristic)) == 1
        assert next(_critical_orbit(*map(_line_coeffs, f.forms), jc, fld))
        assert _resultant_oracle(jacobian(f).poly, fixed_form(f, 1)).is_zero()
        assert has_periodic_critical_point(f, 3).period == 1


def test_shared_zero_test_with_a_prime_in_a_denominator():
    p = P("x^2/10007-3*y^2")  # the zeros of x^2 - 30021*y^2
    answers = []
    for other in ("x^2-30021*y^2", "x^2-3*y^2"):
        q = P("x") * P(other)
        answers.append(len(upoly.gcd(_line_coeffs(p), _line_coeffs(q))) > 1)
        assert answers[-1] == _resultant_oracle(p, q).is_zero()
    assert answers == [True, False]


def test_resultant_zero_only_mod_a_prime_is_not_a_shared_zero():
    # z -> z + 10007/z: Res(J, Phi_1) = 10007^2, zero mod 10007 only, so
    # the forms share a zero over F_10007 but not over the closure of QQ
    f = endomorphism_from_strings(["x^2+10007*y^2", "x*y"], QQ)
    jf, phi = jacobian(f).poly, fixed_form(f, 1)
    res = _resultant_oracle(jf, phi).constant_value()
    assert res != 0 and res % 10007 == 0
    coeffs = [_line_coeffs(g) for g in (*f.forms, jf)]
    fq = GF(10007)
    assert next(_critical_orbit(*[[fq.coerce(c) for c in cs] for cs in coeffs],
                                fq))
    assert not next(_critical_orbit(*coeffs, QQ))
    assert not has_periodic_critical_point(f, 1).found


def test_periodic_critical_decision_keeps_its_error_types():
    for texts, fld, error in ((["x", "y"], QQ, InvalidInputError),
                              (["x^3", "y^3"], GF(3), DegeneracyError),
                              (["x^2", "y^2", "z^2"], QQ, UnsupportedScopeError)):
        with pytest.raises(error):
            has_periodic_critical_point(endomorphism_from_strings(texts, fld), 2)
    with pytest.raises(InvalidInputError):
        has_periodic_critical_point(z2_minus_1(), 0)
    param = Endomorphism([P("x^2+x2*y^2", R3), P("y^2", R3)])
    with pytest.raises(InvalidInputError):
        has_periodic_critical_point(param, 2)


def test_periodic_critical_decision_never_builds_iterates(monkeypatch):
    iterates = count_calls(monkeypatch, Endomorphism, "iterate")
    fixed = count_calls(monkeypatch, dynamics, "fixed_form")
    for fld in (QQ, GF(101)):
        assert has_periodic_critical_point(z2_minus_1(), 6).period == 1
        f = endomorphism_from_strings(["x^2+y^2", "x*y"], fld)
        assert not has_periodic_critical_point(f, 8).found
    assert iterates == [] and fixed == []


def _planted_conjugate(fld, d, matrix):
    """A^-1 o (x^d - y^d, x^d) o A: both critical points on a 3-cycle."""
    return endomorphism_from_strings([f"x^{d}-y^{d}", f"x^{d}"], fld).conjugate(matrix)


def _qq_line_maps(rng):
    """Seeded maps over QQ with their period bounds: dense maps of degree
    2-4 and heights up to 2^40, forms entered with denominators, (1:0)
    critical (deg j drops by one or two), and planted 3-cycle conjugates."""
    ring = Ring(2, QQ)

    def form(coeffs):
        d = len(coeffs) - 1
        return sum((P(f"x^{i}*y^{d - i}").scale(QQ.coerce(c))
                    for i, c in enumerate(coeffs) if c), ring.zero())

    def make(fc, gc):
        try:
            f = Endomorphism([form(fc), form(gc)])
            jacobian(f)
        except (DegeneracyError, InvalidInputError):
            return None
        return f

    out = []
    for d, bound in ((2, 3), (3, 2), (4, 2)):
        for height in (9, 2 ** 20, 2 ** 40):
            for _ in range(3):
                coeffs = [[rng.randint(-height, height) for _ in range(d + 1)]
                          for _ in range(2)]
                out.append((make(*coeffs), bound))
        for _ in range(3):  # denominators up to 2^20
            coeffs = [[Fraction(rng.randint(-99, 99), rng.randint(1, 2 ** 20))
                       for _ in range(d + 1)] for _ in range(2)]
            out.append((make(*coeffs), bound))
        for drop in (2, 3):  # G without x^d (and x^(d-1)*y): (1:0) critical
            if drop <= d:
                for _ in range(2):
                    fc = [rng.randint(-99, 99) for _ in range(d)] + [rng.randint(1, 99)]
                    gc = [rng.randint(-99, 99) for _ in range(d + 1 - drop)] + [0] * drop
                    out.append((make(fc, gc), bound))
        for matrix in ([[2, -1], [1, 1]], [[1, 3], [-2, 5]]):
            out.append((_planted_conjugate(QQ, d, matrix), 3))
    return [(f, bound) for f, bound in out if f is not None]


def test_integer_orbit_matches_sylvester_oracle_over_qq():
    # the exact Z[t]/(j) run, fed lists with denominators, against
    # Res(J, Phi_s) at formal degrees at every period up to the bound, and
    # the screened decision's first period against the oracle's
    rng = Random(2929)
    seen, periods = set(), set()
    for f, bound in _qq_line_maps(rng):
        jf = jacobian(f).poly
        fc, gc = (_line_coeffs(g) for g in f.forms)
        jc = _line_coeffs(jf)
        scale = Fraction(rng.randint(1, 99), rng.randint(2, 2 ** 20))
        orbit = _critical_orbit([c * scale for c in fc], [c * scale for c in gc],
                                [c / 6 for c in jc], QQ)
        first = None
        for s in range(1, bound + 1):
            expect = _resultant_oracle(jf, fixed_form(f, s)).is_zero()
            assert next(orbit) == expect, (f, s)
            if expect and first is None:
                first = s
        report = has_periodic_critical_point(f, bound)
        assert (report.found, report.period) == (first is not None, first), f
        periods.add(first)
        seen.add(f"degree {f.d}")
        if max(abs(c) for c in fc + gc) >= 2 ** 39:
            seen.add("height 2^40")
        if jc[-1] == 0:
            seen.add("critical (1:0)")
        if jc[-1] == jc[-2] == 0:
            seen.add("deg j drops by two")
    assert seen == {"degree 2", "degree 3", "degree 4", "height 2^40",
                    "critical (1:0)", "deg j drops by two"}
    assert {None, 1, 3} <= periods


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    e = info.value
    return type(e), getattr(e, "code", None), str(e)


@pytest.mark.parametrize("fld", [QQ, GF(3), GF(7), GF(DEFAULT_MODULAR_PRIME)],
                         ids=str)
def test_line_jacobian_matches_the_determinant(fld):
    # J by two convolutions equals the determinant's form up to a nonzero
    # scalar, and raises what jacobian(f) raises
    rng = Random(2930)
    p = fld.characteristic
    # in characteristic p | d every J vanishes (Euler: x*F_x + y*F_y = 0),
    # so dense maps there come from the sparse generator only
    maps = [_random_line_map(rng, fld, d, -50, 50) for d in (2, 3, 4, 5)
            if p is None or d % p for _ in range(6)]
    maps += [_sparse_line_map(rng, fld, d) for d in (1, 2, 3, 4) for _ in range(6)]
    maps += [endomorphism_from_strings(texts, fld)
             for texts in (["x^3+y^3", "x^2*y+x*y^2"], ["x", "x+y"], ["x^2", "2*x^2"])]
    agreed, raised = 0, set()
    for f in maps:
        fc, gc = (_line_coeffs(g) for g in f.forms)
        if p is None:
            fc, gc = upoly.cleared(fc, gc)
        try:
            expect = _line_coeffs(jacobian(f).poly)
        except (InvalidInputError, DegeneracyError):
            error = _raised(jacobian, f)
            assert _raised(_line_jacobian, fc, gc, p) == error
            raised.add(error)
            continue
        got = _line_jacobian(fc, gc, p)
        assert len(got) == len(expect) and any(got)
        assert all(fld.is_zero(fld.sub(fld.mul(got[i], expect[k]),
                                       fld.mul(got[k], expect[i])))
                   for i in range(len(got)) for k in range(i))
        if p is None:
            assert all(isinstance(c, int) for c in got) and math.gcd(*got) == 1
        agreed += 1
    assert agreed >= 25
    kinds = {(error[0], error[1]) for error in raised}
    assert (InvalidInputError, None) in kinds
    assert (DegeneracyError, "jacobian-degenerate") in kinds
    if fld == GF(3):  # (x^3+y^3, x^2*y+x*y^2): J vanishes identically
        f = endomorphism_from_strings(["x^3+y^3", "x^2*y+x*y^2"], fld)
        assert jacobian_polynomial(f).is_zero()
        assert _raised(_line_jacobian, *map(_line_coeffs, f.forms), 3) == (
            DegeneracyError, "jacobian-degenerate",
            "jacobian-degenerate: the Jacobian determinant vanishes identically")


# per-period verdicts at periods 1-5, as decided in Q[t]/(j) on Fractions:
# z^2 - 1 (infinity critical and fixed), planted 3-cycle conjugates of
# degree 2 and 3, a cubic with strictly preperiodic critical points,
# z + 10007/z, and 1/(z^3 + 1) (deg j drops by two)
_QQ_VERDICTS = (
    ((["x^2-y^2", "y^2"], None), [True] * 5),
    ((["x^2-y^2", "x^2"], [[2, -1], [1, 1]]), [False, False, True, False, False]),
    ((["x^3-y^3", "x^3"], [[1, 2], [-1, 1]]), [False, False, True, False, False]),
    ((["8*x^3-9*x*y^2+8*y^3", "x^3-8*x^2*y-5*x*y^2+y^3"], None),
     [False] * 5),
    ((["x^2+10007*y^2", "x*y"], None), [False] * 5),
    ((["y^3", "x^3+y^3"], None), [False] * 5),
)


def _integer_lists(texts, matrix):
    f = endomorphism_from_strings(texts, QQ)
    if matrix:
        f = f.conjugate(matrix)
    fc, gc = upoly.cleared(*map(_line_coeffs, f.forms))
    (jc,) = upoly.cleared(_line_coeffs(jacobian(f).poly))
    return fc, gc, jc


def test_qq_orbit_makes_no_fraction(monkeypatch):
    lists = [_integer_lists(*case) for case, _ in _QQ_VERDICTS]

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction arithmetic in the integer orbit")

    for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
                 "__pow__", "__rpow__", "__neg__", "__abs__"):
        monkeypatch.setattr(Fraction, name, no_fraction)
    got = [[next(orbit) for _ in range(5)]
           for orbit in (_critical_orbit(*cs, QQ) for cs in lists)]
    monkeypatch.undo()
    assert got == [verdicts for _, verdicts in _QQ_VERDICTS]


def test_qq_orbit_clears_denominators():
    # jc with Fraction(1, 2) entries, and forms scaled by one fraction,
    # give the verdicts of the cleared integer lists
    for case, verdicts in _QQ_VERDICTS:
        fc, gc, jc = _integer_lists(*case)
        half = [c * Fraction(1, 2) for c in jc]
        third = [[c * Fraction(-2, 3) for c in cs] for cs in (fc, gc)]
        orbit = _critical_orbit(*third, half, QQ)
        assert [next(orbit) for _ in range(5)] == verdicts
        assert upoly.cleared(half) == [jc]


def test_screen_prime_dividing_the_resultant_falls_back_to_exact(monkeypatch):
    f = endomorphism_from_strings(["x^2+10007*y^2", "x*y"], QQ)
    orbits = count_calls(monkeypatch, dynamics, "_critical_orbit")
    assert not has_periodic_critical_point(f, 3).found
    assert [call[-1] for call in orbits] == [GF(dynamics.DEFAULT_MODULAR_PRIME)]
    orbits.clear()
    monkeypatch.setattr(dynamics, "DEFAULT_MODULAR_PRIME", 10007)
    assert not has_periodic_critical_point(f, 3).found
    # 10007 keeps j's degree but divides Res(J, Phi_1): period 1 is
    # decided over QQ, periods 2 and 3 are ruled out at the prime
    assert [call[-1] for call in orbits] == [GF(10007), QQ]
    orbits.clear()
    # J = 10007*x^2 - y^2: 10007 divides lc(j), so the screen moves on
    g = endomorphism_from_strings(["10007*x^2+y^2", "x*y"], QQ)
    assert not has_periodic_critical_point(g, 3).found
    assert [call[-1] for call in orbits] == [GF(next(internal_primes()))]


# a cubic whose reduction mod 101 keeps every degree and has four rational
# critical points, all strictly preperiodic; so no critical point of it is
# periodic at any period, over F_101 or over QQ
_CUBIC = ["8*x^3-9*x*y^2+8*y^3", "x^3-8*x^2*y-5*x*y^2+y^3"]


@pytest.mark.parametrize("fld", [GF(101), QQ], ids=str)
def test_cubic_decided_through_period_12(fld):
    f = endomorphism_from_strings(_CUBIC, fld)
    report = has_periodic_critical_point(f, 12)
    assert not report.found and report.scope == "closure-exact"
    if fld != QQ:
        crit = critical_points(f)
        assert len(crit) == 4
        assert all(f.orbit(c).tail > 0 for c in crit)


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(101)], ids=str)
def test_gcd_degree_matches_sympy(fld):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    opts = {"domain": "QQ"} if fld == QQ else {"modulus": fld.p}
    rng = Random(1971)

    def rand(deg):
        return [fld.coerce(rng.randint(-4, 4)) for _ in range(deg)] + [fld.one()]

    def mul(a, b):
        out = [fld.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = fld.add(out[i + j], fld.mul(x, y))
        return out

    def to_sympy(c):
        vals = [sympy.Rational(v.numerator, v.denominator) if fld == QQ else v
                for v in c]
        return sympy.Poly(list(reversed(vals)), t, **opts)

    for _ in range(40):
        g = rand(rng.randint(0, 2))
        a, b = mul(g, rand(rng.randint(0, 4))), mul(g, rand(rng.randint(1, 4)))
        expect = to_sympy(a).gcd(to_sympy(b)).degree()
        assert len(upoly.gcd(a, b, fld.characteristic)) - 1 == expect, (a, b)


# -- dimension counts ---------------------------------------------------------------------

def test_dimension_formulas():
    assert dim_forms(2, 1) == 2
    assert dim_forms(2, 2) == 5
    assert dim_forms(1, 4) == 4
    assert dim_end(1, 2) == 5
    assert dim_end(2, 2) == 17
    assert generic_cert_degree(2, 1, 2, (0, 1, 2)) == 56
    assert generic_cert_degree(1, 3, 2, (0, 1)) == 9


@pytest.mark.parametrize("indices", [(-1, 0), (1, 0), (1, 1), (0,), (0, 1, 2)])
def test_certificate_degree_checks_indices_as_the_certificate_does(indices):
    # negative, non-increasing or wrongly many indices: both calls refuse
    with pytest.raises(InvalidInputError):
        generic_cert_degree(1, 1, 2, indices)
    with pytest.raises(InvalidInputError):
        improper_certificate(squaring(), P("x+y"), indices)
