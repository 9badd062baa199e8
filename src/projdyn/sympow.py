"""Symmetric powers of self-maps of the line.

Binary forms of degree n, identified with points of P^n through the fixed
coefficient chart c0*x^n + c1*x^(n-1)*y + ... + cn*y^n, carry an induced
self-map s_n(f) for every endomorphism f of P^1: the image of a form is the
form cutting out the images of its roots.  This module builds that map by a
generic-coefficient resultant, provides the Vieta product and the hyperplane
pairing, and verifies the structure of the critical locus of s_n(f) on
sampled inputs.  It also houses the period polynomials of z^(-d) + c and two
constructions used to separate period loci: maps whose critical points are
all periodic of one exact prime period, and bicritical maps whose critical
orbits wander.

Chart conventions match `dynamics`: the affine coordinate is z = x0/x1, so
infinity is (1:0), and a root (a:b) of a form contributes the linear factor
b*x - a*y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .coeff import PrimeField, RationalField, is_prime
from .dynamics import (Endomorphism, ProjectivePoint, binary_form_roots,
                       critical_points, has_periodic_critical_point, jacobian)
from .errors import (InvalidInputError, NotDivisibleError, RingMismatchError,
                     UnsupportedScopeError, VerificationError)
from .mpoly import Polynomial, Ring, _primitive_scale, divexact, embed
from .resultant import discriminant_binary, sylvester_resultant

_SAMPLE_SPREAD = 40   # affine coordinates are drawn from [-spread, spread]
_SEARCH_FACTOR = 60   # sampling attempts allowed per requested sample


def _as_point(p, fld) -> ProjectivePoint:
    if isinstance(p, ProjectivePoint):
        if p.field != fld:
            raise RingMismatchError("point lives over a different field")
    else:
        p = ProjectivePoint(tuple(p), fld)
    if len(p.coords) != 2:
        raise InvalidInputError("points of the line have two coordinates")
    return p


class PointTuple:
    """Ordered tuple of normalized points of the line."""

    __slots__ = ("points",)

    def __init__(self, points: Sequence, fld=None):
        items = list(points)
        if not items:
            raise InvalidInputError("empty point tuple")
        if fld is None:
            for p in items:
                if isinstance(p, ProjectivePoint):
                    fld = p.field
                    break
            if fld is None:
                raise InvalidInputError("coordinate pairs need an explicit field")
        self.points = tuple(_as_point(p, fld) for p in items)

    @property
    def field(self):
        return self.points[0].field

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return isinstance(other, PointTuple) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.points) + ")"


def _as_tuple(points, fld) -> PointTuple:
    if isinstance(points, PointTuple):
        if points.field != fld:
            raise RingMismatchError("points live over a different field")
        return points
    return PointTuple(points, fld)


class SymForm:
    """Binary form recorded by its coefficient point of P^n.

    Coefficients are normalized projectively: coprime integers with positive
    first nonzero entry over Q, first nonzero entry 1 over a prime field.
    """

    __slots__ = ("field", "coefficients")

    def __init__(self, fld, coefficients: Sequence):
        vals = [fld.coerce(c) for c in coefficients]
        if not vals or all(fld.is_zero(v) for v in vals):
            raise InvalidInputError("a form needs a nonzero coefficient")
        if isinstance(fld, RationalField):
            scale = _primitive_scale(vals)
            vals = [v * scale for v in vals]
            first = next(v for v in vals if v)
            if first < 0:
                vals = [-v for v in vals]
        else:
            first = next(v for v in vals if not fld.is_zero(v))
            inv = fld.inv(first)
            vals = [fld.mul(v, inv) for v in vals]
        self.field = fld
        self.coefficients = tuple(vals)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def point(self) -> ProjectivePoint:
        return ProjectivePoint(self.coefficients, self.field)

    def evaluate(self, p):
        """Value of the form at a point of the line (well defined up to scale)."""
        a, b = _as_point(p, self.field).coords
        fld = self.field
        n = self.degree
        acc = fld.zero()
        for k, c in enumerate(self.coefficients):
            acc = fld.add(acc, fld.mul(c, fld.mul(fld.pw(a, n - k), fld.pw(b, k))))
        return acc

    def vanishes_at(self, p) -> bool:
        return self.field.is_zero(self.evaluate(p))

    def image_under(self, power: Endomorphism) -> "SymForm":
        """Image form under a symmetric power, via the coefficient chart."""
        return SymForm(self.field, power.apply(self.point()).coords)

    def as_polynomial(self, ring: Ring, pair=(0, 1)) -> Polynomial:
        if ring.field != self.field:
            raise RingMismatchError("ring field does not match the form")
        i, j = pair
        n = self.degree
        out = ring.zero()
        for k, c in enumerate(self.coefficients):
            mono = [0] * ring.nvars
            mono[i] += n - k
            mono[j] += k
            out = out + Polynomial(ring, {tuple(mono): self.field.one()}).scale(c)
        return out

    def __mul__(self, other: "SymForm") -> "SymForm":
        if not isinstance(other, SymForm):
            return NotImplemented
        if self.field != other.field:
            raise RingMismatchError("forms live over different fields")
        fld = self.field
        out = [fld.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] = fld.add(out[i + j], fld.mul(a, b))
        return SymForm(fld, out)

    def __eq__(self, other):
        return (isinstance(other, SymForm) and self.field == other.field
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.field.spec(), self.coefficients))

    def __repr__(self):
        return "SymForm" + repr(tuple(str(c) for c in self.coefficients))


def vieta(points, fld=None) -> SymForm:
    """Product form (b1*x - a1*y)...(bn*x - an*y) over the given points.

    Symmetric in its arguments and multiplicative under concatenation.
    """
    pts = points if isinstance(points, PointTuple) else PointTuple(points, fld)
    field = pts.field
    conv = [field.one()]
    for p in pts:
        a, b = p.coords
        nxt = [field.zero()] * (len(conv) + 1)
        for i, c in enumerate(conv):
            nxt[i] = field.add(nxt[i], field.mul(c, b))
            nxt[i + 1] = field.sub(nxt[i + 1], field.mul(c, a))
        conv = nxt
    return SymForm(field, conv)


def symmetric_power(f: Endomorphism, n: int) -> Endomorphism:
    """The induced self-map of P^n sending a form to the form of its images.

    Built by eliminating (x, y) from the generic form and v*f0 - u*f1; the
    coefficient of u^(n-k) v^k is the k-th coordinate.  Same degree as f.
    """
    if f.n != 1:
        raise UnsupportedScopeError("symmetric powers take self-maps of the line")
    if f.nparams:
        raise InvalidInputError("symmetric powers need a parameter-free map")
    if n < 1:
        raise InvalidInputError("the power must be >= 1")
    fld = f.field
    scratch = Ring(n + 5, fld)  # [x, y | c0..cn | u, v]
    fx = [embed(g, scratch, [0, 1]) for g in f.forms]
    terms = {}
    for k in range(n + 1):
        mono = [0] * scratch.nvars
        mono[0] = n - k
        mono[1] = k
        mono[2 + k] = 1
        terms[tuple(mono)] = fld.one()
    generic = Polynomial(scratch, terms)
    u = scratch.var(n + 3)
    v = scratch.var(n + 4)
    res = sylvester_resultant(generic, v * fx[0] - u * fx[1], pair=(0, 1))
    target = Ring(n + 1, fld)
    buckets: list[dict] = [dict() for _ in range(n + 1)]
    for m, c in res.terms.items():
        assert m[0] == 0 and m[1] == 0 and m[n + 3] + m[n + 4] == n
        buckets[m[n + 4]][m[2:n + 3]] = c
    return Endomorphism([Polynomial(target, b) for b in buckets])


def hyperplane_of_point(p, m: int, fld=None) -> Polynomial:
    """Linear form in c0..cm pairing a coefficient vector with a point.

    The coefficients are the m-th power monomials of the point, so the form
    vanishes exactly on the degree-m forms passing through it.
    """
    if m < 1:
        raise InvalidInputError("the degree must be >= 1")
    if fld is None:
        if not isinstance(p, ProjectivePoint):
            raise InvalidInputError("coordinate pairs need an explicit field")
        fld = p.field
    a, b = _as_point(p, fld).coords
    ring = Ring(m + 1, fld)
    out = ring.zero()
    for k in range(m + 1):
        out = out + ring.var(k).scale(fld.mul(fld.pw(a, m - k), fld.pw(b, k)))
    return out


def _sample_hyperplane_form(p: ProjectivePoint, m: int, rng: Random) -> SymForm:
    """Uniform-ish sample of a degree-m form vanishing at the point, exact."""
    fld = p.field
    a, b = p.coords
    veronese = [fld.mul(fld.pw(a, m - k), fld.pw(b, k)) for k in range(m + 1)]
    pivot = next(k for k, v in enumerate(veronese) if not fld.is_zero(v))
    while True:
        coeffs = [fld.coerce(rng.randint(-9, 9)) for _ in range(m + 1)]
        acc = fld.zero()
        for k, c in enumerate(coeffs):
            if k != pivot:
                acc = fld.add(acc, fld.mul(veronese[k], c))
        coeffs[pivot] = fld.neg(fld.div(acc, veronese[pivot]))
        if not all(fld.is_zero(c) for c in coeffs):
            return SymForm(fld, coeffs)


def check_fhp(f: Endomorphism, p, n: int = 2, *, samples: int = 50,
              seed: int = 0, power: Optional[Endomorphism] = None) -> bool:
    """Do sampled forms through a point map to forms through its image?

    Exact evaluation on each sample; `power` may override the symmetric
    power (useful as a negative control).
    """
    fld = f.field
    pt = _as_point(p, fld)
    big = power if power is not None else symmetric_power(f, n)
    if power is not None:
        n = big.n
    image = f.apply(pt)
    rng = Random(seed)
    for _ in range(samples):
        phi = _sample_hyperplane_form(pt, n, rng)
        if not phi.image_under(big).vanishes_at(image):
            return False
    return True


def collision_locus_member(f: Endomorphism, points, fld=None) -> bool:
    """True iff two distinct points of the tuple have the same image."""
    pts = _as_tuple(points, fld if fld is not None else f.field)
    images = [f.apply(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j] and images[i] == images[j]:
                return True
    return False


def _verify_split(form: Polynomial, roots: Sequence[ProjectivePoint]) -> None:
    """Check the binary form is a product of the given rational roots."""
    ring = form.ring
    fld = ring.field
    rem = form
    for pt in roots:
        a, b = pt.coords
        lin = ring.var(0).scale(b) + ring.var(1).scale(fld.neg(a))
        while True:
            try:
                rem = divexact(rem, lin)
            except NotDivisibleError:
                break
    if rem.degree() != 0:
        raise UnsupportedScopeError(
            "the critical locus does not split over the working field")


def _collision_pairs(f: Endomorphism, count: int, rng: Random):
    """Distinct point pairs with equal images, found by root search.

    Pairs (A, B) solve the divided difference form T(x, y) built from the
    coordinates of f; its specialization at x = A is a binary form whose
    roots are the partners of A.
    """
    fld = f.field
    big = Ring(4, fld)
    fx = [embed(g, big, [0, 1]) for g in f.forms]
    fy = [embed(g, big, [2, 3]) for g in f.forms]
    numerator = fx[0] * fy[1] - fx[1] * fy[0]
    diagonal = big.var(0) * big.var(3) - big.var(1) * big.var(2)
    divided = divexact(numerator, diagonal)
    line = Ring(2, fld)
    pairs = []
    for _ in range(_SEARCH_FACTOR * count):
        if len(pairs) >= count:
            break
        a = fld.coerce(rng.randint(-_SAMPLE_SPREAD, _SAMPLE_SPREAD))
        anchor = ProjectivePoint((a, 1), fld)
        images = [big.const(a), big.one(), big.var(2), big.var(3)]
        partner_form = divided.substitute(images)
        slim = Polynomial(line, {(m[2], m[3]): c
                                 for m, c in partner_form.terms.items()})
        if slim.is_zero():
            continue
        for b in binary_form_roots(slim):
            if b != anchor and f.apply(anchor) == f.apply(b):
                pairs.append((anchor, b))
                break
    return pairs


@dataclass
class CriticalLocusReport:
    """Sampled verification of the critical locus of a symmetric power."""
    critical_points: tuple
    samples: int
    hyperplane_ok: bool      # forms through a critical point are critical
    collision_ok: bool       # forms with a collision pair are critical
    generic_ok: bool         # forms in neither class are not critical
    discriminant_ok: bool    # images of collision forms have zero discriminant

    @property
    def passed(self) -> bool:
        return (self.hyperplane_ok and self.collision_ok
                and self.generic_ok and self.discriminant_ok)


def critical_locus_structure_check(f: Endomorphism, n: int, *,
                                   samples: int = 50,
                                   seed: int = 0) -> CriticalLocusReport:
    """Sampled check that the critical forms of s_n(f) are exactly the
    forms through a critical point of f plus the forms with a collision pair.

    Requires the critical points of f to be rational over the working field
    (verified by deflating the Jacobian form); raises otherwise.
    """
    if f.n != 1 or f.nparams:
        raise UnsupportedScopeError("structure check takes a parameter-free "
                                    "self-map of the line")
    if f.d < 2 or n < 2:
        raise InvalidInputError("needs degree >= 2 and power >= 2")
    fld = f.field
    crits = critical_points(f)
    _verify_split(jacobian(f).poly, crits)
    big = symmetric_power(f, n)
    jf_big = jacobian(big).poly
    crit_set = set(crits)
    rng = Random(seed)
    line = Ring(2, fld)

    hyperplane_ok = True
    for p in crits:
        for _ in range(samples):
            phi = _sample_hyperplane_form(p, n, rng)
            if not fld.is_zero(jf_big.evaluate(phi.coefficients)):
                hyperplane_ok = False

    pairs = _collision_pairs(f, samples, rng)
    if not pairs:
        raise UnsupportedScopeError("no rational collision pairs available "
                                    "to sample")
    collision_ok = True
    discriminant_ok = True
    for a, b in pairs:
        extras = []
        while len(extras) < n - 2:
            q = ProjectivePoint(
                (fld.coerce(rng.randint(-_SAMPLE_SPREAD, _SAMPLE_SPREAD)), 1), fld)
            if q != a and q != b and q not in extras:
                extras.append(q)
        phi = vieta([a, b] + extras, fld)
        if not fld.is_zero(jf_big.evaluate(phi.coefficients)):
            collision_ok = False
        disc = discriminant_binary(phi.image_under(big).as_polynomial(line))
        if not disc.is_zero():
            discriminant_ok = False

    generic_ok = True
    produced = 0
    for _ in range(_SEARCH_FACTOR * samples):
        if produced >= samples:
            break
        pts = [ProjectivePoint(
            (fld.coerce(rng.randint(-_SAMPLE_SPREAD, _SAMPLE_SPREAD)), 1), fld)
            for _ in range(n)]
        if len(set(pts)) != n or any(p in crit_set for p in pts):
            continue
        images = [f.apply(p) for p in pts]
        if len(set(images)) != n:
            continue
        produced += 1
        phi = vieta(pts, fld)
        if fld.is_zero(jf_big.evaluate(phi.coefficients)):
            generic_ok = False
    if produced < samples:
        raise UnsupportedScopeError("could not sample enough generic tuples")

    return CriticalLocusReport(tuple(crits), samples, hyperplane_ok,
                               collision_ok, generic_ok, discriminant_ok)


def admissible_periods(s: int, n: int) -> set[int]:
    """Periods t with t | ms for some 1 <= m <= n, by brute force."""
    if s < 1 or n < 1:
        raise InvalidInputError("both arguments must be >= 1")
    out = set()
    for m in range(1, n + 1):
        for t in range(1, m * s + 1):
            if (m * s) % t == 0:
                out.add(t)
    return out


def periodic_critical_form(f: Endomorphism, p, q, s: int, m: int,
                           n: int) -> SymForm:
    """Form with n roots built to be critical and s-periodic for s_n(f).

    Roots: the orbit of a periodic critical point under f^s (m of them),
    padded with a fixed point.  Preconditions are checked exactly and the
    output is verified against the symmetric power before being returned.
    """
    fld = f.field
    if f.n != 1 or f.nparams:
        raise UnsupportedScopeError("takes a parameter-free self-map of the line")
    if not 1 <= m <= n:
        raise InvalidInputError("need 1 <= m <= n")
    if s < 1:
        raise InvalidInputError("the period must be >= 1")
    crit = _as_point(p, fld)
    fixed = _as_point(q, fld)
    if not fld.is_zero(jacobian(f).poly.evaluate(crit.coords)):
        raise InvalidInputError("the point is not critical")
    record = f.orbit(crit, max_steps=m * s + 1)
    if record.tail != 0 or record.period is None or (m * s) % record.period:
        raise InvalidInputError("the critical point is not periodic with "
                                "period dividing m*s")
    if f.apply(fixed) != fixed:
        raise InvalidInputError("the padding point is not fixed")

    roots = [crit]
    current = crit
    for _ in range(m - 1):
        for _ in range(s):
            current = f.apply(current)
        roots.append(current)
    roots.extend([fixed] * (n - m))
    phi = vieta(roots, fld)

    big = symmetric_power(f, n)
    if not fld.is_zero(jacobian(big).poly.evaluate(phi.coefficients)):
        raise VerificationError("constructed form is not critical")
    pt = phi.point()
    for _ in range(s):
        pt = big.apply(pt)
    if pt != phi.point():
        raise VerificationError("constructed form is not s-periodic")
    return phi


# -- period polynomials of z^(-d) + c --------------------------------------------------

def _ipoly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ipoly_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _ipoly_mul(out, a)
    return out


@dataclass(frozen=True)
class PeriodPolynomial:
    """Numerator of the s-th forward value of 0 under z^(-d) + c.

    Integer coefficients, lowest degree first, content 1.  Roots are the
    parameters for which 0 returns to itself in s steps.
    """
    d: int
    s: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, fld, c):
        cv = fld.coerce(c)
        acc = fld.zero()
        for g in reversed(self.coefficients):
            acc = fld.add(fld.mul(acc, cv), fld.coerce(g))
        return acc

    def to_list(self) -> list[int]:
        return list(self.coefficients)


def period_polynomial(d: int, s: int) -> PeriodPolynomial:
    """Numerator of f^s(0) for f = z^(-d) + c, content-normalized.

    Tracks the pair (numerator, denominator) through the recurrence
    N' = D^d + c N^d, D' = N^d; the two stay coprime, so the numerator
    vanishes exactly when the orbit of 0 closes up in s steps.
    """
    if d < 2:
        raise InvalidInputError("the degree must be >= 2")
    if s < 2:
        raise InvalidInputError("the period must be >= 2")
    num, den = [0], [1]
    for _ in range(s):
        num_d = _ipoly_pow(num, d)
        den_d = _ipoly_pow(den, d)
        lifted = [0] + num_d  # multiply by c
        width = max(len(den_d), len(lifted))
        num = [(den_d[i] if i < len(den_d) else 0)
               + (lifted[i] if i < len(lifted) else 0) for i in range(width)]
        den = num_d
    while num and num[-1] == 0:
        num.pop()
    content = 0
    for g in num:
        content = math.gcd(content, g)
    coeffs = [g // content for g in num]
    expected = (d ** (s - 1) - 1) // (d - 1)
    if len(coeffs) - 1 != expected:
        raise VerificationError("period polynomial degree drifted from the "
                                "closed form")
    return PeriodPolynomial(d, s, tuple(coeffs))


def reciprocal_power_map(d: int, c, fld) -> Endomorphism:
    """The map z -> z^(-d) + c as a pair of forms."""
    if d < 1:
        raise InvalidInputError("the degree must be >= 1")
    ring = Ring(2, fld)
    x, y = ring.var(0), ring.var(1)
    return Endomorphism([y ** d + (x ** d).scale(fld.coerce(c)), x ** d])


def find_pcf_parameter(d: int, p: int, fld):
    """Parameter making every critical point of z^(-d) + c have period p.

    Searches the field roots of the period polynomial and verifies the
    orbit of 0 exactly; None when no root of exact period exists.  The map
    is bicritical with 0 -> infinity forced, so for prime p a closed orbit
    of length p cannot shrink.
    """
    if not is_prime(p):
        raise InvalidInputError("the period must be prime")
    poly = period_polynomial(d, p)
    ring = Ring(2, fld)
    form = ring.zero()
    for i, g in enumerate(poly.coefficients):
        if g:
            mono = [0] * ring.nvars
            mono[0] = i
            mono[1] = poly.degree - i
            form = form + Polynomial(ring, {tuple(mono): fld.one()}).scale(
                fld.coerce(g))
    origin = ProjectivePoint((0, 1), fld)
    for root in binary_form_roots(form):
        if fld.is_zero(root.coords[1]):
            continue  # projective root at infinity is not a parameter
        c = root.coords[0]
        candidate = reciprocal_power_map(d, c, fld)
        record = candidate.orbit(origin, max_steps=p + 1)
        if record.tail == 0 and record.period == p:
            return c
    return None


def bicritical_wanderer(d: int, zeta, fld) -> Endomorphism:
    """The map z -> 1 + (zeta - 1)/z^d for a nontrivial d-th root of unity.

    Totally ramified at 0 and infinity with critical orbit
    0 -> infinity -> 1 -> zeta fixed, so neither critical point is periodic;
    this is verified (periods up to 6) before the map is returned.
    """
    if d < 2:
        raise InvalidInputError("the degree must be >= 2")
    if isinstance(fld, PrimeField) and d % fld.p == 0:
        raise InvalidInputError("the degree is divisible by the characteristic")
    z = fld.coerce(zeta)
    if not fld.is_zero(fld.sub(fld.pw(z, d), fld.one())) or \
            fld.is_zero(fld.sub(z, fld.one())):
        raise InvalidInputError("needs a d-th root of unity other than 1")
    ring = Ring(2, fld)
    x, y = ring.var(0), ring.var(1)
    f = Endomorphism([x ** d + (y ** d).scale(fld.sub(z, fld.one())), x ** d])
    expected = [ProjectivePoint(c, fld)
                for c in ((0, 1), (1, 0), (1, 1), (z, 1), (z, 1))]
    current = expected[0]
    for nxt in expected[1:]:
        current = f.apply(current)
        if current != nxt:
            raise VerificationError("critical orbit drifted from 0 -> "
                                    "infinity -> 1 -> zeta")
    if has_periodic_critical_point(f, 6).found:
        raise VerificationError("a critical point is periodic")
    return f
