"""Endomorphisms of projective space and their hypersurface dynamics.

An endomorphism is a tuple of n+1 forms of a common degree d in the first
n+1 ring variables; trailing ring variables are free parameters carried
along symbolically.  Built on top of this: iteration, orbits, Jacobians,
pushforward of hypersurfaces (image computation via elimination), resultant
certificates for improper intersection of iterated images, fixed-point
forms, and counting helpers for the relevant moduli dimensions.

Conventions for n = 1: the affine chart is z = x0/x1, so infinity is (1:0)
and the origin is (0:1).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence, Union

from .coeff import (DEFAULT_MODULAR_PRIME, GF, PrimeField, RationalField,
                    internal_primes, parse_field)
from .errors import (DegeneracyError, InvalidInputError, NotDivisibleError,
                     RingMismatchError, UnsupportedScopeError)
from . import upoly
from .mpoly import (Polynomial, Ring, _block_coefficients, _primitive_scale,
                    default_aliases, determinant, divexact, embed,
                    format_polynomial, parse_polynomial, poly_gcd,
                    primitive_part, squarefree_part)
from .resultant import _probe_count, macaulay_resultant, sylvester_resultant

_CERT_PRIMES = (10007, 10009, 10037, 10039, 10061)
_EXTRA_CERT_TRIALS = 8       # trials drawn when the planned ones do not decide
_SCAN_LIMIT = 1_000_000      # largest prime field swept exhaustively
_FACTOR_LIMIT = 10 ** 12     # largest integer factored for rational roots
_PARSE_VARS = 64             # widest ring that parsing may infer
_PARSE_ALIASES = default_aliases(3)  # x, y, z for x0, x1, x2 in any ring width


# -- points -------------------------------------------------------------------------

class ProjectivePoint:
    """Point of P^n with coordinates normalized so the last nonzero one is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, coords: Sequence, fld):
        vals = [fld.coerce(c) for c in coords]
        last = None
        for i in range(len(vals) - 1, -1, -1):
            if not fld.is_zero(vals[i]):
                last = i
                break
        if last is None:
            raise InvalidInputError("projective points need a nonzero coordinate")
        inv = fld.inv(vals[last])
        self.field = fld
        self.coords = tuple(fld.mul(v, inv) for v in vals)

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.spec(), self.coords))

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


@dataclass
class OrbitRecord:
    """Forward orbit until first repetition: tail length and exact period."""
    points: list
    tail: Optional[int]
    period: Optional[int]

    @property
    def terminated(self) -> bool:
        return self.period is not None


@dataclass
class PCFSearchReport:
    """Outcome of a periodic-critical-point search, with its proof scope."""
    found: bool
    period: Optional[int]
    scope: str


# -- hypersurfaces ------------------------------------------------------------------

class HypersurfaceForm:
    """Primitive defining form of a hypersurface in the projective block."""

    __slots__ = ("poly", "block_size", "degree")

    def __init__(self, poly: Polynomial, block_size: Optional[int] = None):
        bs = poly.ring.nvars if block_size is None else block_size
        block = tuple(range(bs))
        d = poly.homogeneous_degree_in_block(block)
        if poly.is_zero() or d is None or d < 1:
            raise InvalidInputError(
                "a hypersurface needs a nonzero block-homogeneous form of degree >= 1")
        self.poly = primitive_part(poly)
        self.block_size = bs
        self.degree = d

    def contains(self, point: ProjectivePoint) -> bool:
        fld = self.poly.ring.field
        if self.poly.ring.nvars != self.block_size:
            raise InvalidInputError("containment needs a parameter-free form")
        return fld.is_zero(self.poly.evaluate(point.coords))

    def __eq__(self, other):
        return (isinstance(other, HypersurfaceForm)
                and self.block_size == other.block_size and self.poly == other.poly)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"V({format_polynomial(self.poly)})"


def _as_form(phi, block_size: int) -> HypersurfaceForm:
    if isinstance(phi, HypersurfaceForm):
        if phi.block_size != block_size:
            raise InvalidInputError("hypersurface block does not match the map")
        return phi
    return HypersurfaceForm(phi, block_size)


# -- endomorphisms -------------------------------------------------------------------

def _joint_primitive(forms: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Scale the tuple by one constant: joint content out, canonical sign/monic."""
    ring = forms[0].ring
    fld = ring.field
    if isinstance(fld, RationalField):
        scale = _primitive_scale(c for f in forms for c in f.terms.values())
        lead = None
        for f in forms:
            if not f.is_zero():
                lead = f.leading()[1] * scale
                break
        if lead is not None and lead < 0:
            scale = -scale
    else:
        lead = None
        for f in forms:
            if not f.is_zero():
                lead = f.leading()[1]
                break
        scale = fld.inv(lead) if lead is not None else fld.one()
    return tuple(f.scale(scale) for f in forms)


class Endomorphism:
    """Self-map of P^n given by n+1 forms of one degree in the leading block."""

    def __init__(self, forms: Sequence[Polynomial]):
        if not forms:
            raise InvalidInputError("no coordinate forms given")
        ring = forms[0].ring
        for f in forms[1:]:
            if f.ring != ring:
                raise RingMismatchError("coordinate forms live in different rings")
        n1 = len(forms)
        if ring.nvars < n1:
            raise InvalidInputError("ring has fewer variables than coordinates")
        block = tuple(range(n1))
        degrees = set()
        for f in forms:
            if f.is_zero():
                raise InvalidInputError("zero coordinate form")
            d = f.homogeneous_degree_in_block(block)
            if d is None or d < 1:
                raise InvalidInputError(
                    "coordinate forms must be block-homogeneous of degree >= 1")
            degrees.add(d)
        if len(degrees) != 1:
            raise InvalidInputError("coordinate forms have mixed degrees")
        self.ring = ring
        self.n = n1 - 1
        self.d = degrees.pop()
        self.forms = _joint_primitive(forms)
        self._iterates: dict[int, "Endomorphism"] = {1: self}
        self._is_morphism: Optional[bool] = None

    @property
    def field(self):
        return self.ring.field

    @property
    def nparams(self) -> int:
        return self.ring.nvars - (self.n + 1)

    def __eq__(self, other):
        return (isinstance(other, Endomorphism) and self.ring == other.ring
                and self.forms == other.forms)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        inner = ", ".join(format_polynomial(f) for f in self.forms)
        return f"({inner})"

    # -- morphism test -------------------------------------------------------

    def is_morphism(self) -> bool:
        """True iff the coordinate forms share no zero over the closure."""
        if self._is_morphism is None:
            res = macaulay_resultant(list(self.forms), self.n + 1)
            self._is_morphism = not res.is_zero()
        return self._is_morphism

    # -- iteration and evaluation ---------------------------------------------

    def iterate(self, k: int) -> "Endomorphism":
        if k < 1:
            raise InvalidInputError("iterate count must be >= 1")
        if k not in self._iterates:
            prev = self.iterate(k - 1)
            images = list(prev.forms) + [self.ring.var(j)
                                         for j in range(self.n + 1, self.ring.nvars)]
            comps = [f.substitute(images) for f in self.forms]
            self._iterates[k] = Endomorphism(comps)
        return self._iterates[k]

    def apply(self, point: ProjectivePoint) -> ProjectivePoint:
        if self.nparams:
            raise InvalidInputError("point evaluation needs a parameter-free map")
        vals = [f.evaluate(point.coords) for f in self.forms]
        if all(self.field.is_zero(v) for v in vals):
            raise DegeneracyError("indeterminate-point",
                                  "the map is undefined at this point")
        return ProjectivePoint(vals, self.field)

    def orbit(self, point: ProjectivePoint, max_steps: int = 64) -> OrbitRecord:
        seen = {point: 0}
        points = [point]
        current = point
        for step in range(1, max_steps + 1):
            current = self.apply(current)
            if current in seen:
                j = seen[current]
                return OrbitRecord(points, tail=j, period=step - j)
            seen[current] = step
            points.append(current)
        return OrbitRecord(points, tail=None, period=None)

    def conjugate(self, matrix: Sequence[Sequence]) -> "Endomorphism":
        """A^(-1) o f o A for an invertible matrix over the coefficient field."""
        fld = self.field
        n1 = self.n + 1
        a = [[fld.coerce(x) for x in row] for row in matrix]
        if len(a) != n1 or any(len(r) != n1 for r in a):
            raise InvalidInputError("conjugation matrix has the wrong shape")
        ring = self.ring
        entries = [[ring.const(x) for x in row] for row in a]
        if determinant(entries).is_zero():
            raise InvalidInputError("conjugation matrix is singular")
        images = [sum((ring.var(k).scale(a[j][k]) for k in range(n1)), ring.zero())
                  for j in range(n1)] + ring.gens()[n1:]
        moved = [f.substitute(images) for f in self.forms]
        # the adjugate, det(A) A^(-1), from cofactors: the forms come out
        # scaled by det(A), which Endomorphism normalizes away
        out = []
        for j in range(n1):
            g = self.ring.zero()
            for k in range(n1):
                cofactor = determinant([row[:j] + row[j + 1:] for r, row in enumerate(entries)
                                        if r != k]).constant_value()
                g = g + moved[k].scale(fld.neg(cofactor) if (j + k) % 2 else cofactor)
            out.append(g)
        return Endomorphism(out)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "field": self.field.spec(),
                "forms": [format_polynomial(f) for f in self.forms]}

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "Endomorphism":
        if isinstance(data, str):
            data = json.loads(data)
        fld = parse_field(data["field"])
        n = int(data["n"])
        texts = list(data["forms"])
        if len(texts) != n + 1:
            raise InvalidInputError("form count does not match n")
        f = endomorphism_from_strings(texts, fld)
        if f.d != int(data["d"]) or f.n != n:
            raise InvalidInputError("declared shape does not match the forms")
        return f


def endomorphism_from_strings(texts: Sequence[str], fld,
                              nvars: Optional[int] = None) -> Endomorphism:
    """Build a map from polynomial strings; ring size is inferred if omitted.

    The x/y/z shorthand is always understood; extra variables are x3, x4, ...
    An inferred ring holds at most 64 variables; a declared `nvars` lifts
    that bound.
    """
    return Endomorphism(_parse_forms(texts, fld, len(texts), nvars))


def _parse_forms(texts: Sequence[str], fld, min_width: int,
                 nvars: Optional[int] = None) -> list[Polynomial]:
    """Parse forms into one ring: `nvars` variables, or by default the fewest
    that hold every variable used and at least `min_width`.  Texts are read
    in a ring of `nvars` or _PARSE_VARS variables, whichever is wider, so
    an inferred ring stops at _PARSE_VARS.  The x/y/z shorthand stands for
    x0, x1, x2."""
    ring = Ring(max(nvars or 0, _PARSE_VARS), fld)
    parsed = [parse_polynomial(t, ring, aliases=_PARSE_ALIASES) for t in texts]
    width = max([min_width] + [v + 1 for p in parsed for v in p.variables()])
    if nvars is None:
        nvars = width
    elif nvars < width:
        raise InvalidInputError("declared variable count is too small")
    ring = Ring(nvars, fld)
    return [Polynomial(ring, {m[:nvars]: c for m, c in p.terms.items()})
            for p in parsed]


# -- jacobians -----------------------------------------------------------------------

def jacobian_polynomial(f: Endomorphism) -> Polynomial:
    """det of the (n+1)x(n+1) matrix of partials, rows by component, unreduced."""
    n1 = f.n + 1
    rows = [[f.forms[i].derivative(j) for j in range(n1)] for i in range(n1)]
    return determinant(rows)


def jacobian(f: Endomorphism) -> HypersurfaceForm:
    """Critical hypersurface of the map, as a primitive form."""
    if f.d == 1:
        raise InvalidInputError("degree-1 maps have a constant Jacobian")
    j = jacobian_polynomial(f)
    if j.is_zero():
        raise DegeneracyError("jacobian-degenerate",
                              "the Jacobian determinant vanishes identically")
    return HypersurfaceForm(j, f.n + 1)


# -- pushforward of hypersurfaces -----------------------------------------------------

def _extended_ring(ring: Ring, n: int):
    """[x-block | y-block | params] with maps in and out of the base ring."""
    n1 = n + 1
    nparams = ring.nvars - n1
    ext = Ring(2 * n1 + nparams, ring.field)
    into = list(range(n1)) + list(range(2 * n1, ext.nvars))
    # x-slots of the reverse map are placeholders: embed only reads an entry
    # when its exponent is nonzero, and x-degrees are checked to be 0 first.
    back = [0] * ext.nvars
    for i in range(n1):
        back[n1 + i] = i
    for j in range(nparams):
        back[2 * n1 + j] = n1 + j
    return ext, into, back


def _homogeneous_blocks(forms: Sequence[Polynomial], candidates):
    """The nonempty candidate blocks in which every form is jointly
    homogeneous (one block degree per form), or None when there are none.

    Only such blocks are usable for interpolation: graph-ring forms offer
    the y block and the parameters, certificate forms the parameters.
    """
    blocks = [blk for blk in candidates
              if blk and all(len({sum(m[v] for v in blk) for m in g.terms}) <= 1
                             for g in forms)]
    return blocks or None


def _strip_param_content(g: Polynomial, block_size: int) -> Polynomial:
    """Remove any factor free of the block variables (never a hypersurface)."""
    if g.is_zero() or g.ring.nvars == block_size:
        return g
    content = None
    for coeff in _block_coefficients(g, block_size).values():
        content = coeff if content is None else poly_gcd(content, coeff)
        if content.degree() == 0:
            return g
    return divexact(g, content)


def _probably_squarefree(g: Polynomial, seed: int = 0) -> bool:
    """Restrict g to a random line and test the restriction for a square.

    Over QQ the line lives mod a small prime; over F_p it is drawn over
    F_p itself, with no reduction step.  The restriction is a coefficient
    list over the line's field, and gcd(r, r') runs by Euclid on it.  True
    is a proof at every p: if g = h^2 k with deg h >= 1, a restriction that
    keeps deg g keeps every factor's degree, so h's restriction, of degree
    >= 1, divides the restriction twice and it is not squarefree.  False
    only means the cheap filter was inconclusive: a line that drops the
    degree, a bad prime, or a restriction with zero derivative.
    """
    if g.is_zero():
        return False
    fld = g.ring.field
    fields = map(GF, _CERT_PRIMES) if isinstance(fld, RationalField) else [fld]
    degree = g.degree()
    for lf in fields:
        rng = Random(seed ^ lf.p)
        line = [(rng.randrange(lf.p), rng.randrange(1, lf.p))
                for _ in range(g.ring.nvars)]
        try:
            terms = {m: lf.coerce(c) for m, c in g.terms.items()}
        except ZeroDivisionError:
            continue  # bad prime
        r = _evaluate_coeffs(terms, line, lf.p)
        if len(r) <= degree:
            continue  # unlucky line or bad prime
        der = upoly.derivative(r, lf.p)
        if not der:
            continue
        return len(upoly.gcd(r, der, lf.p)) == 1
    return False


def _evaluate_coeffs(terms: dict, point: Sequence, p: int,
                     modulus: Optional[list] = None) -> list:
    """The sum of c * prod_i point[i]^m_i over terms = {m: c}, where the
    point's entries are polynomials in t over F_p, low degree first; reduced
    mod `modulus` when one is given.  Trimmed, so [] for zero."""
    m = None if modulus is None else upoly.monic(modulus, p)
    powers = []  # powers[i][e]: point[i]^e
    for x, top in zip(point, map(max, zip(*terms))):
        row = [[1]]
        for _ in range(top):
            row.append(upoly.mulmod(row[-1], x, m, p))
        powers.append(row)
    parts = []
    for mono, c in terms.items():
        part = None
        for row, e in zip(powers, mono):
            if e:
                part = row[e] if part is None else upoly.mulmod(part, row[e], m, p)
        parts.append((c, [1] if part is None else part))
    return upoly.lincomb(parts, p)


def _specialized(g: Polynomial, n1: int, values: list, fq: PrimeField) -> dict:
    """g with its coefficients mapped into fq and its parameters fixed at
    `values`, as {x monomial: nonzero value}.  ZeroDivisionError when a
    denominator of g vanishes in fq."""
    p = fq.p
    out = {}
    for m, c in g.terms.items():
        v = fq.coerce(c)
        for x, e in zip(values, m[n1:]):
            v = v * pow(x, e, p) % p
        out[m[:n1]] = (out.get(m[:n1], 0) + v) % p
    return {m: v for m, v in out.items() if v}


def _certify_pushforward(f: Endomorphism, phi_poly: Polynomial, phi_degree: int,
                         candidate: Polynomial, seed: int) -> bool:
    """Test that the candidate g vanishes on the image of V(phi).

    Criterion: rad(phi) divides g∘f.  Each trial maps the coefficients into
    F_q for a prime q (over F_p, p itself) and fixes any parameters at
    random values, once for all its lines.  It then draws k random lines
    L = {a + t*b} of the x block and restricts phi to L, a polynomial r in
    t.  The line passes iff r / gcd(r, r') divides (g∘f)|_L: f and then g
    are evaluated at a + t*b in F_q[t] modulo that divisor.  g∘f itself is
    never built.

    A true candidate passes every line.  If g∘f vanishes on V(phi), then
    rad(phi) divides g∘f, so rad(phi)|_L divides (g∘f)|_L; rad(phi|_L)
    divides rad(phi)|_L, and r / gcd(r, r') is a product of distinct
    factors of r, so it divides rad(phi|_L).  Hence a failing line proves
    that the trial's reduced, specialized candidate fails the criterion.
    Over F_p without parameters the one trial is the map itself, and one
    failing line proves rejection; with parameters or over QQ a failure
    may be an accident of the specialization or the reduction, so
    rejection takes two failing trials.

    Bound: let psi be an irreducible factor of phi (at the trial's
    specialization) that does not divide G = g∘f.  A line passes only if
    psi(b) = 0 or Res_t(psi|_L, G|_L) = 0, a nonzero form in (a, b) of
    degree at most 2D, D = deg phi * deg g * d.  By Schwartz-Zippel a
    uniform line passes with probability at most (2D + deg phi)/q, and a
    trial runs the least k lines with bound^k <= 2^-32 (`_probe_count`),
    however large k is.  There q exceeds deg phi, so r / gcd(r, r') is all
    of rad(r).

    Exact composition of g∘f (`_composed_trial`) is the small-field route
    and the degenerate-line route, and nothing else: a trial composes when
    k is None (no number of lines reaches the bound) or when a line gives
    r = 0 or r' = 0 (L inside V(phi), or the derivative killed by
    characteristic q).

    Schedule: over QQ the trials run at fresh primes, one each for a
    parameter-free map and two for a parametric one; over F_p, at fresh
    parameter values, and a parameter-free map gets its single trial.  A
    trial whose reduction meets a denominator, or whose specialization
    zeroes phi, g or some f_i, is skipped; when the planned trials end with
    neither a pass nor two failures, further ones are drawn.  A candidate
    is never accepted unchecked.
    """
    ring = f.ring
    n1 = f.n + 1
    fld = ring.field
    parametric = ring.nvars > n1
    if isinstance(fld, PrimeField):
        trials = 3 + _EXTRA_CERT_TRIALS if parametric else 1
        planned = [(fld, t) for t in range(min(trials, 3))]
        extra = ((fld, t) for t in range(3, trials))
    else:
        per_prime = 2 if parametric else 1
        planned = ((fq, t) for fq in map(GF, _CERT_PRIMES[:3])
                   for t in range(per_prime))
        extra = ((GF(q), 0) for q in itertools.islice(internal_primes(),
                                                      _EXTRA_CERT_TRIALS))
    bound = phi_degree * (2 * candidate.degree_in_block(range(n1)) * f.d + 1)
    failures = 0
    for fq, t in itertools.chain(planned, extra):
        q = fq.p
        rng = Random((seed << 8) ^ (q << 3) ^ t)
        values = [rng.randrange(q) for _ in range(ring.nvars - n1)]
        try:
            phi_q, g_q, *fs_q = (_specialized(h, n1, values, fq)
                                 for h in (phi_poly, candidate, *f.forms))
        except ZeroDivisionError:
            continue  # bad prime
        if not (phi_q and g_q and all(fs_q)):
            continue  # this specialization degenerates
        k = _probe_count(bound, q)
        if k is None:
            passed = _composed_trial(phi_q, g_q, fs_q, fq, seed)
        else:
            lines = [[(rng.randrange(q), rng.randrange(q)) for _ in range(n1)]
                     for _ in range(k)]
            passed = _line_trial(phi_q, g_q, fs_q, fq, lines, seed)
        if passed:
            return True
        failures += 1
        if failures >= 2:
            return False
    return False


def _line_trial(phi_q: dict, g_q: dict, fs_q: list, fq: PrimeField, lines: list,
                seed: int) -> bool:
    """One trial of `_certify_pushforward` on `lines`, from the specialized
    phi, candidate and map as {monomial: value} over fq: does every line
    pass?  `_composed_trial` decides when a line cannot."""
    p = fq.p
    for line in lines:
        r = _evaluate_coeffs(phi_q, line, p)
        der = upoly.derivative(r, p)
        if not der:
            return _composed_trial(phi_q, g_q, fs_q, fq, seed)
        rad = upoly.quo(r, upoly.gcd(r, der, p), p)
        images = [_evaluate_coeffs(h, line, p, rad) for h in fs_q]
        if _evaluate_coeffs(g_q, images, p, rad):
            return False
    return True


def _composed_trial(phi_q: dict, g_q: dict, fs_q: list, fq: PrimeField,
                    seed: int) -> bool:
    """One trial of `_certify_pushforward` by exact composition, from the
    specialized phi, candidate and map: phi's squarefree part (phi itself
    when the line filter proves that) must divide candidate∘f."""
    ring = Ring(len(fs_q), fq)
    phi, g = Polynomial(ring, phi_q), Polynomial(ring, g_q)
    composed = g.substitute([Polynomial(ring, h) for h in fs_q])
    if composed.is_zero():
        return True
    divisor = phi if _probably_squarefree(phi, seed) else squarefree_part(phi)
    try:
        divexact(composed, divisor)
    except NotDivisibleError:
        return False
    return True


def _image_form(f: Endomorphism, phi_poly: Polynomial, *, seed: int,
                strategy: str, rescale: bool) -> tuple[Polynomial, Polynomial]:
    """Reduced defining form of f(V(phi)), plus the raw elimination R.

    One elimination per step.  n = 1: R is the Sylvester resultant of phi
    and y1*f0 - y0*f1, the exact product of image point forms.  n >= 2:
    where y0 != 0 the minors y0*f_k - y_k*f0 vanish exactly on f^-1(y), so
    by the Poisson product formula R = Res_x(phi, those minors) is y0^e
    times the norm N of phi along f, e = (n-1) * deg phi * d^(n-1): R has
    y-degree n * deg phi * d^(n-1) and N, the image counted with
    multiplicity, deg phi * d^(n-1).  e goes to the elimination as its
    pivot floor, so a parameter-free step interpolates R on N's
    C(deg N + n, n) coefficients, checked by the probe (see
    `resultant._image_coeffs`).  R vanishes identically iff V(phi)
    meets a base point.  R / y0^e is taken by shifting exponents, and a term
    of R whose y0-exponent is below e raises `pushforward-degenerate`.  N
    keeps every component of the image, coordinate hyperplanes included;
    its parameter content is stripped and it is made squarefree.  A
    candidate that fails the degree cap or the vanishing check raises
    `pushforward-unreduced`.

    With rescale=True every intermediate is primitive-normalized.  With
    rescale=False the only coefficient-dependent normalization is the one
    `squarefree_part` applies where N has a square factor; otherwise every
    scalar in the output comes from the Macaulay quotient, so on
    parameter-free input the result is a fixed polynomial function of the
    input coefficients and specializing the coefficients commutes with the
    computation.
    """
    n = f.n
    n1 = n + 1
    phi_degree = phi_poly.homogeneous_degree_in_block(tuple(range(n1)))
    if phi_poly.is_zero() or phi_degree is None or phi_degree < 1:
        raise InvalidInputError(
            "a hypersurface needs a nonzero block-homogeneous form of degree >= 1")
    norm = primitive_part if rescale else (lambda g: g)
    ext, into, back = _extended_ring(f.ring, n)
    fx = [embed(g, ext, into) for g in f.forms]
    px = embed(phi_poly, ext, into)
    y = [ext.var(n1 + i) for i in range(n1)]
    e = (n - 1) * phi_degree * f.d ** (n - 1)
    if n == 1:
        raw_ext = sylvester_resultant(px, y[1] * fx[0] - y[0] * fx[1])
    else:
        forms = [px] + [y[0] * fx[k] - y[k] * fx[0] for k in range(1, n1)]
        blocks = _homogeneous_blocks(forms, [range(n1, 2 * n1),
                                             range(2 * n1, ext.nvars)])
        raw_ext = macaulay_resultant(forms, n1, strategy=strategy, seed=seed,
                                     blocks=blocks, _pivot_floor=e)
    if raw_ext.is_zero():
        raise DegeneracyError("pushforward-degenerate",
                              "an elimination resultant vanished identically" if n > 1
                              else "elimination produced the zero form")
    if any(m[n1] < e for m in raw_ext.terms):
        raise DegeneracyError("pushforward-degenerate",
                              f"the elimination is not divisible by y0^{e}")
    g = Polynomial(ext, {m[:n1] + (m[n1] - e,) + m[n1 + 1:]: c
                         for m, c in raw_ext.terms.items()})
    g = _strip_param_content(norm(g), 2 * n1)
    if not _probably_squarefree(g, seed):
        sf = squarefree_part(g)
        # equal degree means g was already squarefree: keep its scalars
        if rescale or sf.degree() != g.degree():
            g = sf
    if 1 <= g.degree_in_block(tuple(range(n1, 2 * n1))) <= phi_degree * f.d ** (n - 1):
        if any(g.degree_in(v) for v in range(n1)):
            raise DegeneracyError("pushforward-degenerate",
                                  "x variables survived elimination")
        g_base = norm(embed(g, f.ring, back))
        if _certify_pushforward(f, phi_poly, phi_degree, g_base, seed):
            return g_base, raw_ext
    raise DegeneracyError("pushforward-unreduced",
                          "no candidate passed the degree and vanishing checks")


def pushforward(f: Endomorphism, phi, *, raw: bool = False, seed: int = 0,
                strategy: str = "auto"):
    """Image of the hypersurface V(phi) under f, as a reduced primitive form.

    One elimination on the graph ring [x | y | params] (see `_image_form`).
    For n = 1 it is one Sylvester determinant, which `strategy` and `seed`
    do not reach (`seed` draws only the checks).  For n >= 2 it is one
    Macaulay resultant R of phi and the minors y0*f_k - y_k*f0, which is
    y0^e times the norm of phi along f for the e that the degrees fix;
    R / y0^e keeps coordinate-hyperplane components of the image.
    Parameter content is stripped, the candidate is made squarefree and
    checked by an independent vanishing test.  With raw=True R is returned
    alongside.  The map should be a morphism; degenerate eliminations
    raise.
    """
    phi = _as_form(phi, f.n + 1)
    if phi.poly.ring != f.ring:
        raise RingMismatchError("hypersurface and map live in different rings")
    n1 = f.n + 1
    form, raw_ext = _image_form(f, phi.poly, seed=seed, strategy=strategy, rescale=True)
    if raw:
        _, _, back = _extended_ring(f.ring, f.n)
        return HypersurfaceForm(form, n1), embed(raw_ext, f.ring, back)
    return HypersurfaceForm(form, n1)


def pushforward_iterated(f: Endomorphism, phi, k: int, *, mode: str = "steps",
                         seed: int = 0, strategy: str = "auto") -> HypersurfaceForm:
    """k-fold image: repeated single steps (default) or one pass with f^k."""
    phi = _as_form(phi, f.n + 1)
    if k < 0:
        raise InvalidInputError("iteration count must be >= 0")
    if k == 0:
        return phi
    if mode == "direct":
        return pushforward(f.iterate(k), phi, seed=seed, strategy=strategy)
    if mode != "steps":
        raise InvalidInputError(f"unknown mode {mode!r}")
    current = phi
    for _ in range(k):
        current = pushforward(f, current, seed=seed, strategy=strategy)
    return current


# -- improperness certificates --------------------------------------------------------

def _certificate_indices(indices: Sequence[int], n: int) -> list[int]:
    """The indices as a list; InvalidInputError unless they are strictly
    increasing, nonnegative and n+1 in number."""
    idx = list(indices)
    if len(idx) != n + 1 or sorted(set(idx)) != idx or min(idx) < 0:
        raise InvalidInputError(
            "indices must be strictly increasing, nonnegative, length n+1")
    return idx


def improper_certificate(f: Endomorphism, phi, indices: Sequence[int], *,
                         strategy: str = "auto", seed: int = 0) -> Polynomial:
    """Resultant of the n+1 iterated images f^i_* V(phi) for i in `indices`.

    Zero exactly when those images fail to intersect properly (share a common
    point over the closure).  Constant for parameter-free input; otherwise a
    polynomial in the parameters.  Parameter-free values carry no
    normalization-dependent scalar, except where an image's norm has a
    square factor and `squarefree_part` normalizes it: they are a fixed
    polynomial function of the coefficients of f and phi, so evaluating a
    parametric certificate at a point agrees with certifying the
    specialized system directly.  So scaling phi by c scales the value by
    c^K, K = sum_i s_i * prod_(j != i) deg(image_j) over the indices, where
    image i carries c^(s_i): s_i = d^(n*i) before the first normalized
    image, and 0 from that image on.
    """
    idx = _certificate_indices(indices, f.n)
    pushes = _pushforward_chain(f, phi, max(idx), seed=seed, strategy=strategy)
    forms = [pushes[i] for i in idx]
    return macaulay_resultant(forms, f.n + 1, strategy=strategy, seed=seed,
                              blocks=_homogeneous_blocks(
                                  forms, [range(f.n + 1, f.ring.nvars)]))


def _pushforward_chain(f: Endomorphism, phi, top: int, *, seed: int,
                       strategy: str) -> list[Polynomial]:
    """Iterated image forms of V(phi), starting from phi itself.

    Certificates compare resultants of these forms across coefficient
    specializations, so for parameter-free systems no step may rescale by a
    coefficient-dependent factor: the given form is used verbatim and the
    images stay unnormalized, coordinate-hyperplane components included,
    except that `squarefree_part` normalizes an image whose norm has a
    square factor.  Parametric systems keep the primitive convention of
    `pushforward` (the symbolic output is the object itself).
    """
    n1 = f.n + 1
    if isinstance(phi, HypersurfaceForm):
        if phi.block_size != n1:
            raise InvalidInputError("hypersurface block does not match the map")
        poly = phi.poly
    else:
        poly = phi
    if poly.ring != f.ring:
        raise RingMismatchError("hypersurface and map live in different rings")
    rescale = f.ring.nvars > n1
    chain = [primitive_part(poly) if rescale else poly]
    for _ in range(top):
        nxt, _ = _image_form(f, chain[-1], seed=seed, strategy=strategy,
                             rescale=rescale)
        chain.append(nxt)
    return chain


def search_improper_witness(f: Endomorphism, phi, bound: int, *,
                            strategy: str = "auto", seed: int = 0
                            ) -> Optional[tuple[int, ...]]:
    """Lexicographically least index tuple in [0, bound] whose certificate
    vanishes, or None when every tuple intersects properly."""
    if bound < f.n:
        raise InvalidInputError("bound leaves too few indices to choose")
    pushes = _pushforward_chain(f, phi, bound, seed=seed, strategy=strategy)
    for combo in itertools.combinations(range(bound + 1), f.n + 1):
        forms = [pushes[i] for i in combo]
        res = macaulay_resultant(forms, f.n + 1, strategy=strategy, seed=seed,
                                 blocks=_homogeneous_blocks(
                                     forms, [range(f.n + 1, f.ring.nvars)]))
        if res.is_zero():
            return combo
    return None


# -- periodic points on the line -------------------------------------------------------

def fixed_form(f: Endomorphism, s: int = 1) -> Polynomial:
    """x0 * (f^s)_1 - x1 * (f^s)_0: vanishes at points of period dividing s."""
    if f.n != 1:
        raise UnsupportedScopeError("fixed-point forms are implemented for n = 1")
    if s < 1:
        raise InvalidInputError("period must be >= 1")
    g = f.iterate(s)
    return f.ring.var(0) * g.forms[1] - f.ring.var(1) * g.forms[0]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    if n > _FACTOR_LIMIT:
        raise UnsupportedScopeError("coefficient too large for rational root search")
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def _rational_projective_roots(form: Polynomial) -> list[ProjectivePoint]:
    """Distinct rational points of P^1 where a binary form over Q vanishes."""
    ring = form.ring
    fld = ring.field
    prim = primitive_part(form)
    deg = prim.homogeneous_degree_in_block((0, 1))
    if deg is None or prim.is_zero():
        raise InvalidInputError("not a binary form")
    coeffs = [int(c) for c in _line_coeffs(prim)]
    roots = []
    if coeffs[deg] == 0:
        roots.append(ProjectivePoint((1, 0), fld))
    low = 0
    while low <= deg and coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.append(ProjectivePoint((0, 1), fld))
    poly = upoly.trim(coeffs[low:])
    if len(poly) > 1:
        for a in _divisors(poly[0]):
            for b in _divisors(poly[-1]):
                if math.gcd(a, b) != 1:
                    continue
                for num in (a, -a):
                    z = Fraction(num, b)
                    if upoly.evaluate(poly, z) == 0:
                        pt = ProjectivePoint((z, 1), fld)
                        if pt not in roots:
                            roots.append(pt)
    return roots


def periodic_points(f: Endomorphism, s: int, *, exact: bool = False
                    ) -> list[ProjectivePoint]:
    """Points of P^1 with period dividing s (exact=True: period exactly s).

    Over Q only rational points are found (rational root search); over a
    prime field the projective line is swept exhaustively.
    """
    if f.n != 1:
        raise UnsupportedScopeError("periodic point search is implemented for n = 1")
    if f.nparams:
        raise InvalidInputError("periodic points need a parameter-free map")
    pts = binary_form_roots(fixed_form(f, s))
    if exact:
        pts = [p for p in pts if f.orbit(p, max_steps=s + 1).period == s]
    return pts


def binary_form_roots(form: Polynomial) -> list[ProjectivePoint]:
    """Points of P^1(k) where a nonzero binary form vanishes, k-rational only.

    Over Q this is a rational root search on the primitive integer model;
    over a prime field the projective line is swept exhaustively.
    """
    fld = form.ring.field
    if isinstance(fld, RationalField):
        return _rational_projective_roots(form)
    if fld.p > _SCAN_LIMIT:
        raise UnsupportedScopeError("prime field too large for exhaustive sweep")
    pts = [ProjectivePoint((t, 1), fld) for t in range(fld.p)
           if fld.is_zero(form.evaluate((t, 1)))]
    if fld.is_zero(form.evaluate((1, 0))):
        pts.append(ProjectivePoint((1, 0), fld))
    return pts


def critical_points(f: Endomorphism) -> list[ProjectivePoint]:
    """Rational critical points of a self-map of the line.

    Roots of the Jacobian form found over the working field; points over
    extensions are not reported.
    """
    if f.n != 1:
        raise UnsupportedScopeError("critical point search is implemented for n = 1")
    if f.nparams:
        raise InvalidInputError("critical points need a parameter-free map")
    return binary_form_roots(jacobian(f).poly)


def has_periodic_critical_point(f: Endomorphism, max_period: int) -> PCFSearchReport:
    """Does some critical point (over the closure) have period <= max_period?

    Decided exactly for n = 1, without building f^s.  A critical point has
    period dividing s exactly when the Jacobian form J and the fixed-point
    form Phi_s = x0*G_s - x1*F_s of f^s = (F_s, G_s) share a zero on P^1,
    that is Res(J, Phi_s) = 0; the report gives the least such s.

    The whole decision runs on `upoly` coefficient lists: J comes from the
    forms' coefficients by two convolutions (`_line_jacobian`), never from
    a determinant of Polynomials, and over QQ every list is an integer list.

    Finite zeros: every finite critical point is a root of j(t) = J(t, 1),
    so it is enough to push the generic one, t in K[t]/(j), along f.  From
    (a, b) = (t, 1) the step (a, b) <- (F(a, b), G(a, b)) mod j reaches
    (F_s(t, 1), G_s(t, 1)) mod j after s steps, up to one constant factor,
    so Phi_s(t, 1) is t*b - a mod j there, and J and Phi_s share a finite
    zero exactly when gcd(j, t*b - a mod j) has positive degree.  The point
    (1:0) is a zero of J when J's top coefficient vanishes; it is pushed as
    the number pair (1, 0), and Phi_s(1, 0) = G_s(1, 0) is the pair's second
    entry after s steps.  Both pairs are trimmed coefficient lists, the
    residues mod j and the number pair as constants, advanced by one step,
    so a vanishing entry is the empty list.  Rescaling a pair by a nonzero
    constant changes no zero, so f^s's scalars do not matter.  All periods
    up to N cost O(N * d * deg(j)^2) ring operations, where f^N has degree
    d^N.

    Over QQ the forms and J are primitive integer lists, and every period
    is first screened at one prime p that does not divide the leading
    coefficient of j.
    A "no" there is a proof: with lc(j) a unit at p, division by j commutes
    with reduction mod p, so the residue mod p is the reduction of the
    residue r over Q.  The Sylvester resultant with formal degrees is an
    integer polynomial in the coefficients, and with the lead of j a unit,
    Res(j mod p, r mod p) != 0 forces Res(j, r) != 0; likewise
    G_s(1, 0) != 0 mod p forces G_s(1, 0) != 0.  A period the screen does
    not rule out is decided exactly in Z[t]/(j), fraction-free: residues
    are reduced by pseudo-division and their joint content taken out at
    every step, and the gcd is a primitive remainder sequence over Z.
    Heights there still grow like d^s, so a "yes" at a large period over QQ
    is the slow case: it is not lifted from primes.

    The report records the proof scope.  Larger n is out of scope and raises.
    """
    if f.n != 1:
        raise UnsupportedScopeError("periodic critical points: only n = 1 is decided")
    if f.nparams:
        raise InvalidInputError("needs a parameter-free map")
    if max_period < 1:
        raise InvalidInputError("max_period must be >= 1")
    p = f.field.characteristic
    fc, gc = (_line_coeffs(g) for g in f.forms)
    if p is None:
        fc, gc = upoly.cleared(fc, gc)
    jc = _line_jacobian(fc, gc, p)
    screen = _screen_orbit(fc, gc, jc) if p is None else None
    exact, decided = None, 0
    for s in range(1, max_period + 1):
        if screen is not None and not next(screen):
            continue  # no shared zero mod the screen prime, so none over QQ
        if exact is None:
            exact = _critical_orbit(fc, gc, jc, f.field)
        while decided < s:
            hit = next(exact)
            decided += 1
        if hit:
            return PCFSearchReport(True, s, "closure-exact")
    return PCFSearchReport(False, None, "closure-exact")


def _line_jacobian(fc: list, gc: list, p: Optional[int]) -> list:
    """`_line_coeffs(jacobian(f).poly)` up to a nonzero scalar, for f = (F, G)
    on P^1 with fc and gc the `_line_coeffs` of F and G (integer lists over
    QQ): J = F_x0*G_x1 - F_x1*G_x0 by two bare products, mod p over F_p and
    with its content taken out over QQ.  Raises what `jacobian` raises."""
    d = len(fc) - 1
    if d == 1:
        raise InvalidInputError("degree-1 maps have a constant Jacobian")
    # x0- and x1-partials of a degree-d binary form, as degree-(d-1) lists
    fx, gx = ([i * c[i] for i in range(1, d + 1)] for c in (fc, gc))
    fy, gy = ([(d - i) * c[i] for i in range(d)] for c in (fc, gc))
    jc = [u - v for u, v in zip(upoly.mulmod(fx, gy, p=p),
                                upoly.mulmod(fy, gx, p=p))]
    if p:
        jc = [c % p for c in jc]
    if not any(jc):
        raise DegeneracyError("jacobian-degenerate",
                              "the Jacobian determinant vanishes identically")
    if p is None:
        g = math.gcd(*jc)
        jc = [c // g for c in jc]
    return jc


def _screen_orbit(fc: list, gc: list, jc: list):
    """`_critical_orbit` of a map over QQ at the first prime, from
    DEFAULT_MODULAR_PRIME on, that does not divide lc(j); only finitely
    many primes do.  The forms and J are integer lists, so they reduce mod
    every p."""
    top = max(i for i, c in enumerate(jc) if c)
    for p in itertools.chain((DEFAULT_MODULAR_PRIME,), internal_primes()):
        fp = GF(p)
        reduced = [[fp.coerce(c) for c in cs] for cs in (fc, gc, jc)]
        if reduced[2][top]:
            return _critical_orbit(*reduced, fp)


def _critical_orbit(fc: list, gc: list, jc: list, fld):
    """Yield, for s = 1, 2, ..., whether J and Phi_s share a zero on P^1.

    fc, gc and jc are the `_line_coeffs` of F, G and a nonzero J over fld;
    see `has_periodic_critical_point` for the iteration.  Over F_p residues
    mod j are trimmed `upoly` lists of length at most deg(j), reduced by
    the monic j.  Over QQ the run stays in Z[t]/(j): fc and gc are cleared
    of denominators jointly and jc alone (`upoly.cleared`, ints or
    Fractions accepted); each step computes F(a, b) and G(a, b) unreduced,
    reduces the pair by the same pseudo-division steps (`upoly.pseudo_rem`,
    which scales both by one power of lc(j)), and divides the pair by its
    joint content; the number pair (u, v) only takes out its content.
    t*b - a goes to `upoly.gcd` unreduced: its first pseudo-remainder
    reduces it by j.
    """
    p = fld.characteristic
    if p is None:
        fc, gc = upoly.cleared(fc, gc)
        (jc,) = upoly.cleared(jc)
    j = upoly.trim(list(jc))
    at_infinity = len(j) < len(jc)  # J(1, 0) = 0
    u, v = [1], []
    if p is None:
        a, b = upoly.pseudo_rem(([0, 1], [1]), j)
        while True:
            a, b = upoly.primitive(*upoly.pseudo_rem(
                _orbit_step(fc, gc, a, b, None, None), j))
            u, v = upoly.primitive(*_orbit_step(fc, gc, u, v, None, None))
            r = upoly.lincomb(((1, [0] + b), (-1, a)))
            yield (at_infinity and not v) or len(upoly.gcd(j, r)) > 1
    m = upoly.monic(j, p)
    a, b = upoly.mulmod([1], [0, 1], m, p), upoly.mulmod([1], [1], m, p)
    while True:
        a, b = _orbit_step(fc, gc, a, b, m, p)
        u, v = _orbit_step(fc, gc, u, v, None, p)
        r = upoly.lincomb(((1, upoly.mulmod([0, 1], b, m, p)), (-1, a)), p)
        yield (at_infinity and not v) or len(upoly.gcd(j, r, p)) > 1


def _orbit_step(fc: list, gc: list, a: list, b: list, m: Optional[list],
                p: Optional[int]) -> tuple:
    """(F(a, b), G(a, b)) for polynomials a and b in t, mod the monic m
    when one is given."""
    d = len(fc) - 1
    pa, pb = [[1], a], [[1], b]
    for _ in range(d - 1):
        pa.append(upoly.mulmod(pa[-1], a, m, p))
        pb.append(upoly.mulmod(pb[-1], b, m, p))
    monomials = [upoly.mulmod(pa[i], pb[d - i], m, p) for i in range(d + 1)]
    return (upoly.lincomb(zip(fc, monomials), p),
            upoly.lincomb(zip(gc, monomials), p))


def _line_coeffs(form: Polynomial) -> list:
    """Binary form as [c_0, ..., c_deg], c_i the coefficient of x0^i x1^(deg-i)."""
    fld = form.ring.field
    coeffs = [fld.zero()] * (form.homogeneous_degree_in_block((0, 1)) + 1)
    for m, c in form.terms.items():
        coeffs[m[0]] = c
    return coeffs


def _binary_form(ring: Ring, coeffs: Sequence, pair=(0, 1)) -> Polynomial:
    """The inverse of `_line_coeffs`: the sum of c_i * x_a^i * x_b^(deg-i)
    over coeffs = [c_0, ..., c_deg], coerced into ring's field, with
    (a, b) = pair."""
    fld = ring.field
    deg = len(coeffs) - 1
    terms = {}
    for i, c in enumerate(coeffs):
        c = fld.coerce(c)
        if not fld.is_zero(c):
            mono = [0] * ring.nvars
            mono[pair[0]] += i
            mono[pair[1]] += deg - i
            terms[tuple(mono)] = c
    return Polynomial(ring, terms)


# -- dimension counts ------------------------------------------------------------------

def dim_forms(n: int, m: int) -> int:
    """Projective dimension of the space of degree-m forms on P^n."""
    return math.comb(n + m, m) - 1


def dim_end(n: int, d: int) -> int:
    """Projective dimension of the space of degree-d self-map tuples on P^n."""
    return (n + 1) * math.comb(n + d, d) - 1


def generic_cert_degree(n: int, m: int, d: int, indices: Sequence[int]) -> int:
    """Coefficient-space degree of the certificate for generic data."""
    idx = _certificate_indices(indices, n)
    return (m ** n) * (d ** ((n - 1) * sum(idx))) * sum(d ** i for i in idx)
