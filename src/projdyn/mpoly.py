"""Sparse exact multivariate polynomials over QQ or F_p.

Representation: a term dict mapping exponent tuples to nonzero field values.
The canonical term order everywhere (printing, leading terms, primitive-part
sign) is graded lexicographic with x0 > x1 > ... .

Text grammar: `term := sign* factor (('*' | '/') factor)*`, terms joined by
signs; a factor is an integer or a variable with an optional '^' integer
exponent, and only integers follow '/'.  Integers, indices and exponents
are ASCII digits 0-9 (other decimal digits are rejected as characters
outside the grammar).  Variables are named x0..xN; the
single-letter aliases x, y, z are accepted on input for rings with at most
three variables and are normalized to x0, x1, x2 on output.  Round-tripping
print -> parse is bit-exact.  Texts parsed without a ring width
(`dynamics.endomorphism_from_strings`) are read in a 64-variable ring and
kept in the fewest variables, at least one per form, that hold every
nonzero exponent.

Algorithms here stay at desk scale on purpose: primitive-PRS gcd, and one
fraction-free Bareiss determinant kernel on packed integer monomials (rows
cleared to integers over QQ).  No factorization, no Groebner machinery.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from fractions import Fraction
from typing import Optional, Sequence

from .coeff import Field, PrimeField, RationalField, Value
from .errors import (InvalidInputError, NotDivisibleError, RingMismatchError,
                     VerificationError)

NEG_INF = float("-inf")  # degree of the zero polynomial

Monomial = tuple[int, ...]


def grlex_key(m: Monomial):
    return (sum(m), m)


class Ring:
    """A polynomial ring: a variable count over a coefficient field."""

    __slots__ = ("nvars", "field")

    def __init__(self, nvars: int, field: Field):
        if nvars < 1:
            raise InvalidInputError("ring needs at least one variable")
        self.nvars = nvars
        self.field = field

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(self.field.one())

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise InvalidInputError(f"variable index {i} out of range for {self}")
        m = [0] * self.nvars
        m[i] = 1
        return Polynomial(self, {tuple(m): self.field.one()})

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def __eq__(self, other):
        return (isinstance(other, Ring) and other.nvars == self.nvars
                and other.field == self.field)

    def __hash__(self):
        return hash((self.nvars, self.field))

    def __repr__(self):
        return f"Ring({self.nvars} vars over {self.field!r})"


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero coefficient

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return 0
        return max(m[var] for m in self.terms)

    def degree_in_block(self, block: Sequence[int]):
        if not self.terms:
            return NEG_INF
        return max(sum(m[v] for v in block) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        return len(degs) == 1

    def homogeneous_degree_in_block(self, block: Sequence[int]) -> Optional[int]:
        """Common block-degree of every term, or None if mixed.  Zero -> 0."""
        if not self.terms:
            return 0
        degs = {sum(m[v] for v in block) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def variables(self) -> list[int]:
        """Indices of variables that actually occur."""
        seen = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return sorted(seen)

    def leading(self) -> tuple[Monomial, Value]:
        """Graded-lex leading (monomial, coefficient).  Error on zero."""
        if not self.terms:
            raise InvalidInputError("zero polynomial has no leading term")
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def coefficient(self, mono: Monomial) -> Value:
        return self.terms.get(tuple(mono), self.ring.field.zero())

    def constant_value(self) -> Value:
        """The field value of a constant polynomial (error otherwise)."""
        if not self.terms:
            return self.ring.field.zero()
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return c
        raise InvalidInputError("polynomial is not constant")

    def sorted_terms(self) -> list[tuple[Monomial, Value]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, fld.zero()), c)
            if fld.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        fld = self.ring.field
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = fld.add(out.get(m, fld.zero()), fld.mul(c1, c2))
                if fld.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        c = fld.coerce(c)
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: fld.mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidInputError("negative polynomial power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"<poly {format_polynomial(self)}>"

    # -- calculus / evaluation ----------------------------------------------

    def derivative(self, var: int) -> "Polynomial":
        fld = self.ring.field
        out: dict = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            c2 = fld.mul(c, fld.coerce(e))
            if fld.is_zero(c2):
                continue
            m2 = list(m)
            m2[var] = e - 1
            out[tuple(m2)] = c2
        return Polynomial(self.ring, out)

    def evaluate(self, point: Sequence) -> Value:
        """Exact value at a tuple of field elements."""
        fld = self.ring.field
        if len(point) != self.ring.nvars:
            raise InvalidInputError("point length does not match ring")
        pt = [fld.coerce(x) for x in point]
        total = fld.zero()
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v = fld.mul(v, fld.pw(pt[i], e))
            total = fld.add(total, v)
        return total

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Map variable i to images[i] (all in one target ring)."""
        if len(images) != self.ring.nvars:
            raise InvalidInputError("need one image per variable")
        target = images[0].ring
        for g in images:
            if g.ring != target:
                raise RingMismatchError("substitution images live in different rings")
        if target.field != self.ring.field:
            raise RingMismatchError("substitution cannot change coefficient field")
        cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in cache:
                cache[key] = images[i] ** e
            return cache[key]

        fld = target.field
        zero = fld.zero()
        constant = {(0,) * target.nvars: fld.one()}
        out: dict = {}
        for m, c in self.terms.items():
            part = None
            for i, e in enumerate(m):
                if e:
                    part = power(i, e) if part is None else part * power(i, e)
            for mm, v in (constant if part is None else part.terms).items():
                s = fld.add(out.get(mm, zero), fld.mul(c, v))
                if fld.is_zero(s):
                    out.pop(mm, None)
                else:
                    out[mm] = s
        return Polynomial(target, out)


# -- construction helpers ----------------------------------------------------

def embed(p: Polynomial, new_ring: Ring, var_map: Optional[Sequence[int]] = None) -> Polynomial:
    """Recast p into new_ring, sending old variable i to new index var_map[i].

    Default map is the identity on indices (new ring just has more variables).
    """
    if new_ring.field != p.ring.field:
        raise RingMismatchError("embed cannot change coefficient field")
    if var_map is None:
        var_map = list(range(p.ring.nvars))
    if len(var_map) != p.ring.nvars:
        raise InvalidInputError("var_map length must equal source variable count")
    out: dict = {}
    for m, c in p.terms.items():
        m2 = [0] * new_ring.nvars
        for i, e in enumerate(m):
            if e:
                m2[var_map[i]] += e
        out[tuple(m2)] = c
    return Polynomial(new_ring, out)


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of exact total degree, graded-lex descending."""
    if degree < 0:
        return []
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        mono = []
        for b in bars:
            mono.append(b - prev - 1)
            prev = b
        mono.append(degree + nvars - 2 - prev)
        out.append(tuple(mono))
    out.sort(key=grlex_key, reverse=True)
    return out


# -- normalization ------------------------------------------------------------

def content_primitive(p: Polynomial) -> tuple[Value, Polynomial]:
    """Split p = content * primitive.

    Over QQ the primitive part has coprime integer coefficients and positive
    graded-lex leading coefficient; over F_p it is monic.  content(0) = 0.
    """
    fld = p.ring.field
    if p.is_zero():
        return fld.zero(), p
    if isinstance(fld, PrimeField):
        _, lc = p.leading()
        inv = fld.inv(lc)
        return lc, p.scale(inv)
    scale = _primitive_scale(p.terms.values())
    if p.leading()[1] < 0:
        scale = -scale
    return 1 / scale, p.scale(scale)


def _primitive_scale(values) -> Fraction:
    """The positive rational that takes rationals to coprime integers
    (1 when all are zero)."""
    num, den = 0, 1
    for c in values:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(den, num) if num else Fraction(1)


def primitive_part(p: Polynomial) -> Polynomial:
    return content_primitive(p)[1]


def equal_up_to_scalar(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = c*q for a nonzero field constant c (or both are zero)."""
    if p.ring != q.ring:
        raise RingMismatchError("comparing polynomials from different rings")
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    a = primitive_part(p)
    b = primitive_part(q)
    return a == b or a == -b


def strip_monomial_content(p: Polynomial) -> Polynomial:
    """Divide out the largest monomial dividing every term."""
    if p.is_zero():
        return p
    n = p.ring.nvars
    mins = [min(m[i] for m in p.terms) for i in range(n)]
    if not any(mins):
        return p
    out = {tuple(e - lo for e, lo in zip(m, mins)): c for m, c in p.terms.items()}
    return Polynomial(p.ring, out)


# -- exact division ------------------------------------------------------------

def divexact(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact quotient num/den; raises NotDivisibleError if the division fails."""
    if num.ring != den.ring:
        raise RingMismatchError("division across rings")
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ring, fld = num.ring, num.ring.field
    if not num.terms:
        return ring.zero()
    dm, dc = den.leading()
    dc_inv = fld.inv(dc)
    rem = dict(num.terms)
    quo: dict = {}
    while rem:
        m = max(rem, key=grlex_key)
        c = rem[m]
        qm = tuple(a - b for a, b in zip(m, dm))
        if any(e < 0 for e in qm):
            raise NotDivisibleError("leading monomial not divisible")
        qc = fld.mul(c, dc_inv)
        quo[qm] = qc
        # rem -= qc * x^qm * den
        for m2, c2 in den.terms.items():
            mm = tuple(a + b for a, b in zip(qm, m2))
            s = fld.sub(rem.get(mm, fld.zero()), fld.mul(qc, c2))
            if fld.is_zero(s):
                rem.pop(mm, None)
            else:
                rem[mm] = s
    return Polynomial(ring, quo)


# -- gcd / squarefree ----------------------------------------------------------

def _coeffs_in_var(p: Polynomial, v: int) -> dict[int, Polynomial]:
    """View p as univariate in x_v: degree -> coefficient polynomial (v-free)."""
    ring = p.ring
    out: dict[int, dict] = {}
    for m, c in p.terms.items():
        e = m[v]
        m2 = list(m)
        m2[v] = 0
        out.setdefault(e, {})[tuple(m2)] = c
    return {e: Polynomial(ring, t) for e, t in out.items()}


def _block_coefficients(p: Polynomial, block_size: int) -> dict[Monomial, Polynomial]:
    """View p as a form in the leading block: block monomial -> coefficient
    polynomial in the remaining variables (block exponents zero)."""
    pad = (0,) * block_size
    out: dict[Monomial, dict] = {}
    for m, c in p.terms.items():
        out.setdefault(m[:block_size], {})[pad + m[block_size:]] = c
    return {mb: Polynomial(p.ring, t) for mb, t in out.items()}


def _content_in_var(p: Polynomial, v: int) -> Polynomial:
    cs = list(_coeffs_in_var(p, v).values())
    g = cs[0]
    for c in cs[1:]:
        g = poly_gcd(g, c)
        if g.degree() == 0:
            break
    return g


def _prem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to x_v."""
    ring = f.ring
    dg = g.degree_in(v)
    lc_g = _coeffs_in_var(g, v)[dg]
    r = f
    d = f.degree_in(v) - dg + 1
    xv = ring.var(v)
    while not r.is_zero() and r.degree_in(v) >= dg:
        dr = r.degree_in(v)
        lc_r = _coeffs_in_var(r, v)[dr]
        r = lc_g * r - lc_r * (xv ** (dr - dg)) * g
        d -= 1
    for _ in range(max(d, 0)):
        r = lc_g * r
    return r


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive-PRS gcd; result is primitive-normalized.

    Recurses on the most frequent variable (ties to the lowest index).  Desk
    scale: a handful of variables, moderate degrees.
    """
    if p.ring != q.ring:
        raise RingMismatchError("gcd across rings")
    if p.is_zero():
        return primitive_part(q)
    if q.is_zero():
        return primitive_part(p)
    vars_p, vars_q = p.variables(), q.variables()
    common = set(vars_p) | set(vars_q)
    if not common:
        return p.ring.one()
    counts = {v: 0 for v in common}
    for poly in (p, q):
        for m in poly.terms:
            for v in common:
                if m[v]:
                    counts[v] += 1
    v = min(common, key=lambda w: (-counts[w], w))
    if v not in set(vars_p) & set(vars_q):
        # variable missing from one side: gcd divides the content there
        pc = _content_in_var(p, v) if v in vars_p else primitive_part(p)
        qc = _content_in_var(q, v) if v in vars_q else primitive_part(q)
        return poly_gcd(pc, qc)
    cont_p = _content_in_var(p, v)
    cont_q = _content_in_var(q, v)
    cont = poly_gcd(cont_p, cont_q)
    f = divexact(p, cont_p)
    g = divexact(q, cont_q)
    if f.degree_in(v) < g.degree_in(v):
        f, g = g, f
    while not g.is_zero():
        r = _prem(f, g, v)
        if r.is_zero():
            f, g = g, r
            break
        r = divexact(r, _content_in_var(r, v))
        if r.degree_in(v) == 0:
            f, g = r, r.ring.zero()
            break
        f, g = g, r
    if f.degree_in(v) == 0:
        return primitive_part(cont)
    return primitive_part(cont * divexact(f, _content_in_var(f, v)))


def _pth_root(p: Polynomial) -> Polynomial:
    """p-th root of a perfect p-th power over F_p (Frobenius is identity)."""
    fld = p.ring.field
    ch = fld.characteristic
    out = {}
    for m, c in p.terms.items():
        out[tuple(e // ch for e in m)] = c
    return Polynomial(p.ring, out)


def squarefree_part(p: Polynomial) -> Polynomial:
    """Largest squarefree divisor.

    Core step is p / gcd(p, partials), recursing into the gcd so factors of
    multiplicity >= 2 (and characteristic-p powers, handled by an exact p-th
    root) are recovered exactly once; duplicates are merged by a gcd join.
    """
    if p.is_zero():
        return p
    work = primitive_part(p)
    if not work.variables():
        return work.ring.one()
    derivs = [work.derivative(v) for v in work.variables()]
    live = [d for d in derivs if not d.is_zero()]
    if not live:
        # every exponent divisible by the characteristic: exact p-th root
        return squarefree_part(_pth_root(work))
    g = work
    for d in live:
        g = poly_gcd(g, d)
        if g.degree() == 0:
            break
    if g.degree() == 0:
        return work  # gcd with own gradient is constant: already squarefree
    w = primitive_part(divexact(work, g))
    rest = squarefree_part(g)
    return primitive_part(w * divexact(rest, poly_gcd(rest, w)))


# -- determinants ---------------------------------------------------------------

def determinant(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of polynomials.

    One fraction-free Bareiss elimination (row pivoting, exact division by
    the previous pivot) on packed term dicts {monomial key: int}.  A key
    packs a monomial into one int: its total degree in the top field, then
    x0 ... x_{n-1}, each in a field with a guard bit on top.  Integer order
    is then graded-lex order, a monomial product is one addition, and a
    monomial quotient that does not exist shows as a negative key or a set
    guard bit.  Over QQ each row is first cleared to integer coefficients,
    the elimination runs in Z[x], and the result is divided by the product
    of the row multipliers; over F_p coefficients stay residues mod p.
    """
    n = len(rows)
    if n == 0:
        raise InvalidInputError("empty matrix")
    ring = rows[0][0].ring
    for row in rows:
        if len(row) != n:
            raise InvalidInputError("matrix is not square")
        for e in row:
            if e.ring != ring:
                raise RingMismatchError("matrix entries from different rings")
    fld = ring.field
    p = fld.p if isinstance(fld, PrimeField) else None
    nv = ring.nvars
    # Every Bareiss entry is a minor, of degree at most the sum over rows of
    # the row's largest entry degree, and a product before its division has
    # at most twice that: fields that wide plus a guard bit never carry.
    bound = 2 * sum(max((e.degree() for e in row if e.terms), default=0)
                    for row in rows)
    width = bound.bit_length() + 1
    guard = sum(1 << (i * width + width - 1) for i in range(nv))
    keys: dict[Monomial, int] = {}

    def pack(mono: Monomial) -> int:
        key = keys.get(mono)
        if key is None:
            key = sum(mono)
            for e in mono:
                key = (key << width) | e
            keys[mono] = key
        return key

    scale = 1
    m = []
    for row in rows:
        if p is None:
            lcm = math.lcm(*(c.denominator for e in row for c in e.terms.values()))
            scale *= lcm
            m.append([{pack(mono): c.numerator * (lcm // c.denominator)
                       for mono, c in e.terms.items()} for e in row])
        else:
            m.append([{pack(mono): c for mono, c in e.terms.items()} for e in row])

    sign = 1
    prev = {0: 1}
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return ring.zero()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk = m[k]
        pk = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                # mi[j] <- (pk * mi[j] - mik * mk[j]) / prev
                acc: dict[int, int] = {}
                get = acc.get
                for k1, c1 in pk.items():
                    for k2, c2 in mi[j].items():
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c2
                if mik:
                    for k1, c1 in mik.items():
                        for k2, c2 in mk[j].items():
                            key = k1 + k2
                            acc[key] = get(key, 0) - c1 * c2
                mi[j] = _exact_quotient(acc, prev, p, guard)
        prev = pk

    det = m[n - 1][n - 1]
    mask = (1 << width) - 1
    out: dict = {}
    for key in sorted(det, reverse=True):
        c = det[key]
        exps = []
        for _ in range(nv):
            exps.append(key & mask)
            key >>= width
        mono = tuple(reversed(exps))
        if p is None:
            out[mono] = Fraction(sign * c, scale)
        else:
            out[mono] = c if sign > 0 else p - c
    return Polynomial(ring, out)


def _exact_quotient(num: dict, den: dict, p: Optional[int], guard: int) -> dict:
    """num / den for `determinant`'s packed term dicts over Z (p None) or
    F_p, den nonzero.

    `determinant` only divides where the quotient is exact, so a remainder
    raises VerificationError.  Values of num may be unreduced mod p; the
    quotient's are reduced and nonzero.
    """
    if len(den) == 1:
        (lead, lc), = den.items()
        inv = pow(lc, -1, p) if p else None
        out = {}
        for key, c in num.items():
            if p:
                c = c * inv % p
            elif lc != 1:
                c, r = divmod(c, lc)
                if r:
                    raise VerificationError("inexact Bareiss division")
            if c:
                key -= lead
                if key < 0 or key & guard:
                    raise VerificationError("inexact Bareiss division")
                out[key] = c
        return out
    lead = max(den)
    lc = den[lead]
    inv = pow(lc, -1, p) if p else None
    rest = [(key - lead, c) for key, c in den.items() if key != lead]
    rem = dict(num)
    heap = [-key for key in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        key = -heapq.heappop(heap)
        c = rem.pop(key)
        if p:
            c = c * inv % p
        elif c:
            c, r = divmod(c, lc)
            if r:
                raise VerificationError("inexact Bareiss division")
        if not c:
            continue
        qk = key - lead
        if qk < 0 or qk & guard:
            raise VerificationError("inexact Bareiss division")
        out[qk] = c
        for off, dc in rest:
            kk = key + off
            v = rem.get(kk)
            if v is None:
                rem[kk] = -c * dc
                heapq.heappush(heap, -kk)
            else:
                rem[kk] = v - c * dc
    return out


# -- text grammar -------------------------------------------------------------------

# The first character outside the grammar, with the whitespace before it.
_BAD_CHAR = re.compile(r"\s*[^\s0-9a-z^*/+-]")
# One token: an integer, x<index>, a one-letter alias, or an operator.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|x([0-9]+)|([a-z])|(.))")


def default_aliases(nvars: int) -> dict[str, int]:
    return {"x": 0, "y": 1, "z": 2} if nvars <= 3 else {}


def parse_polynomial(text: str, ring: Ring,
                     aliases: Optional[dict[str, int]] = None) -> Polynomial:
    """Parse the text grammar (module docstring) in one pass.

    A character outside the grammar anywhere is reported first; then each
    term is checked and coerced into the field as it ends, in text order.
    """
    if aliases is None:
        aliases = default_aliases(ring.nvars)
    s = text.strip()
    if not s:
        raise InvalidInputError("empty polynomial text")
    bad = _BAD_CHAR.search(s)
    if bad:
        raise InvalidInputError(f"bad character at {bad.start()} in {text!r}")
    fld = ring.field
    nvars = ring.nvars
    terms: dict = {}
    tokens = _TOKEN.finditer(s)
    tok = next(tokens, None)
    while tok:
        num, den = 1, 1
        while tok and tok[4] in ("+", "-"):
            if tok[4] == "-":
                num = -num
            tok = next(tokens, None)
        if not tok:
            raise InvalidInputError(f"dangling sign in {text!r}")
        mono = [0] * nvars
        divide = None  # None before the term's first factor
        while True:
            digits, index, alias, op = tok.groups() if tok else (None,) * 4
            if op in ("*", "/"):
                raise InvalidInputError(f"misplaced {op!r} in {text!r}")
            if digits is not None:
                n = int(digits)
                if not divide:
                    num *= n
                elif n:
                    den *= n
                else:
                    raise InvalidInputError("division by zero in polynomial text")
                tok = next(tokens, None)
            elif index is not None or alias is not None:
                if divide:
                    raise InvalidInputError("division by a variable is not in the grammar")
                idx = int(index) if index is not None else aliases.get(alias)
                if idx is None:
                    raise InvalidInputError(f"unknown variable {alias!r}")
                if idx >= nvars:
                    raise InvalidInputError(f"variable index {idx} out of range (nvars={nvars})")
                tok = next(tokens, None)
                if tok and tok[4] == "^":
                    tok = next(tokens, None)
                    if not tok or tok[1] is None:
                        raise InvalidInputError(f"'^' needs an integer exponent in {text!r}")
                    mono[idx] += int(tok[1])
                    tok = next(tokens, None)
                else:
                    mono[idx] += 1
            elif divide is None:  # '^' cannot start a term
                raise InvalidInputError(f"empty term in {text!r}")
            else:
                raise InvalidInputError(f"dangling operator in {text!r}")
            # a factor ended: '*' or '/' continues the term, a sign or '^' ends it
            if not tok:
                break
            if tok[1] is not None:
                raise InvalidInputError(f"unexpected number in {text!r}")
            if tok[4] is None:
                raise InvalidInputError(f"missing '*' before variable in {text!r}")
            if tok[4] not in ("*", "/"):
                break
            divide = tok[4] == "/"
            tok = next(tokens, None)
        c = fld.coerce(num if den == 1 else Fraction(num, den))
        key = tuple(mono)
        if key in terms:
            c = fld.add(terms[key], c)
        if fld.is_zero(c):
            terms.pop(key, None)
        else:
            terms[key] = c
    return Polynomial(ring, terms)


def _format_coeff(c: Value) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: graded-lex descending, compact (no spaces)."""
    if p.is_zero():
        return "0"
    fld = p.ring.field
    rational = isinstance(fld, RationalField)
    chunks = []
    for m, c in p.sorted_terms():
        parts = []
        for i, e in enumerate(m):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        negative = rational and c < 0
        mag = -c if negative else c
        if not parts:
            body = _format_coeff(mag)
        elif (isinstance(mag, Fraction) and mag == 1) or (not rational and mag == 1):
            body = "*".join(parts)
        else:
            body = _format_coeff(mag) + "*" + "*".join(parts)
        if not chunks:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append(("-" if negative else "+") + body)
    return "".join(chunks)
