"""Resultants of homogeneous polynomial systems.

Sylvester matrices for binary forms, and the Macaulay construction
(numerator matrix and reduced minor) for n+1 forms in n+1 block variables.

Each Macaulay resultant builds one `MacaulaySystem`: the matrix layout,
walked once into a list of cells, plus the forms' coefficient tables and a
structural elimination schedule (built on one bitset per row).  Over a
prime field the system also compiles its coefficients, once, into a
program of int terms and the cells they fill; every F_p point value reads
it.  Rows and columns put the reduced minor's
indices first, so det M' is the leading principal minor and one elimination
without pivoting yields both determinants: det M / det M' is the product of
the trailing pivots.  When every form has its pure power, each of the two
groups is ordered by a static Markowitz count, which cuts the fill-in of
that elimination.  Every route reads that one system:

- numeric forms go through the point evaluator (`_point_value`): zero when
  a form vanishes, else det M / det M' on field values, by one elimination
  along the schedule (the pivoted determinant pair when a pivot is zero);
- parametric systems take fraction-free symbolic elimination ("ratio") or
  interpolation of modular images ("modular").  An image is interpolated
  sparsely, by Zippel's variable-by-variable stages, where a few random
  probes bound the chance of a wrong image by 2^-32; elsewhere (a field
  small against the resultant's degree) on the dense tensor grid, which is
  exact.  The points of a batch are valued from the program and
  eliminated along the schedule together: in lockstep on Python ints, in
  one inlined loop with one modular inverse per pivot step for the whole
  batch (Montgomery's trick), or, for large batches below 2^28, as one
  int64 numpy batch.  Points where that meets a zero
  pivot go to the point evaluator.  Vandermonde systems are solved by one
  matrix product with a table of quotients.  Over QQ each prime gets one
  reduced copy of the system; the images are combined by CRT + rational
  reconstruction, and the first candidate that reconstructs is checked at
  a fresh prime.

When the reduced minor vanishes, the ratio route and the point evaluator
share one ladder of seeded linear coordinate changes.

Ring convention: the first `block_size` variables of the ring are the
projective block being eliminated; remaining variables are parameters, and
parametric resultants are returned in the same ring with zero block degrees.
"""
from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add
from random import Random
from typing import Optional, Sequence

import numpy as np

from .coeff import (_INTERNAL_PRIME_BOUND, GF, PrimeField, RationalField,
                    crt_combine, internal_primes, rational_reconstruct)
from .errors import DegeneracyError, InvalidInputError, RingMismatchError
from .mpoly import (Polynomial, Ring, _block_coefficients, determinant,
                    divexact, monomials_of_degree)

_RETRIES = 5          # attempts before giving up: coordinate changes, node
                      # draws, sparse images
_MAX_PRIMES = 24      # CRT budget for rational interpolation
_CHUNK_POINTS = 4096  # grid points per batched numpy pass
_LOCKSTEP_POINTS = 8  # batches up to this size run on Python ints; they beat
                      # numpy's per-step cost (measured crossover: 12-32
                      # points, orders 3-36), so the bound is conservative
_NUMPY_SAFE = _INTERNAL_PRIME_BOUND  # int64 products stay overflow-free
                                     # below this; every CRT prime lies below
_PROBE_BITS = 32       # an accepted candidate is wrong with probability <= 2^-32
_MAX_SPARSE_PROBES = 4  # sparse stages run only where this many probes suffice


# -- small linear algebra over field values ----------------------------------------

def _field_det(rows, fld):
    """Determinant of a matrix of field values, elimination with pivot search."""
    k = len(rows)
    if k == 0:
        return fld.one()
    m = [list(r) for r in rows]
    det = fld.one()
    for i in range(k):
        piv = None
        for r in range(i, k):
            if not fld.is_zero(m[r][i]):
                piv = r
                break
        if piv is None:
            return fld.zero()
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = fld.neg(det)
        det = fld.mul(det, m[i][i])
        inv = fld.inv(m[i][i])
        for r in range(i + 1, k):
            if fld.is_zero(m[r][i]):
                continue
            f = fld.mul(m[r][i], inv)
            m[r][i] = fld.zero()
            for c in range(i + 1, k):
                m[r][c] = fld.sub(m[r][c], fld.mul(f, m[i][c]))
    return det


def _field_inverse(rows, fld):
    """Inverse of a matrix of field values by Gauss-Jordan; None if singular."""
    k = len(rows)
    m = [list(r) + [fld.one() if c == i else fld.zero() for c in range(k)]
         for i, r in enumerate(rows)]
    for i in range(k):
        piv = None
        for r in range(i, k):
            if not fld.is_zero(m[r][i]):
                piv = r
                break
        if piv is None:
            return None
        m[i], m[piv] = m[piv], m[i]
        top = m[i]
        inv = fld.inv(top[i])
        # the other rows change only where the pivot row is nonzero
        cols = [c for c in range(i, 2 * k) if not fld.is_zero(top[c])]
        for c in cols:
            top[c] = fld.mul(top[c], inv)
        for r in range(k):
            row = m[r]
            if r != i and not fld.is_zero(row[i]):
                f = row[i]
                for c in cols:
                    row[c] = fld.sub(row[c], fld.mul(f, top[c]))
    return [row[k:] for row in m]


def _random_gl(size: int, fld, rng: Random):
    """Invertible size x size matrix of field values, with its determinant."""
    for _ in range(64):
        if isinstance(fld, RationalField):
            a = [[Fraction(rng.randint(-5, 5)) for _ in range(size)]
                 for _ in range(size)]
        else:
            a = [[fld.random(rng) for _ in range(size)] for _ in range(size)]
        d = _field_det(a, fld)
        if not fld.is_zero(d):
            return a, d
    raise DegeneracyError("coordinate-change-exhausted",
                          "could not sample an invertible change of coordinates")


def _apply_linear(f: Polynomial, a, block_size: int) -> Polynomial:
    """Substitute x_j -> sum_k a[j][k] x_k on the block, fixing parameters."""
    ring = f.ring
    images = []
    for j in range(ring.nvars):
        if j < block_size:
            img = ring.zero()
            for k in range(block_size):
                img = img + ring.var(k).scale(a[j][k])
            images.append(img)
        else:
            images.append(ring.var(j))
    return f.substitute(images)


# -- Sylvester matrices for binary forms --------------------------------------------

def _binary_coeffs(p: Polynomial, pair, deg: int) -> list[Polynomial]:
    """Coefficient polynomials (c_0..c_deg) of a form sum c_k xi^(deg-k) xj^k."""
    ring = p.ring
    i, j = pair
    vec = [dict() for _ in range(deg + 1)]
    for m, c in p.terms.items():
        if m[i] + m[j] != deg:
            raise InvalidInputError(
                f"form is not homogeneous of degree {deg} in variables {pair}")
        rest = list(m)
        rest[i] = 0
        rest[j] = 0
        vec[m[j]][tuple(rest)] = c
    return [Polynomial(ring, d) for d in vec]


def sylvester_matrix(p: Polynomial, q: Polynomial, pair=(0, 1),
                     degrees: Optional[tuple[int, int]] = None):
    """Sylvester matrix of two binary forms in the variable pair.

    Row layout: deg(q) shifted copies of p's coefficient vector, then deg(p)
    shifted copies of q's, both written from the xi-power down.  Formal
    degrees may be forced via `degrees` (needed when a form may be zero).
    """
    if p.ring != q.ring:
        raise RingMismatchError("sylvester operands live in different rings")
    ring = p.ring
    if degrees is None:
        a = p.homogeneous_degree_in_block(pair)
        b = q.homogeneous_degree_in_block(pair)
        if a is None or b is None or p.is_zero() or q.is_zero():
            raise InvalidInputError("sylvester needs nonzero pair-homogeneous forms "
                                    "(or explicit formal degrees)")
    else:
        a, b = degrees
    pc = _binary_coeffs(p, pair, a)
    qc = _binary_coeffs(q, pair, b)
    size = a + b
    z = ring.zero()
    rows = []
    for s in range(b):
        rows.append([z] * s + pc + [z] * (b - 1 - s))
    for s in range(a):
        rows.append([z] * s + qc + [z] * (a - 1 - s))
    assert all(len(r) == size for r in rows)
    return rows


def sylvester_resultant(p: Polynomial, q: Polynomial, pair=(0, 1),
                        degrees: Optional[tuple[int, int]] = None) -> Polynomial:
    """Resultant of two binary forms, eliminating the variable pair."""
    rows = sylvester_matrix(p, q, pair, degrees)
    if not rows:
        return p.ring.one()
    return determinant(rows)


# -- Macaulay construction ----------------------------------------------------------

def resultant_degrees(degrees: Sequence[int]) -> list[int]:
    """Degree of the resultant in the coefficients of each input form."""
    total = math.prod(degrees)
    return [total // d for d in degrees]


def macaulay_critical_degree(degrees: Sequence[int]) -> int:
    return sum(d - 1 for d in degrees) + 1


def _elimination_schedule(size: int, cells) -> Optional[list]:
    """Per diagonal step i of unpivoted elimination: the rows below i with a
    structural nonzero in column i, and the columns right of i with one in
    row i.  Step i fills those rows at those columns, so the pattern grows
    as the steps run and the schedule covers every fill-in.  None when a
    diagonal entry is still structurally zero at its step: that pivot is 0
    at every point.  Each row's pattern is an int, bit c for column c."""
    pattern = [0] * size
    for r, c, _, _ in cells:
        pattern[r] |= 1 << c
    schedule = []
    for i in range(size):
        bit = 1 << i
        if not pattern[i] & bit:
            return None
        fill = pattern[i] & -(bit << 1)  # the row's columns right of i
        below = [r for r in range(i + 1, size) if pattern[r] & bit]
        for r in below:
            pattern[r] |= fill
        right = []
        while fill:
            low = fill & -fill
            right.append(low.bit_length() - 1)
            fill ^= low
        schedule.append((below, right))
    return schedule


class MacaulaySystem:
    """Macaulay matrix layout for n+1 forms in the leading n+1 variables.

    Rows and columns are indexed by the block monomials of the critical
    degree D.  Each monomial mu is assigned to the least i with
    x_i^{d_i} | mu; its row is (mu / x_i^{d_i}) * F_i.  The reduced minor
    uses the rows and columns whose monomial is divisible by x_i^{d_i} for
    at least two distinct i.  Those come first, then the rest, the same
    order for rows and columns: det M is unchanged, and the reduced minor
    M' is the leading minor_size x minor_size block.

    Within each group the order is graded-lex descending, unless every
    form contains its pure power x_i^{d_i}.  Then every diagonal entry is
    structurally nonzero, so any symmetric order has a schedule, and each
    group is sorted (stably, ties graded-lex) by the static Markowitz count
    of the initial pattern, (entries in the row - 1) * (entries in the
    column - 1) (Markowitz, Management Science 1957).  A symmetric
    permutation within each group leaves det M and det M' unchanged; it
    cuts the fill-in of the elimination below.

    `coeff_tables[i]` maps each block monomial of F_i to its coefficient
    polynomial in the parameters.  The layout is walked once, into `cells`:
    one (row, column, form, block monomial) per entry of the matrix.  The
    symbolic matrices and those of given field values are filled from it.

    Over a prime field (None over QQ), `program` is the same layout
    compiled once into ints, (terms, varying, base, cells):
    - `terms[j]`: coefficient j, numbered form by form in table order, as
      its terms (c, ((param, exponent), ...)), params counted from 0;
    - `varying`: the terms of the coefficients that involve a parameter;
    - `base`: the k x k matrix of the other coefficients' values, 0
      elsewhere;
    - `cells`: (row, column, n) for each entry of varying[n].
    The matrices of a batch of parameter points (`_value_matrices`), the
    int64 numpy batch and `value_tables` all read it: powers of each
    parameter once per point, then inline arithmetic mod p.

    `schedule[i]` is the structural pattern of unpivoted elimination at
    diagonal step i, closed under fill-in: the rows below i with a nonzero
    in column i, and the columns right of i with a nonzero in row i.  One
    elimination along it gives det M' as the product of the first
    minor_size pivots and det M / det M' as the product of the others.
    It is None when a pivot is structurally zero (a form lacks its pure
    power and no fill-in reaches that diagonal entry); every value then
    comes from the pivoted determinants.  It is built on one int per row,
    bit c set where column c is structurally nonzero.
    """

    def __init__(self, forms: Sequence[Polynomial], block_size: Optional[int] = None):
        if not forms:
            raise InvalidInputError("no forms given")
        ring = forms[0].ring
        for f in forms[1:]:
            if f.ring != ring:
                raise RingMismatchError("forms live in different rings")
        bs = ring.nvars if block_size is None else block_size
        if bs < 1 or bs > ring.nvars:
            raise InvalidInputError(f"block size {bs} out of range")
        if len(forms) != bs:
            raise InvalidInputError(
                f"need exactly {bs} forms for a {bs}-variable block, got {len(forms)}")
        block = tuple(range(bs))
        degrees = []
        for f in forms:
            d = f.homogeneous_degree_in_block(block)
            if f.is_zero() or d is None or d < 1:
                raise InvalidInputError(
                    "each form must be nonzero and block-homogeneous of degree >= 1")
            degrees.append(d)
        self.ring = ring
        self.block_size = bs
        self.degrees = degrees
        self.critical_degree = macaulay_critical_degree(degrees)
        self.coeff_tables = [_block_coefficients(f, bs) for f in forms]
        # highest exponent of each parameter over all coefficients
        self.param_degrees = [max(m[v] for f in forms for m in f.terms)
                              for v in range(bs, ring.nvars)]

        # forms whose pure power divides each monomial (pigeonhole: at least one)
        hits = {mu: [i for i in range(bs) if mu[i] >= degrees[i]]
                for mu in monomials_of_degree(bs, self.critical_degree)}
        # row mu: its form, and the (column monomial, block monomial) of each entry
        rows = {}
        for mu, h in hits.items():
            i = h[0]
            shift = list(mu)
            shift[i] -= degrees[i]
            rows[mu] = i, [(tuple(map(add, shift, mb)), mb) for mb in self.coeff_tables[i]]
        extraneous = [mu for mu, h in hits.items() if len(h) >= 2]
        rest = [mu for mu, h in hits.items() if len(h) < 2]
        if all(tuple(d if j == i else 0 for j in range(bs)) in tab
               for i, (d, tab) in enumerate(zip(degrees, self.coeff_tables))):
            # every diagonal entry is structurally nonzero: Markowitz order
            in_column = Counter(col for _, entries in rows.values() for col, _ in entries)

            def markowitz(mu):
                return (len(rows[mu][1]) - 1) * (in_column[mu] - 1)

            extraneous.sort(key=markowitz)
            rest.sort(key=markowitz)
        self.columns = extraneous + rest
        self.size = len(self.columns)
        self.minor_size = len(extraneous)
        col_index = {m: c for c, m in enumerate(self.columns)}
        self.cells = []
        for row, mu in enumerate(self.columns):
            i, entries = rows[mu]
            self.cells.extend([(row, col_index[col], i, mb) for col, mb in entries])
        self.schedule = _elimination_schedule(self.size, self.cells)
        self.program = self._compile() if isinstance(ring.field, PrimeField) else None

    def _compile(self):
        """The coefficient program over a prime field (see the class
        docstring)."""
        bs, k = self.block_size, self.size
        terms, varying = [], []
        # per form: block monomial -> its index in `varying`, or the value
        # of a parameter-free coefficient
        position, fixed = [], []
        for tab in self.coeff_tables:
            position.append({})
            fixed.append({})
            for mb, c in tab.items():
                coeff = [(v, tuple([(j, e) for j, e in enumerate(m[bs:]) if e]))
                         for m, v in c.terms.items()]
                terms.append(coeff)
                if any(factors for _, factors in coeff):
                    position[-1][mb] = len(varying)
                    varying.append(coeff)
                else:
                    fixed[-1][mb] = sum(v for v, _ in coeff)
        base = [[0] * k for _ in range(k)]
        cells = []
        for r, c, i, mb in self.cells:
            if mb in fixed[i]:
                base[r][c] = fixed[i][mb]
            else:
                cells.append((r, c, position[i][mb]))
        return terms, varying, base, cells

    def _matrix_of(self, tables, zero):
        """Nested-list matrix of table values, `zero` elsewhere."""
        out = [[zero] * self.size for _ in range(self.size)]
        for r, c, i, mb in self.cells:
            out[r][c] = tables[i][mb]
        return out

    def matrix(self):
        return self._matrix_of(self.coeff_tables, self.ring.zero())

    def minor_matrix(self):
        km = self.minor_size
        return [row[:km] for row in self.matrix()[:km]]

    def value_tables(self, point=None):
        """Coefficient tables as field values, parameters set to `point`
        (None for numeric forms); over F_p read from the program."""
        if point is None:
            return [{mb: c.constant_value() for mb, c in tab.items()}
                    for tab in self.coeff_tables]
        fld = self.ring.field
        if self.program is None:
            full = [fld.zero()] * self.block_size + list(point)
            return [{mb: c.evaluate(full) for mb, c in tab.items()}
                    for tab in self.coeff_tables]
        values = iter(self._coefficient_values(self.program[0],
                                               [fld.coerce(x) for x in point]))
        return [{mb: next(values) for mb in tab} for tab in self.coeff_tables]

    def _coefficient_values(self, coefficients, point) -> list[int]:
        """Coefficients of the program (lists of int terms) at a point of
        ints: each parameter's powers built once, as far as the coefficients
        reach, and inline arithmetic mod p."""
        p = self.ring.field.p
        powers = []
        for x, top in zip(point, self.param_degrees):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * x % p)
            powers.append(row)
        out = []
        for terms in coefficients:
            total = 0
            for c, factors in terms:
                for v, e in factors:
                    c = c * powers[v][e] % p
                total += c
            out.append(total % p)
        return out

    def _value_matrices(self, points) -> list[list[list[int]]]:
        """The matrix of each parameter point (ints) over F_p: a copy of the
        program's parameter-free matrix, with the other coefficients' values
        written straight into their entries."""
        _, varying, base, cells = self.program
        mats = []
        for point in points:
            values = self._coefficient_values(varying, point)
            m = [row[:] for row in base]
            for r, c, j in cells:
                m[r][c] = values[j]
            mats.append(m)
        return mats

    def _reduced(self, fld: PrimeField) -> "MacaulaySystem":
        """The same layout with every coefficient reduced into `fld`, and
        its program.

        A form may vanish there (its resultant image is then zero, which is
        correct); _BadPrime when a denominator vanishes.
        """
        out = copy.copy(self)
        out.ring = Ring(self.ring.nvars, fld)
        out.coeff_tables = [{mb: _reduce_form_mod(c, out.ring) for mb, c in tab.items()}
                            for tab in self.coeff_tables]
        out.program = out._compile()
        return out


# -- determinant ratio and the coordinate-change ladder -----------------------------

def _coordinate_ladder(system: MacaulaySystem, forms: Sequence[Polynomial],
                       rng: Random, solve, detail: str):
    """Run `solve` on up to _RETRIES seeded linear changes of the block
    coordinates of `forms` (the system's forms, possibly specialized) until
    one does not degenerate.  Returns its value and det(A)^(d_0...d_n), the
    factor by which the change multiplied the resultant."""
    fld = system.ring.field
    bs = system.block_size
    for _ in range(_RETRIES):
        a, det_a = _random_gl(bs, fld, rng)
        try:
            value = solve(MacaulaySystem([_apply_linear(f, a, bs) for f in forms], bs))
        except DegeneracyError:
            continue
        return value, fld.pw(det_a, math.prod(system.degrees))
    raise DegeneracyError("macaulay-degenerate", detail)


def _inverses_mod(values: list[int], p: int) -> list[int]:
    """Inverses of nonzero residues mod p by Montgomery's simultaneous
    inversion (Math. Comp. 48, 1987): one pow and 3(n-1) products.  The
    int64 batch inverts each step's pivots with it; the lockstep loop of
    _scheduled_ratios runs the same trick inline."""
    prefix = []  # prefix[j]: the product of values[:j]
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    acc = pow(acc, -1, p)  # from here on, the inverse of the product of values[:j + 1]
    for j in range(len(values) - 1, -1, -1):
        prefix[j], acc = acc * prefix[j] % p, acc * values[j] % p
    return prefix


def _scheduled_ratios(system: MacaulaySystem, mats) -> list:
    """det M / det M' for each matrix of field values in `mats` (one per
    point, overwritten): the product of the pivots after the reduced
    minor's, from one unpivoted elimination along the schedule.  None for a
    point where a pivot is zero, and for every point of a system without a
    schedule.

    Over F_p the points step through the schedule in lockstep on ints, so
    each diagonal step inverts the pivots of the whole batch at once
    (Montgomery's trick, as in _inverses_mod, fused with reading the
    pivots).  An entry is reduced only where it is read (pivot, pivot row,
    factor); it takes at most one update per step, so stays below k * p^2
    in size.  Over QQ each point runs on its own, on Fractions."""
    n = len(mats)
    if system.schedule is None:
        return [None] * n
    fld = system.ring.field
    km = system.minor_size
    if not isinstance(fld, PrimeField):
        ratios = []
        for m in mats:
            ratio = fld.one()
            for i, (below, right) in enumerate(system.schedule):
                top = m[i]
                if not top[i]:
                    ratio = None
                    break
                if i >= km:
                    ratio *= top[i]
                for r in below if right else ():
                    row = m[r]
                    f = row[i] / top[i]
                    for c in right:
                        row[c] -= f * top[c]
            ratios.append(ratio)
        return ratios

    p = fld.p
    ratios = [1] * n
    live = [True] * n
    for i, (below, right) in enumerate(system.schedule):
        pivots = []
        prefix = []  # prefix[j]: the product of pivots[:j]
        acc = 1
        for j, m in enumerate(mats):
            v = m[i][i] % p
            if not v:
                live[j] = False
                v = 1  # a dead point takes pivot 1, so the batch stays invertible
            elif i >= km:
                ratios[j] = ratios[j] * v % p
            pivots.append(v)
            prefix.append(acc)
            acc = acc * v % p
        if not (below and right):
            continue
        acc = pow(acc, -1, p)  # the inverse of the product of pivots[:j + 1]
        for j in range(n - 1, -1, -1):
            inv = acc * prefix[j] % p
            acc = acc * pivots[j] % p
            if not live[j]:
                continue
            m = mats[j]
            top = m[i]
            for c in right:
                top[c] %= p
            for r in below:
                row = m[r]
                f = row[i] * inv % p
                for c in right:
                    row[c] -= f * top[c]
    return [r if ok else None for r, ok in zip(ratios, live)]


def _value_ratio(system: MacaulaySystem, tables):
    """det M / det M' on field values; DegeneracyError if the minor vanishes.

    The scheduled elimination on a batch of one; at a zero pivot, the
    pivoted determinants of M' and M.
    """
    fld = system.ring.field
    ratio, = _scheduled_ratios(system, [system._matrix_of(tables, fld.zero())])
    if ratio is not None:
        return ratio
    full = system._matrix_of(tables, fld.zero())
    km = system.minor_size
    det_minor = _field_det([row[:km] for row in full[:km]], fld)
    if fld.is_zero(det_minor):
        raise DegeneracyError("macaulay-minor-singular",
                              "reduced minor vanished on this input")
    return fld.div(_field_det(full, fld), det_minor)


def _point_value(system: MacaulaySystem, point, rng: Random):
    """Resultant value with the parameters at `point` (None for numeric forms).

    Zero when a form vanishes there; otherwise the determinant ratio, with
    the coordinate-change ladder when the reduced minor vanishes.
    """
    fld = system.ring.field
    tables = system.value_tables(point)
    if any(all(fld.is_zero(v) for v in tab.values()) for tab in tables):
        return fld.zero()
    try:
        return _value_ratio(system, tables)
    except DegeneracyError:
        pass
    block = Ring(system.block_size, fld)
    forms = [Polynomial(block, {mb: v for mb, v in tab.items() if not fld.is_zero(v)})
             for tab in tables]
    value, scale = _coordinate_ladder(
        system, forms, rng, lambda s: _value_ratio(s, s.value_tables()),
        "reduced minor vanished for every coordinate change tried")
    return fld.div(value, scale)


def _ratio_resultant(system: MacaulaySystem, forms: Sequence[Polynomial],
                     rng: Random) -> Polynomial:
    """Symbolic det M / det M' via fraction-free elimination and exact division."""
    ring = system.ring

    def solve(s: MacaulaySystem) -> Polynomial:
        det_minor = determinant(s.minor_matrix()) if s.minor_size else ring.one()
        if det_minor.is_zero():
            raise DegeneracyError("macaulay-minor-singular",
                                  "reduced minor vanished identically")
        det_full = determinant(s.matrix())
        return ring.zero() if det_full.is_zero() else divexact(det_full, det_minor)

    try:
        return solve(system)
    except DegeneracyError:
        pass
    res, scale = _coordinate_ladder(
        system, forms, rng, solve,
        "reduced minor identically zero despite coordinate changes")
    return res.scale(ring.field.inv(scale))


# -- modular interpolation of parametric resultants ---------------------------------

class _BadPrime(Exception):
    """Internal: this prime divides a denominator or the leading structure."""


def _reduce_form_mod(f: Polynomial, target: Ring) -> Polynomial:
    """f with its coefficients in the prime field of `target`; _BadPrime when
    a denominator vanishes there."""
    fld = target.field
    terms = {}
    try:
        for m, c in f.terms.items():
            v = fld.coerce(c)
            if v:
                terms[m] = v
    except ZeroDivisionError:
        raise _BadPrime from None
    return Polynomial(target, terms)


def _batched_ratio_mod(a: np.ndarray, schedule, minor_size: int, p: int):
    """det M / det M' mod p for a (k, k, n) batch of matrices in the
    system's layout order, by one unpivoted elimination along the schedule
    (the batch is overwritten).

    Returns (ratios, ok); entries with ok=False hit a zero pivot and must be
    recomputed with a pivoting algorithm.
    """
    n = a.shape[2]
    ratio = np.ones(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    for i, (below, right) in enumerate(schedule):
        piv = a[i, i]
        zero = piv == 0
        ok &= ~zero
        if i >= minor_size:
            ratio = ratio * piv % p
        if below and right:
            inv = np.array(_inverses_mod(np.where(zero, 1, piv).tolist(), p),
                           dtype=np.int64)
            factors = a[below, i] * inv % p
            block = np.ix_(below, right)
            a[block] = (a[block] - factors[:, None, :] * a[i, right][None, :, :]) % p
    return ratio, ok


def _vandermonde_solve(nodes: Sequence[int], rhs: Sequence, p: int,
                       transposed: bool = False) -> list:
    """Solve a Vandermonde system on distinct nodes over F_p in O(t^2).

    Plain: the c with sum_j c_j nodes[i]^j = rhs[i], the polynomial that
    takes the values rhs at the nodes.  Transposed: the c with
    sum_j c_j nodes[j]^i = rhs[i], the coefficients of a sparse polynomial
    from its values at geometric points.  With M the product of (z - v)
    over the nodes, the interpolant that is 1 at v and 0 at the other
    nodes is (M / (z - v)) / M'(v).  The t x t table of the quotients
    M / (z - v), row s for nodes[s], is built once: t steps of synthetic
    division over all nodes together, then M'(v) by Horner.  The transposed
    solve is the table times rhs, the plain one its transpose times rhs,
    each one product mod p, with the 1 / M'(v) applied to the t rows of
    the result or of rhs.  Entries of `rhs` are ints, or int arrays of one
    shape (one system per position); the result has the same form.
    """
    t = len(nodes)
    z = _vector([v % p for v in nodes], p)
    master = _vector([1] + [0] * t, p)  # coefficients of M, constant term first
    for m, v in enumerate(z):
        master[1:m + 2] = (master[:m + 1] - v * master[1:m + 2]) % p
        master[0] = -v * master[0] % p
    table = _vector([[0] * t] * t, p)  # row s: M / (z - nodes[s]), from the top
    acc = _vector([1] * t, p)
    for i in range(t - 1, -1, -1):
        table[:, i] = acc
        acc = (master[i] + z * acc) % p
    deriv = _vector([0] * t, p)  # M'(v) = (M / (z - v))(v)
    for i in range(t - 1, -1, -1):
        deriv = (deriv * z + table[:, i]) % p
    if np.count_nonzero(deriv) < t:
        raise DegeneracyError("interpolation-singular", "repeated interpolation node")
    scale = _vector([pow(int(d), -1, p) for d in deriv], p)[:, None]
    values = _vector(rhs, p)
    flat = values.reshape(t, -1) % p
    if transposed:
        solved = scale * _matmul_mod(table, flat, p) % p
    else:
        solved = _matmul_mod(table.T, scale * flat % p, p)
    solved = solved.reshape(values.shape)
    if solved.ndim == 1:
        return [int(c) for c in solved]
    return list(solved)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a . b mod p.  int64 operands (p < _NUMPY_SAFE, products below 2^56)
    are summed 64 inner terms at a time, so no sum reaches 2^63; object
    operands hold Python ints and need no chunks.  Each dtype takes the
    form whose first call does not grow the process by 128 KiB: np.dot
    for object, the matmul ufunc for int64."""
    if a.dtype == object:
        return np.dot(a, b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(0, a.shape[1], 64):
        out = (out + a[:, j:j + 64] @ b[j:j + 64]) % p
    return out


def _vector(values, p: int) -> np.ndarray:
    """Field values as an array that numpy arithmetic keeps exact mod p."""
    return np.array(values, dtype=np.int64 if p < _NUMPY_SAFE else object)


def _probe_count(degree_bound: int, p: int) -> Optional[int]:
    """Least k with (D/p)^k <= 2^-_PROBE_BITS; None when D >= p."""
    if degree_bound >= p:
        return None
    k = 1
    while degree_bound ** k << _PROBE_BITS > p ** k:
        k += 1
    return k


class _GridPlan:
    """Axes, pivots and degree bounds for one parametric interpolation.

    Each homogeneity block is dehomogenized at its first variable, the
    pivot, which is held at 1.  The other parameters with a positive degree
    bound are the axes, largest bound first: the order in which the sparse
    stages add them.  `degree_bound` bounds the total degree of the
    resultant in the parameters: the sum over forms of e_i times the largest
    total degree of a coefficient of F_i, e_i the resultant's degree in
    that form's coefficients.
    """

    def __init__(self, system: MacaulaySystem, blocks: Optional[Sequence[Sequence[int]]]):
        ring = system.ring
        bs = system.block_size
        params = list(range(bs, ring.nvars))
        e = resultant_degrees(system.degrees)

        bounds = {}
        for v in params:
            b = 0
            for i, tab in enumerate(system.coeff_tables):
                dv = max((c.degree_in(v) for c in tab.values()), default=0)
                b += e[i] * dv
            bounds[v] = b
        self.degree_bound = sum(ei * max(c.degree() for c in tab.values())
                                for ei, tab in zip(e, system.coeff_tables))

        self.block_degree = {}   # pivot var -> exact joint degree of the result
        self.pivot_block = {}    # pivot var -> list of its block's other vars
        for blk in blocks or []:
            blk = list(blk)
            if any(v < bs or v >= ring.nvars for v in blk):
                raise InvalidInputError("homogeneity block must consist of parameters")
            degree = 0
            for i, tab in enumerate(system.coeff_tables):
                ds = {c.homogeneous_degree_in_block(blk) for c in tab.values()
                      if not c.is_zero()}
                if len(ds) != 1 or None in ds:
                    raise InvalidInputError(
                        "coefficients are not jointly homogeneous in the given block")
                degree += e[i] * ds.pop()
            pivot = blk[0]
            self.block_degree[pivot] = degree
            self.pivot_block[pivot] = blk[1:]
            for v in blk[1:]:
                bounds[v] = min(bounds[v], degree)

        live = [v for v in params if v not in self.block_degree and bounds[v] > 0]
        self.axes = sorted(live, key=lambda v: -bounds[v])
        self.axis_bounds = [bounds[v] for v in self.axes]
        self.params = params
        self.block_size = bs

    def max_axis_length(self) -> int:
        return max((b + 1 for b in self.axis_bounds), default=1)

    def point_values(self, axis_values: Sequence[int]) -> list[int]:
        """Full parameter vector from values on the axes (pivots 1, the
        parameters the resultant does not involve 0)."""
        at = dict(zip(self.axes, axis_values))
        return [1 if v in self.block_degree else at.get(v, 0) for v in self.params]

    def monomial_for(self, axis_exponents) -> Optional[tuple]:
        """Full-ring exponent tuple for a coefficient of the dehomogenized grid."""
        exp = {v: e for v, e in zip(self.axes, axis_exponents)}
        for pivot, others in self.pivot_block.items():
            used = sum(exp.get(v, 0) for v in others)
            rest = self.block_degree[pivot] - used
            if rest < 0:
                return None
            exp[pivot] = rest
        mono = [0] * (self.block_size + len(self.params))
        for v, e in exp.items():
            mono[v] = e
        return tuple(mono)


def _batched_values_mod(system: MacaulaySystem, plan: _GridPlan, points):
    """int64 batch pass over the points: resultant values mod p, plus the
    indices of the points where unpivoted elimination hit a zero pivot."""
    p = system.ring.field.p
    full = np.array([plan.point_values(pt) for pt in points],
                    dtype=np.int64).reshape(len(points), len(plan.params))
    k = system.size
    _, varying, base, cells = system.program
    base = np.array(base, dtype=np.int64)
    fixed = np.nonzero(base)
    values: list[int] = []
    bad: list[int] = []
    for start in range(0, len(points), _CHUNK_POINTS):
        chunk = full[start:start + _CHUNK_POINTS]
        count = len(chunk)
        powers = []
        for column, top in enumerate(system.param_degrees):
            row = [np.ones(count, dtype=np.int64)]
            for _ in range(top):
                row.append(row[-1] * chunk[:, column] % p)
            powers.append(row)
        coefficients = np.zeros((len(varying), count), dtype=np.int64)
        for out, terms in zip(coefficients, varying):
            for c, factors in terms:
                t = np.full(count, c, dtype=np.int64)
                for v, e in factors:
                    t = t * powers[v][e] % p
                out += t
                out %= p
        # only structural entries are written, without a (cells, count)
        # temporary, so zero pages stay unmapped until fill-in reaches them
        batch = np.zeros((k, k, count), dtype=np.int64)
        batch[fixed] = base[fixed][:, None]
        for r, c, j in cells:
            batch[r, c] = coefficients[j]
        ratios, ok = _batched_ratio_mod(batch, system.schedule, system.minor_size, p)
        values.extend(np.where(ok, ratios, 0).tolist())
        bad.extend(start + int(j) for j in np.nonzero(~ok)[0])
    return values, bad


def _values_mod(system: MacaulaySystem, plan: _GridPlan, points,
                rng: Random) -> list[int]:
    """Exact resultant values mod p at parameter points, each a tuple of
    values on the plan's axes.

    Every point meets one elimination along the schedule.  A batch of more
    than _LOCKSTEP_POINTS points below _NUMPY_SAFE runs as one int64 numpy
    batch; any other batch (every batch above _NUMPY_SAFE, where int64
    products could overflow) runs in lockstep on Python ints
    (`_scheduled_ratios`).  Points where that meets a zero pivot (every
    point where a form vanishes does: its rows are zero), and every point
    of a system without a schedule, go through the point evaluator: zero
    for a vanishing form, else pivoted elimination, then the
    coordinate-change ladder if the reduced minor genuinely vanishes there.
    """
    if system.schedule is None:
        values, todo = [0] * len(points), range(len(points))
    elif system.ring.field.p < _NUMPY_SAFE and len(points) > _LOCKSTEP_POINTS:
        values, todo = _batched_values_mod(system, plan, points)
    else:
        values = _scheduled_ratios(
            system, system._value_matrices([plan.point_values(pt) for pt in points]))
        todo = [i for i, v in enumerate(values) if v is None]
    for i in todo:
        values[i] = _point_value(system, plan.point_values(points[i]), rng)
    return values


def _by_monomial(plan: _GridPlan, items) -> Optional[dict[tuple, int]]:
    """Coefficients keyed by full-ring monomial, from (axis exponents,
    value) pairs; None when one lies outside a homogeneity block's degree."""
    out = {}
    for exps, c in items:
        mono = plan.monomial_for(exps)
        if mono is None:
            return None
        out[mono] = c
    return out


def _dense_coeffs(system: MacaulaySystem, plan: _GridPlan,
                  rng: Random) -> Optional[dict[tuple, int]]:
    """Interpolation on the full tensor grid, nodes 1..l on every axis.

    Exact values on the whole grid determine the coefficients uniquely, so
    the result needs no probe.
    """
    p = system.ring.field.p
    lengths = [b + 1 for b in plan.axis_bounds]
    points = list(itertools.product(*(range(1, l + 1) for l in lengths)))
    table = _vector(_values_mod(system, plan, points, rng), p).reshape(lengths)
    for axis, l in enumerate(lengths):
        solved = _vandermonde_solve(range(1, l + 1), list(np.moveaxis(table, axis, 0)), p)
        table = np.moveaxis(np.stack(solved), 0, axis)
    return _by_monomial(plan, ((tuple(int(x) for x in idx), int(table[tuple(idx)]))
                               for idx in np.argwhere(table != 0)))


def _geometric_nodes(support: list[tuple], p: int, rng: Random):
    """Ratios r_0..r_{k-1}, and the values prod r_m^e_m of the support's
    monomials at (r_0, ..., r_{k-1}), redrawn until those values differ."""
    for _ in range(_RETRIES):
        ratios = [rng.randrange(2, p) for _ in support[0]]
        nodes = [math.prod(pow(r, e, p) for r, e in zip(ratios, s)) % p
                 for s in support]
        if len(set(nodes)) == len(nodes):
            return ratios, nodes
    raise DegeneracyError("interpolation-singular",
                          "geometric nodes kept colliding on the support")


def _sparse_coeffs(system: MacaulaySystem, plan: _GridPlan, rng: Random,
                   anchors: Sequence[int]) -> Optional[dict[tuple, int]]:
    """Zippel's variable-by-variable interpolation (EUROSAM 1979).

    Axes not yet reached are held at `anchors`.  Stage 0 interpolates the
    first axis densely at its anchor and b_0 further values.  After stage k
    the coefficients of the resultant in axes 0..k are known, on a support
    of t monomials.  Stage k+1 takes its axis at the anchor (the previous
    stage itself) and at b further values.  At each, the resultant has its
    support inside the one found so far, unless an anchor is a root of a
    coefficient, which the probe catches.  It is solved from t values at
    the geometric points (r_0^i, ..., r_k^i), i < t, by one transposed
    Vandermonde system; then each monomial's coefficient is interpolated
    densely along the new axis.  Stage k+1 costs b * t points, so a support
    that fills the box costs exactly the dense grid.
    """
    p = system.ring.field.p
    support: list[tuple] = [()]
    coeffs: list[int] = []  # the previous stage's coefficients on `support`
    for k, bound in enumerate(plan.axis_bounds):
        nodes = [anchors[k]]
        while len(nodes) <= bound:
            v = rng.randrange(p)
            if v not in nodes:
                nodes.append(v)
        fresh = nodes[1:] if k else nodes
        ratios, geometric = _geometric_nodes(support, p, rng)
        heads = [tuple(pow(r, i, p) for r in ratios) for i in range(len(support))]
        tail = tuple(anchors[k + 1:])
        points = [head + (v,) + tail for v in fresh for head in heads]
        values = _vector(_values_mod(system, plan, points, rng), p)
        # one transposed system per fresh node, solved together: row j of
        # by_node holds the coefficients on the support at nodes[j]
        slices = _vandermonde_solve(geometric, list(values.reshape(len(fresh), -1).T),
                                    p, transposed=True)
        by_node = np.stack(slices, axis=1)
        if k:
            by_node = np.vstack([_vector(coeffs, p), by_node])
        by_exponent = _vandermonde_solve(nodes, list(by_node), p)
        found = [(s + (e,), int(c)) for e, row in enumerate(by_exponent)
                 for s, c in zip(support, row) if c]
        support = [s for s, _ in found]
        coeffs = [c for _, c in found]
        if not support:
            break
    return _by_monomial(plan, zip(support, coeffs))


def _support_coeffs(system: MacaulaySystem, plan: _GridPlan, rng: Random,
                    support: list[tuple]) -> Optional[dict[tuple, int]]:
    """Coefficients on a known support (exponents on the axes): values at
    the geometric points (r_0^i, ..., r_n^i), i < t, and one transposed
    Vandermonde solve."""
    p = system.ring.field.p
    ratios, nodes = _geometric_nodes(support, p, rng)
    points = [tuple(pow(r, i, p) for r in ratios) for i in range(len(support))]
    coeffs = _vandermonde_solve(nodes, _values_mod(system, plan, points, rng), p,
                                transposed=True)
    return _by_monomial(plan, ((s, c) for s, c in zip(support, coeffs) if c))


def _image_coeffs(system: MacaulaySystem, plan: _GridPlan, seed: int,
                  support: Sequence[tuple] = ()) -> dict[tuple, int]:
    """Coefficients of the resultant by monomial, over the prime field of
    the system.

    Sparse stages run where the probe needs at most _MAX_SPARSE_PROBES
    points to reach its bound.  A support already seen at other primes is
    tried first (t points); then Zippel's stages from fresh anchors.  Each
    sparse image is probed at its own prime and recomputed when the probe
    fails.  Elsewhere (D near p, as in small fields) and when no parameter
    varies, the full tensor grid runs: a proof.
    """
    p = system.ring.field.p
    rng = Random((seed << 20) ^ p)
    probes = _probe_count(plan.degree_bound, p)
    if not plan.axes or probes is None or probes > _MAX_SPARSE_PROBES:
        coeffs = _dense_coeffs(system, plan, rng)
        if coeffs is None:
            raise DegeneracyError("interpolation-inconsistent",
                                  "grid coefficient outside the homogeneity range")
        return coeffs
    for attempt in range(_RETRIES):
        if attempt == 0 and support:
            coeffs = _support_coeffs(system, plan, rng, list(support))
        else:
            anchors = [rng.randrange(1, p) for _ in plan.axes]
            coeffs = _sparse_coeffs(system, plan, rng, anchors)
        if coeffs is not None and _verify_candidate(
                Polynomial(system.ring, coeffs), system, plan, seed):
            return coeffs
    raise DegeneracyError("interpolation-inconsistent",
                          "modular image failed the verification probe")


def _verify_candidate(candidate: Polynomial, system: MacaulaySystem,
                      plan: _GridPlan, seed: int) -> bool:
    """Compare the candidate with the resultant of the (prime-field) system
    at k random points of the plan's axes (pivots at 1), k the least with
    (D/p)^k <= 2^-32 for D = plan.degree_bound.

    The resultant has total degree at most D in the parameters, so a
    candidate of higher degree is rejected outright.  Otherwise a wrong
    candidate differs from the resultant by a nonzero polynomial of degree
    at most D, homogeneous in each block, and so still nonzero with the
    pivots at 1.  It vanishes at a random point with probability at most
    D/p (Schwartz-Zippel), so it passes all k probes with probability at
    most (D/p)^k <= 2^-32.  With D >= p no number of probes reaches the
    bound, and the candidate is rejected.
    """
    p = system.ring.field.p
    probes = _probe_count(plan.degree_bound, p)
    claimed = _reduce_form_mod(candidate, system.ring)
    if probes is None or claimed.degree() > plan.degree_bound:
        return False
    rng = Random((seed << 21) ^ p)
    points = [tuple(rng.randrange(p) for _ in plan.axes) for _ in range(probes)]
    pad = [0] * system.block_size
    return all(value == claimed.evaluate(pad + plan.point_values(point))
               for value, point in zip(_values_mod(system, plan, points, rng), points))


def _interpolated_resultant(system: MacaulaySystem, plan: _GridPlan,
                            seed: int) -> Polynomial:
    """Interpolation on the plan's axes: in the field itself over F_p; over
    QQ on one reduced copy of the system per prime, combined by CRT and
    rational reconstruction.  Over QQ the images after the first try the
    support seen so far; the first candidate whose coefficients all
    reconstruct is accepted once it passes the probe at a fresh prime, and
    when it fails, the next prime joins the CRT."""
    ring = system.ring
    if isinstance(ring.field, PrimeField):
        return Polynomial(ring, _image_coeffs(system, plan, seed))

    copies: dict[int, MacaulaySystem] = {}

    def reduced(q: int) -> MacaulaySystem:
        if q not in copies:
            copies[q] = system._reduced(GF(q))
        return copies[q]

    residue_maps: dict[int, dict[tuple, int]] = {}
    support: set[tuple] = set()  # exponents on the axes, over every image
    for p in internal_primes():
        if len(residue_maps) >= _MAX_PRIMES:
            raise DegeneracyError("interpolation-unstable",
                                  "rational reconstruction did not stabilize")
        try:
            image = _image_coeffs(reduced(p), plan, seed, sorted(support))
        except _BadPrime:
            continue
        residue_maps[p] = image
        support.update(tuple(m[v] for v in plan.axes) for m in image)
        recon = {}
        for m in set().union(*residue_maps.values()):
            v, modulus = crt_combine((rm.get(m, 0), q) for q, rm in residue_maps.items())
            f = rational_reconstruct(v % modulus, modulus)
            if f is None:
                break
            recon[m] = f
        else:
            candidate = Polynomial(ring, {m: c for m, c in recon.items() if c != 0})
            for q in internal_primes():
                if q in residue_maps:
                    continue
                try:
                    if _verify_candidate(candidate, reduced(q), plan, seed):
                        return candidate
                except _BadPrime:
                    continue
                break
    raise DegeneracyError("interpolation-unstable", "prime supply exhausted")


# -- public entry points -------------------------------------------------------------

def macaulay_resultant(forms: Sequence[Polynomial], block_size: Optional[int] = None,
                       *, strategy: str = "auto", seed: int = 0,
                       blocks: Optional[Sequence[Sequence[int]]] = None) -> Polynomial:
    """Resultant of n+1 block-homogeneous forms, eliminating the leading block.

    Numeric systems go through the determinant ratio with a seeded
    coordinate-change ladder.  Parametric systems use fraction-free symbolic
    elimination ("ratio") or modular interpolation ("modular").  "auto"
    interpolates over F_p whenever the field can hold the grid, and takes
    the ratio route only when it cannot.  Over QQ it tries the ratio route
    first on matrices of order <= 14 and interpolates when that degenerates,
    and interpolates larger ones.  Returns a polynomial of the ambient ring
    with zero block degrees (a constant when the input is numeric).
    """
    if strategy not in ("auto", "ratio", "modular"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if not forms:
        raise InvalidInputError("no forms given")
    ring = forms[0].ring
    bs = ring.nvars if block_size is None else block_size
    if any(f.is_zero() for f in forms):
        return ring.zero()
    system = MacaulaySystem(forms, bs)  # validates shapes and degrees
    rng = Random(seed)
    if all(not any(m[bs:]) for f in forms for m in f.terms):
        return ring.const(_point_value(system, None, rng))

    # over F_p the grid is planned up front (its size decides whether the
    # field can hold it); over QQ only when interpolation runs
    fld = ring.field
    plan = _GridPlan(system, blocks) if isinstance(fld, PrimeField) else None
    modular_possible = plan is None or plan.max_axis_length() <= fld.p

    def interpolate() -> Polynomial:
        grid = plan if plan is not None else _GridPlan(system, blocks)
        return _interpolated_resultant(system, grid, seed)

    if strategy == "modular":
        if not modular_possible:
            raise DegeneracyError("interpolation-underdetermined",
                                  "field too small for the required grid")
        return interpolate()
    if strategy == "ratio" or not modular_possible:
        return _ratio_resultant(system, forms, rng)
    if plan is None and system.size <= 14:
        try:
            return _ratio_resultant(system, forms, rng)
        except DegeneracyError:
            pass
    return interpolate()


def map_resultant(forms: Sequence[Polynomial], block_size: Optional[int] = None,
                  **kwargs) -> Polynomial:
    """Resultant of the coordinate forms of a self-map.

    Nonzero exactly when the forms share no projective zero over the
    algebraic closure, i.e. when they define a morphism.
    """
    return macaulay_resultant(forms, block_size, **kwargs)


def gradient_resultant(form: Polynomial, block_size: Optional[int] = None,
                       **kwargs) -> Polynomial:
    """Resultant of the block partial derivatives; zero iff the hypersurface
    is singular (over the closure).  Requires block degree >= 2."""
    ring = form.ring
    bs = ring.nvars if block_size is None else block_size
    block = tuple(range(bs))
    d = form.homogeneous_degree_in_block(block)
    if form.is_zero() or d is None or d < 2:
        raise InvalidInputError("gradient resultant needs a block-homogeneous "
                                "form of degree >= 2")
    partials = [form.derivative(v) for v in range(bs)]
    if any(q.is_zero() for q in partials):
        return ring.zero()
    return macaulay_resultant(partials, bs, **kwargs)


def discriminant_binary(form: Polynomial, pair=(0, 1)) -> Polynomial:
    """Discriminant of a binary form: signed resultant of its two partials.

    Normalized so the degree-2 form a x0^2 + b x0 x1 + c x1^2 gives b^2 - 4ac;
    for degree m this is m^(m-2) times the classical monic discriminant, which
    leaves the vanishing locus (repeated root over the closure) unchanged.
    """
    m = form.homogeneous_degree_in_block(pair)
    if form.is_zero() or m is None or m < 2:
        raise InvalidInputError("binary discriminant needs a pair-homogeneous "
                                "form of degree >= 2")
    p0 = form.derivative(pair[0])
    p1 = form.derivative(pair[1])
    res = sylvester_resultant(p0, p1, pair, degrees=(m - 1, m - 1))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return res.scale(sign)
