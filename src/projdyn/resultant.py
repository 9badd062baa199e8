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

- numeric forms go through the point evaluator (`_point_value`): det M /
  det M' mod p, by one elimination (`_field_ratio`) along the schedule,
  dense with a pivot search inside the current block from a zero pivot
  on; over QQ at internal primes, on the integral copy, combined by CRT
  up to a proven height bound (`_numeric_resultant`);
- parametric systems take fraction-free symbolic elimination ("ratio") or
  interpolation of modular images ("modular").  Where a few random probes
  bound the chance of a wrong image by 2^-32, each image is probed: a
  parameter-free pushforward step (`dynamics._image_form`, which claims
  that y0^e divides R) first interpolates on the lower set of the norm's
  degree, in as many points as the norm has coefficients; every other
  image, and one whose probe fails, takes Zippel's variable-by-variable
  stages.  Elsewhere (a field small against the resultant's degree) the
  image is interpolated on the box of its degree bounds cut at each
  homogeneity block's degree, which is exact.  Both lower sets take one
  solver, Newton interpolation by divided differences along each axis
  (`_newton_solve`).  The points of a batch are valued from the program
  and eliminated along the schedule together: in lockstep on Python ints,
  in one inlined loop with one modular inverse per pivot step for the
  whole batch (Montgomery's trick), or, for large batches below 2^28, as
  one int64 numpy batch.  Points where that meets a zero pivot go to the
  point evaluator.  Zippel's Vandermonde systems are solved by one matrix
  product with a table of quotients: on int64 arrays below 2^28, on
  Python ints above.  The int64 code is the module `_batch64`, the one
  that imports numpy; this module imports it inside the two branches that
  run it, so every other route leaves numpy unloaded.  Over QQ the forms'
  denominators are cleared once, into an integral copy of the system, and
  each prime gets one reduced copy of that; the images are combined by
  symmetric CRT (`_garner_step`, as for numeric systems), and each
  candidate is checked at a fresh prime.

Every kernel on matrices of values runs over F_p only.  When the reduced
minor vanishes, the ratio route and the point evaluator take Canny's
generalized characteristic polynomial (J. Symbolic Comput. 9,
1990): row mu carries its form's pure power x_i^{d_i} on the diagonal, so
F_i - s x_i^{d_i} give M - sI and M' - sI, C(s) = det(M - sI) /
det(M' - sI) is a polynomial, and C(0) is the resultant, whatever the input.

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
from operator import add, mul
from random import Random
from typing import Optional, Sequence

from . import upoly
from .coeff import _INTERNAL_PRIME_BOUND, GF, PrimeField, internal_primes
from .errors import DegeneracyError, InvalidInputError, RingMismatchError
from .mpoly import (Polynomial, Ring, _block_coefficients, determinant,
                    divexact, embed, monomials_of_degree)

_RETRIES = 5          # attempts before giving up: node draws, sparse images
_MAX_PRIMES = 24      # CRT budget for interpolation over QQ
_LOCKSTEP_POINTS = 8  # batches up to this size run on Python ints; they beat
                      # numpy's per-step cost (measured crossover: 12-32
                      # points, orders 3-36), so the bound is conservative
_NUMPY_SAFE = _INTERNAL_PRIME_BOUND  # int64 products stay overflow-free
                                     # below this; every CRT prime lies below
_PROBE_BITS = 32       # an accepted candidate is wrong with probability <= 2^-32
_MAX_SPARSE_PROBES = 4  # sparse stages run only where this many probes suffice


# -- small linear algebra over field values ----------------------------------------

def _field_ratio(m, p: int, minor_size: int = 0, schedule=None) -> int:
    """det M / det M' mod p for a square matrix M of ints (overwritten), M'
    its leading minor_size x minor_size block: det M when minor_size is 0.
    DegeneracyError when M' is singular mod p.

    One elimination.  It follows `schedule` (see _elimination_schedule)
    while the pivots are nonzero; from the first zero pivot on, and from
    the start without a schedule, it runs dense, searching each step's
    pivot inside that step's block: the rows of M' for the first
    minor_size steps, then the rest.  So the first minor_size pivots give
    det M' and the others the ratio; a row swap inside M' changes the sign
    of both determinants and leaves the ratio, a swap after it negates the
    ratio.  An entry is reduced only where it is read (pivot, pivot row,
    factor), as in _scheduled_ratios.
    """
    ratio = 1
    steps = schedule or ()
    k = len(m)
    for i in range(k):
        top = m[i]
        top[i] %= p
        if i < len(steps) and top[i]:
            below, right = steps[i]
        else:
            steps = ()
            for r in range(i, minor_size if i < minor_size else k):
                m[r][i] %= p
                if m[r][i]:
                    break
            else:
                if i < minor_size:
                    raise DegeneracyError("macaulay-minor-singular",
                                          "reduced minor vanished on this input")
                return 0
            if r != i:
                m[i], m[r] = m[r], top
                top = m[i]
                if i >= minor_size:
                    ratio = -ratio
            below = right = range(i + 1, k)
        if i >= minor_size:
            ratio = ratio * top[i] % p
        if not (below and right):
            continue
        inv = pow(top[i], -1, p)
        for c in right:
            top[c] %= p
        for r in below:
            row = m[r]
            f = row[i] * inv % p
            if f:
                for c in right:
                    row[c] -= f * top[c]
    return ratio % p


def _charpoly_low(m, p: int, terms=None) -> list:
    """The coefficients of det(sI - M) mod p, constant term first, for a
    square matrix M of residues mod p (overwritten): all k + 1 of them, or
    the first `terms`.

    M is reduced to upper Hessenberg form H by similarity, then
    p_j = det(sI - H_j), H_j the leading j x j block, by the recurrence
    p_j = (s - h_jj) p_{j-1} - sum_{i<j} h_ij h_{j,j-1} ... h_{i+1,i} p_{i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9),
    every p_j cut to `terms` coefficients.  The sum stops at the first zero
    subdiagonal entry, where H splits into blocks; the reduction skips zero
    multipliers and the zero entries of the pivot row.
    """
    k = len(m)
    n = k + 1 if terms is None else terms
    for j in range(k - 2):
        r = next((r for r in range(j + 1, k) if m[r][j]), None)
        if r is None:
            continue
        if r != j + 1:
            m[j + 1], m[r] = m[r], m[j + 1]
            for row in m:
                row[j + 1], row[r] = row[r], row[j + 1]
        top = m[j + 1]
        inv = pow(top[j], -1, p)
        # the column operations below change column j + 1 of every row
        right = [c for c in range(j, k) if top[c] or c == j + 1]
        for r in range(j + 2, k):
            row = m[r]
            if not row[j]:
                continue
            u = row[j] * inv % p
            # row r -= u * row j+1, then column j+1 += u * column r
            for c in right:
                row[c] = (row[c] - u * top[c]) % p
            for other in m:
                if other[r]:
                    other[j + 1] = (other[j + 1] + u * other[r]) % p
    polys = [[1] + [0] * (n - 1)]
    for j in range(k):
        prev = polys[-1]
        h = m[j][j]
        new = [-h * prev[0]] + [a - h * b for a, b in zip(prev, prev[1:])]
        t = 1
        for i in range(j - 1, -1, -1):
            t = t * m[i + 1][i] % p
            if not t:
                break
            c = m[i][j] * t % p
            if c:
                new = [a - c * b for a, b in zip(new, polys[i])]
        polys.append([a % p for a in new])
    return polys[-1]


def _canny_ratio(m, minor_size: int, p: int) -> int:
    """det M / det M' mod p for a matrix M of residues mod p (overwritten)
    in the Macaulay layout, M' its leading minor_size x minor_size block,
    also where M' is singular: C(0) for C(s) = det(M - sI) / det(M' - sI)
    (see the module docstring).  With a the order of s in det(sI - M'),
    that is (-1)^(k - minor_size) [s^a] det(sI - M) / [s^a] det(sI - M');
    only the first a + 1 coefficients of det(sI - M) are computed.
    """
    minor = _charpoly_low([row[:minor_size] for row in m[:minor_size]], p)
    a = next(i for i, c in enumerate(minor) if c)  # the s^minor_size one is 1
    ratio = _charpoly_low(m, p, a + 1)[a] * pow(minor[a], -1, p) % p
    return -ratio % p if (len(m) - minor_size) % 2 else ratio


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
    compiled once into ints, (varying, base, cells):
    - `varying`: the coefficients that involve a parameter, each as its
      terms (c, ((param, exponent), ...)), params counted from 0;
    - `base`: the k x k matrix of the other coefficients' values, 0
      elsewhere;
    - `cells`: (row, column, n) for each entry of varying[n].
    The matrices of parameter points (`_value_matrices`) and the int64
    numpy batch both read it: powers of each parameter once per point,
    then inline arithmetic mod p.

    `schedule[i]` is the structural pattern of unpivoted elimination at
    diagonal step i, closed under fill-in: the rows below i with a nonzero
    in column i, and the columns right of i with a nonzero in row i.  One
    elimination along it gives det M' as the product of the first
    minor_size pivots and det M / det M' as the product of the others.
    It is None when a pivot is structurally zero (a form lacks its pure
    power and no fill-in reaches that diagonal entry); every value then
    comes from `_field_ratio`'s dense elimination.  It is built on one
    int per row, bit c set where column c is structurally nonzero.
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
        varying = []
        # per form: block monomial -> its index in `varying`, or the value
        # of a parameter-free coefficient
        position, fixed = [], []
        for tab in self.coeff_tables:
            position.append({})
            fixed.append({})
            for mb, c in tab.items():
                coeff = [(v, tuple([(j, e) for j, e in enumerate(m[bs:]) if e]))
                         for m, v in c.terms.items()]
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
        return varying, base, cells

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
        varying, base, cells = self.program
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
        correct); ZeroDivisionError when a denominator vanishes, which
        cannot happen on the integral copy (`_integral`) that interpolation
        reduces.
        """
        out = copy.copy(self)
        out.ring = Ring(self.ring.nvars, fld)
        out.coeff_tables = [{mb: _reduce_form_mod(c, out.ring) for mb, c in tab.items()}
                            for tab in self.coeff_tables]
        out.program = out._compile()
        return out

    def _integral(self) -> tuple["MacaulaySystem", int]:
        """Over QQ: the same layout with the coefficients of each form F_i
        multiplied by L_i, the lcm of their denominators, and the factor
        prod L_i^e_i by which that multiplies the resultant (of degree e_i
        in F_i's coefficients, see resultant_degrees)."""
        out = copy.copy(self)
        out.coeff_tables = []
        scale = 1
        for tab, e in zip(self.coeff_tables, resultant_degrees(self.degrees)):
            lcm = math.lcm(*(v.denominator for c in tab.values() for v in c.terms.values()))
            out.coeff_tables.append({mb: c.scale(lcm) for mb, c in tab.items()}
                                    if lcm > 1 else tab)
            scale *= lcm ** e
        return out, scale


# -- determinant ratios of field values ----------------------------------------------

def _inverses_mod(values: list[int], p: int) -> list[int]:
    """Inverses of nonzero residues mod p by Montgomery's simultaneous
    inversion (Math. Comp. 48, 1987): one pow and 3(n-1) products.  The
    int64 batch inverts each step's pivots with it, the Python-int
    Vandermonde solve its M'(v), and the Newton solve its node differences;
    the lockstep loop of _scheduled_ratios runs the same trick inline."""
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
    """det M / det M' mod p for each matrix of ints in `mats` (one per
    point, overwritten), for a system over F_p: the product of the pivots
    after the reduced minor's, from one unpivoted elimination along the
    schedule.  None for a point where a pivot is zero, and for every point
    of a system without a schedule; the point evaluator takes those.

    The points step through the schedule in lockstep, so each diagonal
    step inverts the pivots of the whole batch at once (Montgomery's
    trick, as in _inverses_mod, fused with reading the pivots).  An entry
    is reduced only where it is read (pivot, pivot row, factor); it takes
    at most one update per step, so stays below k * p^2 in size."""
    n = len(mats)
    if system.schedule is None:
        return [None] * n
    km = system.minor_size
    p = system.ring.field.p
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


def _point_value(system: MacaulaySystem, m, p: int) -> int:
    """The resultant's value mod p for one matrix M of ints in the system's
    layout (left as it is): det M / det M' by `_field_ratio`, or where M'
    is singular mod p, Canny's C(0) by `_canny_ratio`.  A form that
    vanishes zeroes its rows, and the value is then 0."""
    try:
        return _field_ratio([row[:] for row in m], p, system.minor_size, system.schedule)
    except DegeneracyError:
        return _canny_ratio([[x % p for x in row] for row in m], system.minor_size, p)


def _ratio_resultant(system: MacaulaySystem, forms: Sequence[Polynomial]) -> Polynomial:
    """Symbolic det M / det M' via fraction-free elimination and exact division.

    Where det M' vanishes identically, the same runs on the forms
    F_i - s x_i^{d_i}, s a new last variable: their matrices are M - sI and
    M' - sI, and det(M' - sI) = +-s^k' + ... is never 0.  The s-free terms
    of the quotient C(s) are C(0), the resultant.
    """
    def solve(layout: MacaulaySystem) -> Optional[Polynomial]:
        det_minor = (determinant(layout.minor_matrix()) if layout.minor_size
                     else layout.ring.one())
        if det_minor.is_zero():
            return None
        det_full = determinant(layout.matrix())
        return layout.ring.zero() if det_full.is_zero() else divexact(det_full, det_minor)

    res = solve(system)
    if res is not None:
        return res
    ring = system.ring
    wide = Ring(ring.nvars + 1, ring.field)
    s = wide.var(ring.nvars)
    shifted = [embed(f, wide) - wide.var(i) ** d * s
               for i, (f, d) in enumerate(zip(forms, system.degrees))]
    res = solve(MacaulaySystem(shifted, system.block_size))
    return Polynomial(ring, {m[:-1]: c for m, c in res.terms.items() if not m[-1]})


# -- modular interpolation of parametric resultants ---------------------------------

def _reduce_form_mod(f: Polynomial, target: Ring) -> Polynomial:
    """f with its coefficients in the prime field of `target`;
    ZeroDivisionError when a denominator vanishes there."""
    fld = target.field
    terms = {}
    for m, c in f.terms.items():
        v = fld.coerce(c)
        if v:
            terms[m] = v
    return Polynomial(target, terms)


def _vandermonde_solve(nodes: Sequence[int], rhs: Sequence, p: int,
                       transposed: bool = False) -> list:
    """Solve a Vandermonde system on distinct nodes over F_p in O(t^2).

    Plain: the c with sum_j c_j nodes[i]^j = rhs[i], the polynomial that
    takes the values rhs at the nodes.  Transposed: the c with
    sum_j c_j nodes[j]^i = rhs[i], the coefficients of a sparse polynomial
    from its values at geometric points.  With M the product of (z - v)
    over the nodes, the interpolant that is 1 at v and 0 at the other
    nodes is (M / (z - v)) / M'(v).  The t x t table of the quotients
    M / (z - v), row s for nodes[s], is built once, by t steps of
    synthetic division over all nodes together, then M'(v) by Horner.  The
    transposed solve is the table times rhs, the plain one its transpose
    times rhs, each one product mod p, with the 1 / M'(v) applied to the t
    rows of the result or of rhs.  Below _NUMPY_SAFE that runs on int64
    arrays, in `_batch64`.  Above it, where int64 products could overflow,
    on Python ints: M by `upoly.mulmod`, the M'(v) inverted together by
    `_inverses_mod` (one pow), and each entry of the product one
    `sum(map(mul, ...))`.  Entries of `rhs` are ints, or rows of ints of
    one length (one system per position); the result has the same form,
    in lists of plain ints.
    """
    t = len(nodes)
    z = [v % p for v in nodes]
    if p < _NUMPY_SAFE:
        from . import _batch64
        return _batch64._vandermonde_solve(z, rhs, p, transposed)
    master = [1]
    for v in z:
        master = upoly.mulmod([-v, 1], master, p=p)
    table = [None] * t  # column s of table[i]: the z^i coefficient of M / (z - nodes[s])
    acc, deriv = [1] * t, [0] * t
    for i in range(t - 1, -1, -1):
        table[i] = acc
        deriv = [(d * v + a) % p for d, v, a in zip(deriv, z, acc)]
        m = master[i]
        acc = [(m + v * a) % p for v, a in zip(z, acc)]
    if not all(deriv):
        raise DegeneracyError("interpolation-singular", "repeated interpolation node")
    scale = _inverses_mod(deriv, p)
    scalar = isinstance(rhs[0], int)
    columns = [rhs] if scalar else list(zip(*rhs))
    if transposed:
        solved = [[sum(map(mul, row, col)) * s % p for col in columns]
                  for row, s in zip(zip(*table), scale)]
    else:
        columns = [list(map(mul, col, scale)) for col in columns]
        solved = [[sum(map(mul, row, col)) % p for col in columns] for row in table]
    return [row[0] for row in solved] if scalar else solved


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

    `floor` is a claim that the first block's pivot divides the resultant
    to that power, as y0^e divides a pushforward's elimination (see
    `dynamics._image_form`).  The resultant's degree in that block's other
    variables is then at most block degree - floor, and `lower_set` can cap
    them there.  The plan keeps the floor only where every axis lies in
    that block, so no other parameter varies (a parameter-free
    pushforward); elsewhere `floor` reads 0.  Nothing here checks the
    claim; a floored image is accepted only through the probe
    (`_image_coeffs`).
    """

    def __init__(self, system: MacaulaySystem, blocks: Optional[Sequence[Sequence[int]]],
                 floor: int = 0):
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
        # the floor is kept only where every axis lies in the first block
        first = list(blocks[0]) if floor and blocks else []
        self.floor_pivot = first[0] if first and set(self.axes) <= set(first) else None
        self.floor = floor if self.floor_pivot is not None else 0

    def max_axis_length(self) -> int:
        return max((b + 1 for b in self.axis_bounds), default=1)

    def lower_set(self, floored: bool = False) -> list[tuple]:
        """The exponent tuples on the axes where the resultant can have a
        term: the box of the axis bounds, cut at each block's degree in the
        block's axes; with `floored`, the floored block's at block degree -
        floor.  A lower set: lowering any exponent stays inside it."""
        caps = []
        for pivot, others in self.pivot_block.items():
            cap = self.block_degree[pivot]
            if floored and pivot == self.floor_pivot:
                cap -= self.floor
            caps.append(([k for k, v in enumerate(self.axes) if v in others], cap))
        return [a for a in itertools.product(*(range(b + 1) for b in self.axis_bounds))
                if all(sum(a[k] for k in axes) <= cap for axes, cap in caps)]

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


def _values_mod(system: MacaulaySystem, plan: _GridPlan, points) -> list[int]:
    """Exact resultant values mod p at parameter points, each a tuple of
    values on the plan's axes.

    Every point meets one elimination along the schedule.  A batch of more
    than _LOCKSTEP_POINTS points below _NUMPY_SAFE runs as one int64 numpy
    batch (`_batch64`); any other batch (every batch above _NUMPY_SAFE,
    where int64 products could overflow) runs in lockstep on Python ints
    (`_scheduled_ratios`).  Points where that meets a zero pivot (every
    point where a form vanishes does: its rows are zero), and every point
    of a system without a schedule, go through the point evaluator: one
    elimination that goes dense from the zero pivot on, then Canny's
    generalized characteristic polynomial if the reduced minor genuinely
    vanishes there.
    """
    p = system.ring.field.p
    if system.schedule is None:
        values, todo = [0] * len(points), range(len(points))
    elif p < _NUMPY_SAFE and len(points) > _LOCKSTEP_POINTS:
        from . import _batch64
        values, todo = _batch64._batched_values_mod(system, plan, points)
    else:
        values = _scheduled_ratios(
            system, system._value_matrices([plan.point_values(pt) for pt in points]))
        todo = [i for i, v in enumerate(values) if v is None]
    for i in todo:
        m, = system._value_matrices([plan.point_values(points[i])])
        values[i] = _point_value(system, m, p)
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


def _newton_solve(lower: Sequence[tuple], values: Sequence[int], p: int) -> list[int]:
    """The coefficients, on the exponent tuples of the lower set `lower`,
    of the polynomial with support in `lower` that takes values[i] at the
    point (a_0 + 1, ..., a_m + 1) for a = lower[i]: nodes 1..l on each axis,
    distinct mod p while l <= p.  `lower` is nonempty, in any order.

    Newton interpolation on a lower set (Dyn and Floater, Acta Numerica 23,
    2014).  Along each axis the exponent tuples of `lower` fall into fibers,
    runs 0, 1, ... of that axis's exponent with the others fixed.  Divided
    differences run along every axis in turn on its fibers, which turns the
    values into the coefficients on the Newton basis prod_k N_{a_k}(x_k),
    N_j(x) = (x - 1) ... (x - j).  Then each axis in turn converts its
    fibers from Newton to monomial form.  All divided differences come
    first: after a conversion along one axis an entry mixes entries of
    different fiber lengths, so a later difference along another axis
    would not see a polynomial's values.  Nodes s apart differ by s, so
    each axis reads the inverses of 1..l-1, computed once by
    `_inverses_mod`.
    """
    values = [v % p for v in values]
    index = {a: i for i, a in enumerate(lower)}
    fibers = []  # per axis: the positions of each fiber, exponent 0 first
    for k in range(len(lower[0])):
        runs = []
        for a in lower:
            if a[k]:
                continue
            run, step = [index[a]], list(a)
            while True:
                step[k] += 1
                i = index.get(tuple(step))
                if i is None:
                    break
                run.append(i)
            if len(run) > 1:
                runs.append(run)
        fibers.append(runs)
    for runs in fibers:
        inverses = _inverses_mod(list(range(1, max(map(len, runs), default=1))), p)
        for run in runs:
            v = [values[i] for i in run]
            for s in range(1, len(v)):
                inv = inverses[s - 1]
                for i in range(len(v) - 1, s - 1, -1):
                    v[i] = (v[i] - v[i - 1]) * inv % p
            for i, c in zip(run, v):
                values[i] = c
    for runs in fibers:
        for run in runs:
            v = [values[i] for i in run]
            # Horner from the top: c_s + (x - (s + 1)) * (the higher part)
            for s in range(len(v) - 2, -1, -1):
                z = s + 1
                for i in range(s, len(v) - 1):
                    v[i] = (v[i] - z * v[i + 1]) % p
            for i, c in zip(run, v):
                values[i] = c
    return values


def _dense_coeffs(system: MacaulaySystem, plan: _GridPlan,
                  floored: bool = False) -> dict[tuple, int]:
    """Interpolation on the plan's lower set (`_GridPlan.lower_set`): the
    resultant's values at its points, then `_newton_solve`.

    Unfloored, the lower set holds the resultant's whole support, so the
    result is exact and needs no probe.  Floored, it holds it only where
    the floor's claim is true, and the caller probes the result.
    """
    lower = plan.lower_set(floored)
    values = _values_mod(system, plan, [tuple(e + 1 for e in a) for a in lower])
    coeffs = _newton_solve(lower, values, system.ring.field.p)
    return {plan.monomial_for(a): c for a, c in zip(lower, coeffs) if c}


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
    first axis densely at its anchor and b_0 further values, straight from
    the values (its support is the empty monomial).  After stage k
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
        values = _values_mod(system, plan, points)
        # row j of by_node holds the coefficients on the support at nodes[j]
        if k:
            # one transposed system per fresh node, solved together
            t = len(heads)
            slices = _vandermonde_solve(geometric, [values[i::t] for i in range(t)],
                                        p, transposed=True)
            by_node = [coeffs] + list(zip(*slices))
        else:
            # the support is [()], one point per node: the values themselves
            by_node = [(v,) for v in values]
        by_exponent = _vandermonde_solve(nodes, by_node, p)
        found = [(s + (e,), c) for e, row in enumerate(by_exponent)
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
    coeffs = _vandermonde_solve(nodes, _values_mod(system, plan, points), p,
                                transposed=True)
    return _by_monomial(plan, ((s, c) for s, c in zip(support, coeffs) if c))


def _image_coeffs(system: MacaulaySystem, plan: _GridPlan, seed: int,
                  support: Sequence[tuple] = ()) -> dict[tuple, int]:
    """Coefficients of the resultant by monomial, over the prime field of
    the system.

    Where the probe would need more than _MAX_SPARSE_PROBES points to reach
    its bound (D near p, as in small fields), and when no parameter
    varies, the unfloored lower set runs (`_dense_coeffs`): a proof.
    Elsewhere every image is probed at its own prime, so a wrong one passes
    with probability at most 2^-32 (`_verify_candidate`):
    - a plan that keeps a floor (a parameter-free pushforward step), with
      no support known yet (over QQ the first prime), first interpolates
      on the floored lower set, which holds the support of y0^e times the
      norm in as many points as the norm has coefficients;
    - a support already seen at other primes is tried first (t points);
    - then, and after a failed probe, Zippel's stages from fresh anchors.
    """
    p = system.ring.field.p
    rng = Random((seed << 20) ^ p)
    probes = _probe_count(plan.degree_bound, p)
    if not plan.axes or probes is None or probes > _MAX_SPARSE_PROBES:
        return _dense_coeffs(system, plan)
    if plan.floor and not support:
        coeffs = _dense_coeffs(system, plan, floored=True)
        if _verify_candidate(Polynomial(system.ring, coeffs), system, plan, seed):
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
               for value, point in zip(_values_mod(system, plan, points), points))


def _garner_step(combined: dict, modulus: int, image: dict, p: int) -> int:
    """Fold residues mod p (a missing key is 0) into `combined`, symmetric
    residues modulo `modulus` coprime to p, in place, by one Garner step
    per key; returns modulus * p.  Each result lies in (-modulus * p / 2,
    modulus * p / 2]."""
    inverse, product = pow(modulus, -1, p), modulus * p
    for m in combined.keys() | image.keys():
        c = combined.get(m, 0)
        c += modulus * ((image.get(m, 0) - c) * inverse % p)
        combined[m] = c - product if 2 * c > product else c
    return product


def _height_bound_squared(m) -> int:
    """B^2 for B = C(k, floor(k/2)) prod_r ||M_r||_2, M the integer matrix
    of order k of a Macaulay layout: |Res| <= B for Res = det M / det M' or
    Canny's C(0).  Each row holds a nonzero form's coefficients, so
    ||M_r||_2 >= 1 and Hadamard bounds every principal minor by
    prod_r ||M_r||_2.  If det M' != 0, |Res| <= |det M|, as det M' is a
    nonzero integer.  Otherwise, a the order of s in det(sI - M'), |Res| =
    |[s^a] det(sI - M)| / |[s^a] det(sI - M')| <= |e_{k-a}(M)|, a sum of
    C(k, a) principal minors."""
    k = len(m)
    return math.comb(k, k // 2) ** 2 * math.prod(sum(x * x for x in row) for row in m)


def _numeric_resultant(system: MacaulaySystem) -> Fraction:
    """The resultant of numeric forms over QQ: the integral copy's matrix
    (`_integral`), valued by the point evaluator mod each internal prime
    that does not divide its factor, and folded in by `_garner_step`
    until the primes' product exceeds 2B (`_height_bound_squared`).  The
    symmetric residue is then the integral resultant: a proof."""
    integral, scale = system._integral()
    m = integral._matrix_of([{mb: int(c.constant_value()) for mb, c in tab.items()}
                             for tab in integral.coeff_tables], 0)
    bound = 4 * _height_bound_squared(m)
    primes = (p for p in internal_primes() if scale % p)
    combined, modulus = {(): 0}, 1
    while modulus * modulus <= bound:
        p = next(primes)
        modulus = _garner_step(combined, modulus, {(): _point_value(integral, m, p)}, p)
    return Fraction(combined[()], scale)


def _interpolated_resultant(system: MacaulaySystem, plan: _GridPlan,
                            seed: int) -> Polynomial:
    """Interpolation on the plan's axes: in the field itself over F_p; over
    QQ on the integral copy of the system (`_integral`), whose resultant
    has integer coefficients, reduced once per prime.

    Over QQ the images after the first try the support seen so far.  Each
    coefficient keeps its symmetric residue modulo the product of the
    primes so far, and `_garner_step` folds each new image in.  That
    candidate is probed at the next fresh prime; when it fails, that prime
    gives the next image.  A passing candidate is divided by the factor of `_integral`.
    Primes dividing that factor are skipped: mod such a prime every image
    is 0 (the factor divides the integral copy's resultant), so an image
    there carries nothing, and a probe there checks only that the
    candidate vanishes mod p.

    The stop is a probe, not a proof: a bound B on the coefficients, past
    which prod p > 2B would make it one (as for numeric systems), is not
    computed yet, and _MAX_PRIMES images are the budget instead.
    """
    ring = system.ring
    if isinstance(ring.field, PrimeField):
        return Polynomial(ring, _image_coeffs(system, plan, seed))

    integral, scale = system._integral()
    primes = (p for p in internal_primes() if scale % p)
    fresh = integral._reduced(GF(next(primes)))
    combined: dict[tuple, int] = {}  # symmetric residues modulo `modulus`
    modulus = 1
    support: set[tuple] = set()  # exponents on the axes, over every image
    for _ in range(_MAX_PRIMES):
        p = fresh.ring.field.p
        image = _image_coeffs(fresh, plan, seed, sorted(support))
        support.update(tuple(m[v] for v in plan.axes) for m in image)
        modulus = _garner_step(combined, modulus, image, p)
        candidate = Polynomial(ring, {m: c for m, c in combined.items() if c})
        fresh = integral._reduced(GF(next(primes)))
        if _verify_candidate(candidate, fresh, plan, seed):
            return candidate.scale(Fraction(1, scale))
    raise DegeneracyError("interpolation-unstable", "CRT did not stabilize")


# -- public entry points -------------------------------------------------------------

def macaulay_resultant(forms: Sequence[Polynomial], block_size: Optional[int] = None,
                       *, strategy: str = "auto", seed: int = 0,
                       blocks: Optional[Sequence[Sequence[int]]] = None,
                       _pivot_floor: int = 0) -> Polynomial:
    """Resultant of n+1 block-homogeneous forms, eliminating the leading block.

    Numeric systems go through the determinant ratio, or Canny's
    generalized characteristic polynomial where the reduced minor vanishes:
    over F_p once, over QQ at internal primes, combined by CRT up to a
    proven height bound (`_numeric_resultant`).  Neither draws anything at
    random, and `strategy` does not apply to them.  Parametric systems use fraction-free
    symbolic elimination ("ratio") or modular interpolation ("modular").
    "auto" interpolates over F_p whenever the field can hold the grid, and
    takes the ratio route only when it cannot.  Over QQ it takes the ratio
    route on matrices of order <= 14 and interpolates larger ones.  Returns a polynomial of the ambient ring
    with zero block degrees (a constant when the input is numeric).

    `_pivot_floor` is internal: a pushforward's claim that the first
    block's pivot divides the resultant to that power (`_GridPlan`).
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
    if all(not any(m[bs:]) for f in forms for m in f.terms):
        if isinstance(ring.field, PrimeField):
            m, = system._value_matrices([()])
            return ring.const(_point_value(system, m, ring.field.p))
        return ring.const(_numeric_resultant(system))

    # over F_p the grid is planned up front (its size decides whether the
    # field can hold it); over QQ only when interpolation runs
    fld = ring.field
    plan = _GridPlan(system, blocks, _pivot_floor) if isinstance(fld, PrimeField) else None
    modular_possible = plan is None or plan.max_axis_length() <= fld.p

    def interpolate() -> Polynomial:
        grid = plan if plan is not None else _GridPlan(system, blocks, _pivot_floor)
        return _interpolated_resultant(system, grid, seed)

    if strategy == "modular":
        if not modular_possible:
            raise DegeneracyError("interpolation-underdetermined",
                                  "field too small for the required grid")
        return interpolate()
    if strategy == "ratio" or not modular_possible or (plan is None and system.size <= 14):
        return _ratio_resultant(system, forms)
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
