"""Resultants of homogeneous polynomial systems.

Sylvester matrices for binary forms, the Macaulay construction (numerator
matrix and reduced minor) for n+1 forms in n+1 block variables, and the
strategies used when the plain determinant ratio degenerates: seeded linear
coordinate changes, and dense interpolation of parametric resultants from
modular images with CRT + rational reconstruction.

Ring convention: the first `block_size` variables of the ring are the
projective block being eliminated; remaining variables are parameters, and
parametric resultants are returned in the same ring with zero block degrees.
"""
from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

import numpy as np

from .coeff import (GF, PrimeField, RationalField, crt_combine,
                    internal_primes, rational_reconstruct)
from .errors import DegeneracyError, InvalidInputError, RingMismatchError
from .mpoly import (Polynomial, Ring, determinant, divexact,
                    monomials_of_degree)

_RETRIES = 5          # coordinate-change attempts before giving up
_MAX_PRIMES = 24      # CRT budget for rational interpolation
_CHUNK_POINTS = 4096  # grid points per batched numpy pass
_NUMPY_SAFE = 1 << 28  # primes below this keep int64 products overflow-free


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


class MacaulaySystem:
    """Macaulay matrix layout for n+1 forms in the leading n+1 variables.

    Columns are the block monomials of the critical degree D, graded-lex
    descending.  Each column monomial mu is assigned to the least i with
    x_i^{d_i} | mu; its row is (mu / x_i^{d_i}) * F_i.  The reduced minor
    uses the rows and columns whose monomial is divisible by x_i^{d_i} for
    at least two distinct i.
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
        self.forms = list(forms)
        self.block_size = bs
        self.degrees = degrees
        self.critical_degree = macaulay_critical_degree(degrees)
        self.columns = monomials_of_degree(bs, self.critical_degree)
        self.col_index = {m: i for i, m in enumerate(self.columns)}
        self.size = len(self.columns)

        assign = []
        extraneous = []
        for idx, mu in enumerate(self.columns):
            hits = [i for i in range(bs) if mu[i] >= degrees[i]]
            i = hits[0]  # pigeonhole: some coordinate reaches its degree
            shift = list(mu)
            shift[i] -= degrees[i]
            assign.append((i, tuple(shift)))
            if len(hits) >= 2:
                extraneous.append(idx)
        self.assignment = assign
        self.extraneous = extraneous
        self.minor_size = len(extraneous)

        # block-monomial -> parameter-coefficient tables, one per form
        tables = []
        for f in forms:
            tab: dict[tuple, dict] = {}
            for m, c in f.terms.items():
                mb = m[:bs]
                pm = (0,) * bs + m[bs:]
                tab.setdefault(mb, {})[pm] = c
            tables.append({mb: Polynomial(ring, d) for mb, d in tab.items()})
        self.coeff_tables = tables

    def _rows(self, indices):
        z = self.ring.zero()
        cols = self.col_index
        out = []
        for idx in indices:
            i, shift = self.assignment[idx]
            row = [z] * self.size
            for mb, cpoly in self.coeff_tables[i].items():
                col = cols[tuple(s + e for s, e in zip(shift, mb))]
                row[col] = cpoly
            out.append(row)
        return out

    def matrix(self):
        return self._rows(range(self.size))

    def minor_matrix(self):
        rows = self._rows(self.extraneous)
        return [[row[c] for c in self.extraneous] for row in rows]

    # -- specialization helpers ------------------------------------------------

    def value_tables(self, point=None):
        """Coefficient tables as field values, parameters set to `point`."""
        fld = self.ring.field
        full = None
        if point is not None:
            full = [fld.zero()] * self.block_size + list(point)
        out = []
        for tab in self.coeff_tables:
            vt = {}
            for mb, cpoly in tab.items():
                vt[mb] = cpoly.constant_value() if full is None else cpoly.evaluate(full)
            out.append(vt)
        return out

    def value_matrix(self, tables, indices=None):
        fld = self.ring.field
        idx = range(self.size) if indices is None else indices
        colset = None if indices is None else {c: k for k, c in enumerate(indices)}
        width = self.size if indices is None else len(indices)
        out = []
        for r in idx:
            i, shift = self.assignment[r]
            row = [fld.zero()] * width
            for mb, val in tables[i].items():
                col = self.col_index[tuple(s + e for s, e in zip(shift, mb))]
                if colset is None:
                    row[col] = val
                elif col in colset:
                    row[colset[col]] = val
            out.append(row)
        return out


# -- numeric evaluation (field-valued coefficients) ---------------------------------

def _numeric_ratio(system: MacaulaySystem, point=None):
    """det M / det M' as a field value; DegeneracyError if the minor vanishes."""
    fld = system.ring.field
    tables = system.value_tables(point)
    det_minor = _field_det(system.value_matrix(tables, system.extraneous), fld)
    if fld.is_zero(det_minor):
        raise DegeneracyError("macaulay-minor-singular",
                              "reduced minor vanished on this input")
    det_full = _field_det(system.value_matrix(tables), fld)
    return fld.div(det_full, det_minor)


def _numeric_resultant(forms: Sequence[Polynomial], block_size: int, rng: Random):
    """Field value of the resultant of numeric forms, with retry ladder."""
    fld = forms[0].ring.field
    system = MacaulaySystem(forms, block_size)
    try:
        return _numeric_ratio(system)
    except DegeneracyError:
        pass
    correction = math.prod(system.degrees)
    for _ in range(_RETRIES):
        a, det_a = _random_gl(block_size, fld, rng)
        moved = [_apply_linear(f, a, block_size) for f in forms]
        try:
            val = _numeric_ratio(MacaulaySystem(moved, block_size))
        except DegeneracyError:
            continue
        return fld.div(val, fld.pw(det_a, correction))
    raise DegeneracyError("macaulay-degenerate",
                          "reduced minor vanished for every coordinate change tried")


def _ratio_resultant(forms: Sequence[Polynomial], block_size: int,
                     rng: Random) -> Polynomial:
    """Symbolic det M / det M' via fraction-free elimination and exact division."""
    ring = forms[0].ring
    fld = ring.field
    system = MacaulaySystem(forms, block_size)
    correction = math.prod(system.degrees)
    scale = fld.one()
    for attempt in range(1 + _RETRIES):
        det_minor = determinant(system.minor_matrix()) if system.minor_size else ring.one()
        if not det_minor.is_zero():
            det_full = determinant(system.matrix())
            if det_full.is_zero():
                return ring.zero()
            res = divexact(det_full, det_minor)
            return res.scale(fld.inv(scale)) if attempt else res
        a, det_a = _random_gl(block_size, fld, rng)
        system = MacaulaySystem([_apply_linear(f, a, block_size) for f in forms],
                                block_size)
        scale = fld.pw(det_a, correction)
    raise DegeneracyError("macaulay-degenerate",
                          "reduced minor identically zero despite coordinate changes")


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


def _specialize_block_form(f: Polynomial, block_size: int, point, target: Ring):
    """Evaluate parameters at field values of `target`; keep the block symbolic."""
    fld = target.field
    acc: dict[tuple, object] = {}
    for m, c in f.terms.items():
        v = fld.coerce(c)
        for j, e in enumerate(m[block_size:]):
            if e:
                v = fld.mul(v, fld.pw(point[j], e))
        mb = m[:block_size]
        acc[mb] = fld.add(acc.get(mb, fld.zero()), v)
    terms = {m: c for m, c in acc.items() if not fld.is_zero(c)}
    return Polynomial(target, terms)


def _point_resultant(forms_block: Sequence[Polynomial], block_size: int, rng: Random):
    """Resultant value of numeric block forms, zero-form shortcut included."""
    fld = forms_block[0].ring.field
    if any(f.is_zero() for f in forms_block):
        return fld.zero()
    return _numeric_resultant(forms_block, block_size, rng)


def _vec_modpow(base: np.ndarray, e: int, p: int) -> np.ndarray:
    r = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            r = r * b % p
        b = b * b % p
        e >>= 1
    return r


def _batched_det_mod(a: np.ndarray, p: int):
    """Determinants of a batch of matrices mod p, no pivoting.

    Returns (dets, ok); entries with ok=False hit a zero pivot and must be
    recomputed with a pivoting algorithm.
    """
    n, k, _ = a.shape
    det = np.ones(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    if k == 0:
        return det, ok
    for i in range(k):
        piv = a[:, i, i]
        zero = piv == 0
        ok &= ~zero
        safe = np.where(zero, 1, piv)
        det = det * safe % p
        if i + 1 < k:
            inv = _vec_modpow(safe, p - 2, p)
            factors = a[:, i + 1:, i] * inv[:, None] % p
            a[:, i + 1:, i:] = (a[:, i + 1:, i:]
                                - factors[:, :, None] * a[:, i, i:][:, None, :]) % p
    return det % p, ok


def _chunked_matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p with the contraction chunked to stay inside int64."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], 64):
        out = (out + a[:, s:s + 64] @ b[s:s + 64, :]) % p
    return out


def _inverse_vandermonde_mod(vals: Sequence[int], fld) -> list:
    """Inverse of the Vandermonde matrix (v^j) on the nodes `vals` over F_p."""
    p = fld.p
    inv = _field_inverse([[pow(v, j, p) for j in range(len(vals))] for v in vals],
                         fld)
    if inv is None:
        raise DegeneracyError("interpolation-singular", "repeated grid value")
    return inv


class _GridPlan:
    """Axes, pivots and exact block degrees for one parametric interpolation."""

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

        self.block_degree = {}   # pivot var -> exact joint degree of the result
        self.pivot_block = {}    # pivot var -> list of its block's other vars
        pivots = set()
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
            pivots.add(pivot)
            self.block_degree[pivot] = degree
            self.pivot_block[pivot] = [v for v in blk[1:]]
            for v in blk[1:]:
                bounds[v] = min(bounds[v], degree)

        self.axes = []
        self.axis_bounds = []
        for v in params:
            if v in pivots or bounds[v] == 0:
                continue
            self.axes.append(v)
            self.axis_bounds.append(bounds[v])
        self.pivots = pivots
        self.params = params
        self.block_size = bs
        self.npoints = math.prod(b + 1 for b in self.axis_bounds)

    def max_axis_length(self) -> int:
        return max((b + 1 for b in self.axis_bounds), default=1)

    def point_values(self, exponents_to_vals):
        """Full parameter vector from per-axis values (pivots 1, dead vars 0)."""
        out = []
        for v in self.params:
            if v in self.pivots:
                out.append(1)
            elif v in exponents_to_vals:
                out.append(exponents_to_vals[v])
            else:
                out.append(0)
        return out

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


def _batched_values_mod(system: MacaulaySystem, plan: _GridPlan, full_mod: Ring,
                        lengths: Sequence[int], strides: Sequence[int]):
    """int64 batch pass over the grid: resultant values mod p, plus the flat
    indices of the points where unpivoted elimination hit a zero pivot."""
    p = full_mod.field.p
    npts = plan.npoints
    k = system.size
    km = system.minor_size

    # residue tables: form index -> block monomial -> coefficient terms mod p
    red_tables = [{mb: list(_reduce_form_mod(cpoly, full_mod).terms.items())
                   for mb, cpoly in tab.items()}
                  for tab in system.coeff_tables]

    res = np.zeros(npts, dtype=np.int64)
    bad: list[int] = []
    for start in range(0, npts, _CHUNK_POINTS):
        stop = min(npts, start + _CHUNK_POINTS)
        count = stop - start
        flat = np.arange(start, stop, dtype=np.int64)
        var_arrays = {}
        for a_i, v in enumerate(plan.axes):
            var_arrays[v] = (flat // strides[a_i]) % lengths[a_i] + 1
        for v in plan.params:
            if v in plan.pivots:
                var_arrays[v] = np.ones(count, dtype=np.int64)
            elif v not in var_arrays:
                var_arrays[v] = np.zeros(count, dtype=np.int64)

        # power tables per variable, up to the largest exponent used
        max_e = {v: 0 for v in plan.params}
        for rt in red_tables:
            for terms in rt.values():
                for m, _ in terms:
                    for v in plan.params:
                        if m[v] > max_e[v]:
                            max_e[v] = m[v]
        powers = {}
        for v in plan.params:
            tab = [np.ones(count, dtype=np.int64)]
            for _ in range(max_e[v]):
                tab.append(tab[-1] * var_arrays[v] % p)
            powers[v] = tab

        def eval_terms(terms):
            out = np.zeros(count, dtype=np.int64)
            for m, c in terms:
                t = np.full(count, c, dtype=np.int64)
                for v in plan.params:
                    e = m[v]
                    if e:
                        t = t * powers[v][e] % p
                out = (out + t) % p
            return out

        val_tabs = [{mb: eval_terms(terms) for mb, terms in rt.items()}
                    for rt in red_tables]

        big = np.zeros((count, k, k), dtype=np.int64)
        for r in range(k):
            i, shift = system.assignment[r]
            for mb, arr in val_tabs[i].items():
                col = system.col_index[tuple(s + e for s, e in zip(shift, mb))]
                big[:, r, col] = arr
        if km:
            ext = system.extraneous
            minor = big[:, ext][:, :, ext].copy()
            det_minor, ok_m = _batched_det_mod(minor, p)
        else:
            det_minor = np.ones(count, dtype=np.int64)
            ok_m = np.ones(count, dtype=bool)
        det_full, ok_f = _batched_det_mod(big, p)

        good = ok_m & ok_f & (det_minor != 0)
        vals = det_full * _vec_modpow(np.where(det_minor == 0, 1, det_minor),
                                      p - 2, p) % p
        res[start:stop] = np.where(good, vals, 0)
        bad.extend((start + int(j)) for j in np.nonzero(~good)[0])
    return res, bad


def _grid_values_mod(system: MacaulaySystem, plan: _GridPlan, fld: PrimeField,
                     seed: int) -> np.ndarray:
    """Resultant values over the dehomogenized grid, mod p, exact at every point.

    Below _NUMPY_SAFE a batched int64 pass fills the grid; above it int64
    products could overflow, so every point is left for the per-point pass.
    """
    p = fld.p
    lengths = [b + 1 for b in plan.axis_bounds]
    strides = [math.prod(lengths[a + 1:]) for a in range(len(lengths))]
    bs = system.block_size
    full_mod = Ring(system.ring.nvars, fld)
    if p < _NUMPY_SAFE:
        res, todo = _batched_values_mod(system, plan, full_mod, lengths, strides)
    else:
        res, todo = np.zeros(plan.npoints, dtype=object), range(plan.npoints)

    # per-point pass: pivoted elimination, then the coordinate-change ladder
    # if the reduced minor genuinely vanishes there
    if todo:
        target = Ring(bs, fld)
        reduced = [_reduce_form_mod(f, full_mod) for f in system.forms]
        rng = Random((seed << 20) ^ p)
        for flat_idx in todo:
            exps = {v: (flat_idx // strides[a_i]) % lengths[a_i] + 1
                    for a_i, v in enumerate(plan.axes)}
            point = plan.point_values(exps)
            spec = [_specialize_block_form(f, bs, point, target) for f in reduced]
            res[flat_idx] = _point_resultant(spec, bs, rng)
    return res.reshape(lengths)


def _grid_coeff_dict(system: MacaulaySystem, plan: _GridPlan, fld: PrimeField,
                     seed: int) -> dict[tuple, int]:
    """Coefficients mod p of the resultant by monomial: one Vandermonde solve
    per grid axis (object dtype where int64 products could overflow)."""
    p = fld.p
    out = _grid_values_mod(system, plan, fld, seed)
    dtype = np.int64 if p < _NUMPY_SAFE else object
    lengths = list(out.shape)
    for axis, l in enumerate(lengths):
        vinv = np.array(_inverse_vandermonde_mod(range(1, l + 1), fld), dtype=dtype)
        moved = np.moveaxis(out, axis, 0).reshape(l, -1)
        solved = _chunked_matmul_mod(vinv, moved, p)
        rest = lengths[:axis] + lengths[axis + 1:]
        out = np.moveaxis(solved.reshape([l] + rest), 0, axis)
    coeffs = {}
    for idx in np.argwhere(out != 0):
        mono = plan.monomial_for(tuple(int(x) for x in idx))
        if mono is None:
            raise DegeneracyError("interpolation-inconsistent",
                                  "grid coefficient outside the homogeneity range")
        coeffs[mono] = int(out[tuple(idx)])
    return coeffs


def _verify_candidate(candidate: Polynomial, system: MacaulaySystem,
                      plan: _GridPlan, fld: PrimeField, seed: int) -> bool:
    ring = system.ring
    bs = system.block_size
    p = fld.p
    rng = Random((seed << 21) ^ p)
    target = Ring(bs, fld)
    full_mod = Ring(ring.nvars, fld)
    reduced = [_reduce_form_mod(f, full_mod) for f in system.forms]
    cand_red = _reduce_form_mod(candidate, full_mod)
    for _ in range(2):
        point = [rng.randrange(p) for _ in plan.params]
        spec = [_specialize_block_form(f, bs, point, target) for f in reduced]
        direct = _point_resultant(spec, bs, rng)
        full_point = [0] * bs + point
        claimed = cand_red.evaluate(full_point)
        if direct != claimed:
            return False
    return True


def _interpolated_resultant(forms: Sequence[Polynomial], block_size: int,
                            blocks, seed: int) -> Polynomial:
    ring = forms[0].ring
    fld = ring.field
    system = MacaulaySystem(forms, block_size)
    plan = _GridPlan(system, blocks)

    if isinstance(fld, PrimeField):
        if plan.max_axis_length() > fld.p:
            raise DegeneracyError("interpolation-underdetermined",
                                  "field too small for the required grid")
        result = Polynomial(ring, _grid_coeff_dict(system, plan, fld, seed))
        if not _verify_candidate(result, system, plan, fld, seed):
            raise DegeneracyError("interpolation-inconsistent",
                                  "modular image failed the verification probe")
        return result

    residue_maps: dict[int, dict[tuple, int]] = {}
    previous = None
    prime_iter = internal_primes()
    for p in prime_iter:
        if len(residue_maps) >= _MAX_PRIMES:
            raise DegeneracyError("interpolation-unstable",
                                  "rational reconstruction did not stabilize")
        try:
            residue_maps[p] = _grid_coeff_dict(system, plan, GF(p), seed)
        except _BadPrime:
            continue
        monomials = set()
        for rm in residue_maps.values():
            monomials.update(rm)
        recon = {}
        failed = False
        for m in monomials:
            pairs = [(rm.get(m, 0), q) for q, rm in residue_maps.items()]
            v, modulus = crt_combine(pairs)
            f = rational_reconstruct(v % modulus, modulus)
            if f is None:
                failed = True
                break
            recon[m] = f
        if failed:
            previous = None
            continue
        if previous is not None and recon == previous:
            candidate = Polynomial(ring, {m: c for m, c in recon.items() if c != 0})
            verified = False
            for q in internal_primes():
                if q in residue_maps:
                    continue
                try:
                    verified = _verify_candidate(candidate, system, plan, GF(q), seed)
                except _BadPrime:
                    continue
                break
            if verified:
                return candidate
            previous = None
            continue
        previous = recon
    raise DegeneracyError("interpolation-unstable", "prime supply exhausted")


# -- public entry points -------------------------------------------------------------

def macaulay_resultant(forms: Sequence[Polynomial], block_size: Optional[int] = None,
                       *, strategy: str = "auto", seed: int = 0,
                       blocks: Optional[Sequence[Sequence[int]]] = None) -> Polynomial:
    """Resultant of n+1 block-homogeneous forms, eliminating the leading block.

    Numeric systems go through the determinant ratio with a seeded
    coordinate-change ladder.  Parametric systems use fraction-free symbolic
    elimination ("ratio") or modular interpolation ("modular"); "auto" picks
    by matrix size and field.  Returns a polynomial of the ambient ring with
    zero block degrees (a constant when the input is numeric).
    """
    if strategy not in ("auto", "ratio", "modular"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if not forms:
        raise InvalidInputError("no forms given")
    ring = forms[0].ring
    bs = ring.nvars if block_size is None else block_size
    if any(f.is_zero() for f in forms):
        return ring.zero()
    system_probe = MacaulaySystem(forms, bs)  # validates shapes and degrees
    numeric = all(
        all(e == 0 for m in f.terms for e in m[bs:]) for f in forms)
    rng = Random(seed)
    if numeric:
        return ring.const(_numeric_resultant(forms, bs, rng))

    fld = ring.field
    modular_possible = isinstance(fld, RationalField) or (
        isinstance(fld, PrimeField)
        and _GridPlan(system_probe, blocks).max_axis_length() <= fld.p)
    if strategy == "modular":
        if not modular_possible:
            raise DegeneracyError("interpolation-underdetermined",
                                  "field too small for the required grid")
        return _interpolated_resultant(forms, bs, blocks, seed)
    if strategy == "ratio":
        return _ratio_resultant(forms, bs, rng)
    if system_probe.size <= 14 or not modular_possible:
        try:
            return _ratio_resultant(forms, bs, rng)
        except DegeneracyError:
            if not modular_possible:
                raise
            return _interpolated_resultant(forms, bs, blocks, seed)
    return _interpolated_resultant(forms, bs, blocks, seed)


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
