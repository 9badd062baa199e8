"""The int64 numpy batch of the resultant layer, for primes below 2^28.

`resultant` imports this module only on the branches that run it: a batch
of more than `_LOCKSTEP_POINTS` points (`_batched_values_mod`) and a
Vandermonde solve (`_vandermonde_solve`), each over a prime below
`_NUMPY_SAFE`.  Every other route, and importing `projdyn`, leaves numpy
unloaded.  Below 2^28 a product of two residues stays under 2^56, so
int64 arithmetic is exact; above it the callers stay on Python ints.  The
system is compiled once and the prime is passed in: its program's ints,
which over QQ are the integral copy's unreduced coefficients, are reduced
mod p here, before they enter int64.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneracyError
from .resultant import _inverses_mod

_CHUNK_POINTS = 4096  # grid points per batched numpy pass


def _batched_ratio_mod(a: np.ndarray, schedule, minor_size: int, p: int):
    """det M / det M' mod p for a (k, k, n) batch of matrices in the
    system's layout order, by one unpivoted elimination along the schedule
    (the batch is overwritten).  Each step gathers its block once, reduces
    it in place and scatters it back: one product and one gathered copy of
    the block per step, and no other temporary of its size.

    Returns (ratios, ok); entries with ok=False hit a zero pivot and must be
    recomputed by the point evaluator.
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
            rows = a[block]
            np.subtract(rows, factors[:, None, :] * a[i, right][None, :, :], out=rows)
            np.remainder(rows, p, out=rows)
            a[block] = rows
    return ratio, ok


def _batched_values_mod(system, plan, points, p: int):
    """int64 batch pass over the points: resultant values mod p, plus the
    indices of the points where unpivoted elimination hit a zero pivot."""
    full = np.array([plan.point_values(pt) for pt in points],
                    dtype=np.int64).reshape(len(points), len(plan.params))
    k = system.size
    varying, base, cells = system.program
    base = np.array([[x % p for x in row] for row in base], dtype=np.int64)
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
                t = np.full(count, c % p, dtype=np.int64)
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


def _vandermonde_solve(z: list[int], rhs, p: int, transposed: bool) -> list:
    """`resultant._vandermonde_solve` on int64 arrays, for nodes `z`
    already reduced mod p: the master polynomial and the quotient table by
    vector steps, the product by `_matmul_mod`."""
    t = len(z)
    z = np.array(z, dtype=np.int64)
    master = np.array([1] + [0] * t, dtype=np.int64)  # M, constant term first
    for m, v in enumerate(z):
        master[1:m + 2] = (master[:m + 1] - v * master[1:m + 2]) % p
        master[0] = -v * master[0] % p
    table = np.zeros((t, t), dtype=np.int64)  # row s: M / (z - nodes[s])
    acc = np.ones(t, dtype=np.int64)
    for i in range(t - 1, -1, -1):
        table[:, i] = acc
        acc = (master[i] + z * acc) % p
    deriv = np.zeros(t, dtype=np.int64)  # M'(v) = (M / (z - v))(v)
    for i in range(t - 1, -1, -1):
        deriv = (deriv * z + table[:, i]) % p
    if np.count_nonzero(deriv) < t:
        raise DegeneracyError("interpolation-singular", "repeated interpolation node")
    scale = np.array([pow(int(d), -1, p) for d in deriv], dtype=np.int64)[:, None]
    values = np.array(rhs, dtype=np.int64)
    flat = values.reshape(t, -1) % p
    if transposed:
        solved = scale * _matmul_mod(table, flat, p) % p
    else:
        solved = _matmul_mod(table.T, scale * flat % p, p)
    return solved.reshape(values.shape).tolist()


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a . b mod p on int64 operands (p < 2^28, products below 2^56),
    summed 64 inner terms at a time, so no sum reaches 2^63.  The matmul
    ufunc, not np.dot: its first call does not grow the process by
    128 KiB."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(0, a.shape[1], 64):
        out = (out + a[:, j:j + 64] @ b[j:j + 64]) % p
    return out
