"""Resultant layer: Sylvester, Macaulay, strategies, degeneracy handling."""
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import projdyn
from projdyn import _batch64, resultant
from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ, internal_primes
from projdyn.dynamics import (Endomorphism, endomorphism_from_strings,
                               improper_certificate, pushforward_iterated)
from projdyn.errors import DegeneracyError, InvalidInputError
from projdyn.mpoly import (Polynomial, Ring, determinant, monomials_of_degree,
                           parse_polynomial, poly_gcd, squarefree_part)
from projdyn.resultant import (_NUMPY_SAFE, MacaulaySystem, _elimination_schedule,
                               _field_ratio, _garner_step, _height_bound_squared,
                               _probe_count, _vandermonde_solve,
                               discriminant_binary, gradient_resultant,
                               macaulay_critical_degree, macaulay_resultant,
                               map_resultant, resultant_degrees,
                               sylvester_matrix, sylvester_resultant)

from conftest import count_calls
from extfield import SmallExtField, evaluate_poly, projective_points

RNG_SEED = 20260816


def P(text, ring, aliases=None):
    return parse_polynomial(text, ring, aliases)


def random_form(ring, block, degree, rng, density=0.8):
    """Random form homogeneous in `block`, numeric coefficients."""
    from projdyn.mpoly import monomials_of_degree
    fld = ring.field
    terms = {}
    for mb in monomials_of_degree(len(block), degree):
        if rng.random() > density:
            continue
        c = fld.coerce(rng.randint(-9, 9)) if fld == QQ else fld.random(rng)
        if not fld.is_zero(c):
            m = [0] * ring.nvars
            for v, e in zip(block, mb):
                m[v] = e
            terms[tuple(m)] = c
    p = Polynomial(ring, terms)
    return p if not p.is_zero() else random_form(ring, block, degree, rng, density)


# -- sylvester ---------------------------------------------------------------------

def test_sylvester_linear_forms_symbolic():
    # Res(a x0 + b x1, c x0 + d x1) = ad - bc with symbolic a..d
    ring = Ring(6, QQ)
    al = {"a": 2, "b": 3, "c": 4, "d": 5}
    p = P("a*x0+b*x1", ring, al)
    q = P("c*x0+d*x1", ring, al)
    assert sylvester_resultant(p, q) == P("a*d-b*c", ring, al)


def test_sylvester_numeric_known_value():
    ring = Ring(2, QQ)
    p = P("x0-2*x1", ring)
    q = P("x0^2+x1^2", ring)
    # root (2:1) of p, lc(p)=1: resultant = q(2,1) = 5
    assert sylvester_resultant(p, q) == ring.const(5)


def test_sylvester_matrix_shape_and_formal_degrees():
    ring = Ring(2, QQ)
    p = P("x0^2+x1^2", ring)
    q = P("x0^3-x1^3", ring)
    rows = sylvester_matrix(p, q)
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    # formal degrees let a zero form through (resultant 0)
    z = ring.zero()
    assert sylvester_resultant(z, q, degrees=(2, 3)).is_zero()


def test_sylvester_mixed_degree_rejected():
    ring = Ring(2, QQ)
    with pytest.raises(InvalidInputError):
        sylvester_resultant(P("x0^2+x1", ring), P("x0-x1", ring))


# -- macaulay layout ---------------------------------------------------------------

def test_resultant_degrees_product_rule():
    assert resultant_degrees([1, 2, 4]) == [8, 4, 2]
    assert resultant_degrees([3]) == [1]
    assert macaulay_critical_degree([2, 2, 2]) == 4
    assert macaulay_critical_degree([1, 4, 4]) == 7


def test_macaulay_layout_sizes():
    rng = Random(RNG_SEED)
    ring = Ring(3, QQ)
    block = (0, 1, 2)
    sys1 = MacaulaySystem([random_form(ring, block, 2, rng) for _ in range(3)])
    assert (sys1.critical_degree, sys1.size, sys1.minor_size) == (4, 15, 3)
    forms = [random_form(ring, block, d, rng) for d in (1, 4, 4)]
    sys2 = MacaulaySystem(forms)
    assert (sys2.critical_degree, sys2.size, sys2.minor_size) == (7, 36, 12)
    sys3 = MacaulaySystem([random_form(ring, block, d, rng) for d in (1, 2, 4)])
    assert (sys3.critical_degree, sys3.size) == (5, 21)


def pure_power(system, i):
    """Block exponent of x_i^{d_i}."""
    return tuple(system.degrees[i] if j == i else 0 for j in range(system.block_size))


def has_pure_powers(system):
    """Whether every form F_i has a nonzero x_i^{d_i} term."""
    return all(pure_power(system, i) in tab for i, tab in enumerate(system.coeff_tables))


def graded_lex_columns(system):
    """The layout's monomials in graded-lex order, the reduced minor's first."""
    monomials = monomials_of_degree(system.block_size, system.critical_degree)
    in_minor = [sum(mu[i] >= d for i, d in enumerate(system.degrees)) >= 2
                for mu in monomials]
    return ([mu for mu, m in zip(monomials, in_minor) if m]
            + [mu for mu, m in zip(monomials, in_minor) if not m])


def schedule_ops(schedule):
    """Multiply-subtract operations per point of one elimination along it."""
    return sum(len(below) * len(right) for below, right in schedule)


def graded_lex_cells(system):
    """The cells of the same matrix in graded-lex order."""
    position = {mu: j for j, mu in enumerate(graded_lex_columns(system))}
    moved = [position[mu] for mu in system.columns]
    return [(moved[r], moved[c], i, mb) for r, c, i, mb in system.cells]


def graded_lex_schedule(system):
    """The elimination schedule of the same matrix in graded-lex order."""
    return resultant._elimination_schedule(system.size, graded_lex_cells(system))


def with_pure_powers(forms, block_size):
    """The forms with x_i^{d_i} added to F_i wherever it is missing."""
    out = []
    for i, f in enumerate(forms):
        ring = f.ring
        d = f.homogeneous_degree_in_block(tuple(range(block_size)))
        pure = tuple(d if j == i else 0 for j in range(ring.nvars))
        out.append(f if pure in f.terms
                   else f + Polynomial(ring, {pure: ring.field.one()}))
    return out


def test_layout_orders_each_group_by_static_markowitz_count():
    # with every pure power present, each group (the reduced minor's
    # monomials, then the rest) is sorted by (entries in the row - 1) *
    # (entries in the column - 1) of the initial pattern, ties in graded-lex
    # order; without, the layout stays in graded-lex order.  Either way it
    # is a permutation within each group, the same for rows and columns.
    rng = Random(RNG_SEED)
    ring = Ring(3, GF(10007))
    block = (0, 1, 2)
    # systems, and those moved out of graded-lex order, by whether every
    # pure power is present
    systems, reordered = Counter(), Counter()
    for degrees in ELIMINATION_SHAPES:
        for density in (0.3, 0.7, 1.0):
            for _ in range(4):
                forms = [random_form(ring, block, d, rng, density) for d in degrees]
                if rng.random() < 0.5:
                    forms = with_pure_powers(forms, 3)
                system = MacaulaySystem(forms)
                km = system.minor_size
                graded = graded_lex_columns(system)
                assert sorted(system.columns[:km]) == sorted(graded[:km])
                assert sorted(system.columns[km:]) == sorted(graded[km:])
                pure = has_pure_powers(system)
                systems[pure] += 1
                reordered[pure] += system.columns != graded
                if not pure:
                    continue
                in_row = Counter(r for r, _, _, _ in system.cells)
                in_column = Counter(c for _, c, _, _ in system.cells)
                position = {mu: j for j, mu in enumerate(graded)}
                keys = [((in_row[j] - 1) * (in_column[j] - 1), position[mu])
                        for j, mu in enumerate(system.columns)]
                assert keys[:km] == sorted(keys[:km])
                assert keys[km:] == sorted(keys[km:])
                # rows and columns share the order: row j, the shifted copy
                # of F_i, has its pure-power entry on the diagonal
                cells = set(system.cells)
                for j, mu in enumerate(system.columns):
                    i = next(i for i, d in enumerate(system.degrees) if mu[i] >= d)
                    assert (j, j, i, pure_power(system, i)) in cells
    assert systems == {True: 42, False: 6}
    assert reordered == {True: 42, False: 0}


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["QQ", "GF7", "GF62bit"])
def test_systems_with_every_pure_power_always_get_a_schedule(fld):
    rng = Random(RNG_SEED)
    ring = Ring(3, fld)
    for degrees in ELIMINATION_SHAPES:
        for density in (0.1, 0.3, 0.6):
            for _ in range(4):
                forms = with_pure_powers(
                    [random_form(ring, (0, 1, 2), d, rng, density) for d in degrees], 3)
                assert MacaulaySystem(forms).schedule is not None
    for block_size, degrees, nvars in SPARSE_SHAPES:
        for _ in range(4):
            forms = with_pure_powers(
                sparse_parametric_forms(Ring(nvars, fld), block_size, degrees, rng),
                block_size)
            assert MacaulaySystem(forms, block_size).schedule is not None


def test_sweep_systems_pin_their_scheduled_operations(monkeypatch):
    # a certificate of the sweep workload (a plane under squaring over the
    # 62-bit prime): the two graph systems of the pushforward steps, of
    # orders 10 and 15, and the order-21 certificate system.  Per point,
    # multiply-subtract operations of the Markowitz order against the
    # graded-lex one.
    builds = count_calls(monkeypatch, MacaulaySystem, "__init__")
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    ops = {(system.size, schedule_ops(system.schedule),
            schedule_ops(graded_lex_schedule(system))) for system, *_ in builds}
    assert ops == {(10, 15, 31), (15, 78, 219), (21, 112, 113)}


def set_schedule(size, cells):
    """The elimination schedule built on Python sets, one per row: the
    reference for the bitset build."""
    pattern = [set() for _ in range(size)]
    for r, c, _, _ in cells:
        pattern[r].add(c)
    schedule = []
    for i in range(size):
        if i not in pattern[i]:
            return None
        below = [r for r in range(i + 1, size) if i in pattern[r]]
        right = sorted(c for c in pattern[i] if c > i)
        for r in below:
            pattern[r].update(right)
        schedule.append((below, right))
    return schedule


def test_bitset_schedule_matches_set_reference():
    # Macaulay layouts of every ELIMINATION_SHAPES entry (Markowitz and
    # graded-lex order, with and without pure powers), sparse parametric
    # systems, and seeded random sparse patterns of orders 1-40
    rng = Random(RNG_SEED)
    unscheduled = Counter()
    ring = Ring(3, GF(10007))
    for degrees in ELIMINATION_SHAPES:
        for density in (0.2, 0.5, 0.8, 1.0):
            for _ in range(3):
                forms = [random_form(ring, (0, 1, 2), d, rng, density) for d in degrees]
                if rng.random() < 0.5:
                    forms = with_pure_powers(forms, 3)
                system = MacaulaySystem(forms)
                assert system.schedule == set_schedule(system.size, system.cells)
                assert graded_lex_schedule(system) == set_schedule(
                    system.size, graded_lex_cells(system))
                unscheduled["macaulay"] += system.schedule is None
    for block_size, degrees, nvars in SPARSE_SHAPES:
        for _ in range(6):
            system = MacaulaySystem(
                sparse_parametric_forms(Ring(nvars, QQ), block_size, degrees, rng), block_size)
            assert system.schedule == set_schedule(system.size, system.cells)
            unscheduled["sparse"] += system.schedule is None
    for _ in range(300):
        size = rng.randint(1, 40)
        density = rng.choice((0.05, 0.15, 0.4))
        cells = [(r, c, 0, ()) for r in range(size) for c in range(size)
                 if (r == c and rng.random() < 0.97) or rng.random() < density]
        rng.shuffle(cells)
        assert resultant._elimination_schedule(size, cells) == set_schedule(size, cells)
        unscheduled["random"] += set_schedule(size, cells) is None
    assert unscheduled == {"macaulay": 12, "sparse": 10, "random": 76}


def test_macaulay_pure_power_normalization():
    ring = Ring(3, QQ)
    forms = [P("x0^2", ring), P("x1^3", ring), P("x2^5", ring)]
    assert macaulay_resultant(forms) == ring.one()


def test_macaulay_linear_system_is_determinant():
    rng = Random(RNG_SEED)
    ring = Ring(3, QQ)
    for _ in range(5):
        a = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        forms = []
        for i in range(3):
            f = ring.zero()
            for j in range(3):
                f = f + ring.var(j).scale(a[i][j])
            forms.append(f)
        if any(f.is_zero() for f in forms):
            continue
        det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
               - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
               + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert macaulay_resultant(forms) == ring.const(det)


def test_macaulay_zero_form_shortcut():
    ring = Ring(3, QQ)
    forms = [P("x0^2", ring), ring.zero(), P("x2^2", ring)]
    assert macaulay_resultant(forms).is_zero()


def test_macaulay_matches_sylvester_for_pairs():
    rng = Random(RNG_SEED)
    for fld in (QQ, GF(101)):
        ring = Ring(2, fld)
        for _ in range(8):
            p = random_form(ring, (0, 1), rng.randint(1, 3), rng)
            q = random_form(ring, (0, 1), rng.randint(1, 3), rng)
            assert macaulay_resultant([p, q]) == sylvester_resultant(p, q)


def test_macaulay_multihomogeneity():
    rng = Random(RNG_SEED)
    for fld in (QQ, GF(101)):
        ring = Ring(3, fld)
        degrees = (1, 2, 2)
        forms = [random_form(ring, (0, 1, 2), d, rng) for d in degrees]
        base = macaulay_resultant(forms)
        e = resultant_degrees(list(degrees))
        lam = fld.coerce(3)
        for i in range(3):
            scaled = list(forms)
            scaled[i] = scaled[i].scale(lam)
            assert macaulay_resultant(scaled) == base.scale(fld.pw(lam, e[i]))


def test_macaulay_coordinate_change_covariance():
    rng = Random(RNG_SEED)
    ring = Ring(3, QQ)
    degrees = (2, 2, 1)
    forms = [random_form(ring, (0, 1, 2), d, rng) for d in degrees]
    base = macaulay_resultant(forms).constant_value()
    a = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(0), Fraction(1)]]
    det_a = Fraction(3)  # det of the matrix above
    images = []
    for j in range(3):
        img = ring.zero()
        for k in range(3):
            img = img + ring.var(k).scale(a[j][k])
        images.append(img)
    moved = [f.substitute(images) for f in forms]
    lhs = macaulay_resultant(moved).constant_value()
    assert lhs == det_a ** (2 * 2 * 1) * base


def test_macaulay_common_zero_means_zero():
    ring = Ring(3, QQ)
    # all three vanish at (1:0:0)
    forms = [P("x0*x1", ring), P("x1*x2", ring), P("x0*x2", ring)]
    assert map_resultant(forms).is_zero()
    # morphism forms: nonzero
    forms = [P("x0^2", ring), P("x1^2", ring), P("x2^2", ring)]
    assert not map_resultant(forms).is_zero()


def test_macaulay_numeric_big_prime_field():
    fld = GF(DEFAULT_MODULAR_PRIME)
    ring = Ring(2, fld)
    p = parse_polynomial("x0^2+x1^2", ring)
    q = parse_polynomial("x0-2*x1", ring)
    assert macaulay_resultant([q, p]) == ring.const(fld.coerce(5))


# -- parametric strategies ----------------------------------------------------------

def test_parametric_ratio_known_value():
    # Res_x(x0 - t x1, x0^2 + x1^2) = t^2 + 1 with t = x2
    ring = Ring(3, QQ)
    p = P("x0-x2*x1", ring, {"t": 2})
    q = P("x0^2+x1^2", ring)
    res = macaulay_resultant([p, q], block_size=2, strategy="ratio")
    assert res == P("x2^2+1", ring)


QUADRATIC_BLOCKS = [[2, 3, 4], [5, 6, 7]]


def quadratic_pair(ring):
    """Two generic binary quadratics in x0, x1 with coefficients x2..x7, and
    the classical closed form of their resultant."""
    al = {"a": 2, "b": 3, "c": 4, "u": 5, "v": 6, "w": 7}
    f0 = P("a*x0^2+b*x0*x1+c*x1^2", ring, al)
    f1 = P("u*x0^2+v*x0*x1+w*x1^2", ring, al)
    # (aw - cu)^2 - (av - bu)(bw - cv)
    closed = ((P("a*w", ring, al) - P("c*u", ring, al)) ** 2
              - (P("a*v", ring, al) - P("b*u", ring, al))
              * (P("b*w", ring, al) - P("c*v", ring, al)))
    return f0, f1, closed


def test_parametric_modular_matches_ratio():
    f0, f1, closed = quadratic_pair(Ring(8, QQ))
    ratio = macaulay_resultant([f0, f1], block_size=2, strategy="ratio")
    modular = macaulay_resultant([f0, f1], block_size=2, strategy="modular",
                                 blocks=QUADRATIC_BLOCKS)
    assert ratio == modular
    assert ratio == closed


@pytest.mark.parametrize("p", [10007, DEFAULT_MODULAR_PRIME])
def test_parametric_modular_on_both_sides_of_numpy_bound(p):
    # 10007 takes the batched int64 grid, the 62-bit prime the per-point one
    assert (p < _NUMPY_SAFE) == (p == 10007)
    f0, f1, closed = quadratic_pair(Ring(8, GF(p)))
    modular = macaulay_resultant([f0, f1], block_size=2, strategy="modular",
                                 blocks=QUADRATIC_BLOCKS)
    assert modular == closed


def test_modular_route_with_a_form_divisible_by_the_first_internal_prime():
    # the form vanishes mod the first prime: its image there is zero, which
    # is correct, not a bad prime
    p0 = next(internal_primes())
    assert p0 == 268435399
    f0, f1, closed = quadratic_pair(Ring(8, QQ))
    scaled = [f0.scale(p0), f1]
    modular = macaulay_resultant(scaled, block_size=2, strategy="modular",
                                 blocks=QUADRATIC_BLOCKS)
    assert modular == closed.scale(p0 ** 2)
    assert modular == macaulay_resultant(scaled, block_size=2, strategy="ratio")


def test_one_macaulay_system_per_call(monkeypatch):
    builds = count_calls(monkeypatch, MacaulaySystem, "__init__")
    ring = Ring(3, QQ)
    numeric = [P("x0^2+x1*x2", ring), P("x1^2-x0*x2", ring), P("x2^2+3*x0*x1", ring)]
    assert not macaulay_resultant(numeric).is_zero()
    assert len(builds) == 1
    builds.clear()
    forms = [P("x0-x2*x1", ring), P("x0^2+x1^2", ring)]
    assert macaulay_resultant(forms, block_size=2, strategy="ratio") == P("x2^2+1", ring)
    assert len(builds) == 1

    # over QQ: one system, then one reduced copy for each prime: the
    # image's prime, where the sparse image is probed, then a fresh prime
    # that probes the CRT candidate
    builds.clear()
    copies = count_calls(monkeypatch, MacaulaySystem, "_reduced")
    images = count_calls(monkeypatch, resultant, "_image_coeffs")
    probes = count_calls(monkeypatch, resultant, "_verify_candidate")
    f0, f1, closed = quadratic_pair(Ring(8, QQ))
    assert macaulay_resultant([f0, f1], block_size=2, strategy="modular",
                              blocks=QUADRATIC_BLOCKS) == closed
    p1, p2 = itertools.islice(internal_primes(), 2)
    assert len(builds) == 1
    assert [system.ring.field.p for system, *_ in images] == [p1]
    assert [system.ring.field.p for _, system, *_ in probes] == [p1, p2]
    assert probes[1][0].ring.field == QQ  # the rational candidate
    assert [fld.p for _, fld in copies] == [p1, p2]

    # a parameter-free certificate over F_p: one system per resultant, one
    # elimination per pushforward step
    builds.clear()
    copies.clear()
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    assert len(builds) == 3
    assert not copies


def sparse_parametric_forms(ring, block_size, degrees, rng):
    """Block forms whose coefficients are sparse random polynomials in the
    parameters: one or two terms of degree at most two."""
    fld = ring.field
    pad = (0,) * (ring.nvars - block_size)
    forms = []
    for d in degrees:
        f = ring.zero()
        for mb in monomials_of_degree(block_size, d):
            if rng.random() < 0.4:
                continue
            for _ in range(rng.randint(1, 2)):
                m = [0] * ring.nvars
                m[:block_size] = mb
                for _ in range(rng.randint(0, 2)):
                    m[rng.randrange(block_size, ring.nvars)] += 1
                f = f + Polynomial(ring, {tuple(m): fld.coerce(rng.randint(1, 9))})
        forms.append(f if not f.is_zero()
                     else Polynomial(ring, {(d,) + (0,) * (block_size - 1) + pad: fld.one()}))
    return forms


SPARSE_SHAPES = ((2, (2, 3), 5), (3, (1, 1, 2), 5), (2, (3, 3), 4))


@pytest.mark.parametrize("fld", [QQ, GF(10007), GF(DEFAULT_MODULAR_PRIME), GF(101)],
                         ids=["QQ", "GF10007", "GF62bit", "GF101"])
def test_sparse_parametric_modular_matches_ratio(fld, monkeypatch):
    sparse = count_calls(monkeypatch, resultant, "_sparse_coeffs")
    batched = count_calls(monkeypatch, _batch64, "_batched_values_mod")
    rng = Random(777)
    unscheduled = 0
    for block_size, degrees, nvars in SPARSE_SHAPES:
        ring = Ring(nvars, fld)
        for _ in range(3):
            forms = sparse_parametric_forms(ring, block_size, degrees, rng)
            unscheduled += MacaulaySystem(forms, block_size).schedule is None
            modular = macaulay_resultant(forms, block_size, strategy="modular")
            assert modular == macaulay_resultant(forms, block_size, strategy="ratio")
    # over GF(101) no number of probes up to four reaches the 2^-32 bound at
    # these degrees, so every image there is the dense grid
    assert (not sparse) == (fld == GF(101))
    # systems with a structurally zero pivot skip the int64 batch, and their
    # values, all from the pivoted determinants, still match "ratio"
    assert unscheduled == 5
    assert all(system.schedule is not None for system, *_ in batched)
    assert bool(batched) == (fld != GF(DEFAULT_MODULAR_PRIME))


def block_int64_batch(monkeypatch):
    """For this test, make importing projdyn._batch64 raise ImportError, so
    a route that reaches the int64 batch fails rather than passes."""
    monkeypatch.delattr(projdyn, "_batch64", raising=False)
    monkeypatch.setitem(sys.modules, "projdyn._batch64", None)


@pytest.mark.parametrize("p", [DEFAULT_MODULAR_PRIME, 2 ** 89 - 1], ids=["GF62bit", "GF89bit"])
def test_python_int_vandermonde_route_matches_ratio(p, monkeypatch):
    # above _NUMPY_SAFE every Vandermonde system of Zippel's stages is solved
    # on Python ints; two parameter axes make stage 1 solve its transposed
    # systems on supports of more than one monomial
    assert p >= _NUMPY_SAFE
    real = resultant._vandermonde_solve
    solves = []  # (t, transposed) per call

    def recorded(nodes, rhs, q, transposed=False):
        solves.append((len(nodes), transposed))
        return real(nodes, rhs, q, transposed)

    monkeypatch.setattr(resultant, "_vandermonde_solve", recorded)
    block_int64_batch(monkeypatch)  # no numpy array on this route
    rng = Random(RNG_SEED)
    ring = Ring(4, GF(p))
    for degrees in ((2, 2), (2, 3), (1, 3)):
        # every coefficient affine in the parameters x2, x3
        forms = [Polynomial(ring, {mb + par: ring.field.coerce(rng.randint(1, 9))
                                   for mb in monomials_of_degree(2, d)
                                   for par in ((0, 0), (1, 0), (0, 1))
                                   if rng.random() < 0.6})
                 for d in degrees]
        modular = macaulay_resultant(forms, 2, strategy="modular")
        assert modular == macaulay_resultant(forms, 2, strategy="ratio")
        assert all(modular.degree_in(v) > 1 for v in (2, 3))
    assert max(t for t, transposed in solves if transposed) > 1
    # per system: stage 0 takes its values as they are and solves once
    # along its axis; stage 1 solves once on the support, once along its axis
    assert len(solves) == 9


# one interpreter, one step after another: which steps have loaded numpy
NUMPY_PROBE = """
import io, json, sys
steps = {}
import projdyn
steps["import projdyn"] = "numpy" in sys.modules
from projdyn import cli
from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ
from projdyn.dynamics import (endomorphism_from_strings, has_periodic_critical_point,
                              improper_certificate)
from projdyn.mpoly import Ring, parse_polynomial
from projdyn.resultant import macaulay_resultant
ring = Ring(3, QQ)
macaulay_resultant([parse_polynomial(t, ring)
                    for t in ("x0^2-3*x1*x2", "x1^2+2*x0*x2", "x0+x1-5*x2")])
steps["numeric QQ resultant"] = "numpy" in sys.modules
f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
steps["62-bit certificate"] = "numpy" in sys.modules
has_periodic_critical_point(endomorphism_from_strings(["x^2+y^2", "x*y"], QQ), 4)
steps["P^1 periodic critical point"] = "numpy" in sys.modules
assert cli.run(["resultant", "--form", "x0", "--form", "x1"], out=io.StringIO()) == 0
steps["CLI resultant"] = "numpy" in sys.modules
ring = Ring(4, GF(10007))
macaulay_resultant([parse_polynomial(t, ring)
                    for t in ("x0^2+x2*x0*x1+x3*x1^2", "x3*x0^2+2*x0*x1+x2*x1^2")],
                   2, strategy="modular")
steps["GF(10007) modular"] = "numpy" in sys.modules
print(json.dumps(steps))
"""


def test_numpy_loads_only_with_the_int64_batch():
    # the 62-bit, numeric, P^1 and CLI routes never reach the int64 batch,
    # so they leave numpy unimported; a parametric image below 2^28 loads it
    src = str(Path(projdyn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout) == {
        "import projdyn": False, "numeric QQ resultant": False,
        "62-bit certificate": False, "P^1 periodic critical point": False,
        "CLI resultant": False, "GF(10007) modular": True}


def outcome(call):
    """The value of call(), or the type of the DegeneracyError it raised."""
    try:
        return call()
    except DegeneracyError as exc:
        return type(exc)


@pytest.mark.parametrize("fld", [GF(10007), GF(DEFAULT_MODULAR_PRIME), QQ, GF(3), GF(5)],
                         ids=["GF10007", "GF62bit", "QQ", "GF3", "GF5"])
def test_auto_interpolates_wherever_the_prime_field_holds_the_grid(fld, monkeypatch):
    # "auto" over F_p interpolates every parametric system whose grid fits
    # in the field, small orders included; the ratio route serves QQ at
    # order <= 14 and fields too small for the grid
    ratio_calls = count_calls(monkeypatch, resultant, "_ratio_resultant")
    rng = Random(RNG_SEED)
    routed = {True: 0, False: 0}  # systems by whether auto took the ratio route
    for block_size, degrees, nvars in SPARSE_SHAPES:
        ring = Ring(nvars, fld)
        for _ in range(4):
            forms = sparse_parametric_forms(ring, block_size, degrees, rng)
            system = MacaulaySystem(forms, block_size)
            assert system.size <= 14
            if all(not any(m[block_size:]) for f in forms for m in f.terms):
                continue  # numeric after reduction: no route to choose
            fits = (fld != QQ
                    and resultant._GridPlan(system, None).max_axis_length() <= fld.p)
            ratio_calls.clear()
            auto = outcome(lambda: macaulay_resultant(forms, block_size))
            assert bool(ratio_calls) == (not fits)
            routed[not fits] += 1
            assert auto == outcome(
                lambda: macaulay_resultant(forms, block_size, strategy="ratio"))
    expected = {GF(3): {True: 8, False: 3}, GF(5): {True: 9, False: 3},
                QQ: {True: 12, False: 0}}
    assert routed == expected.get(fld, {True: 0, False: 12})


def tall_cubics():
    """Binary cubics with 60-bit coefficients and one parameter."""
    ring = Ring(3, QQ)
    c = [QQ.coerce((3 * 7 ** k + 1) % 2 ** 60 + 2 ** 59) for k in range(9)]
    p = Polynomial(ring, {(3, 0, 0): c[1], (2, 1, 1): c[2], (1, 2, 0): c[3],
                          (0, 3, 0): c[4]})
    q = Polynomial(ring, {(3, 0, 0): c[5], (2, 1, 0): c[6], (1, 2, 1): c[7],
                          (0, 3, 0): c[8]})
    return p, q


def test_auto_resolves_tall_qq_cubics_through_the_ratio_route_first():
    # order 6, so "auto" over QQ tries the ratio route first (order <= 14)
    # and answers from it; the modular route reaches the same value
    # (test_tall_qq_resultants_interpolate_as_integers)
    p, q = tall_cubics()
    assert macaulay_resultant([p, q], 2) == sylvester_resultant(p, q)


def test_tall_qq_resultants_interpolate_as_integers():
    # symmetric CRT needs prod p > 2B for coefficients of size B, so these
    # heights fit in the prime budget: two binary octics with 40-bit
    # coefficients and one parameter (x2 on each one's x0^7*x1 term; order
    # 16, above the ratio-first cutoff), and the cubics
    ring = Ring(3, QQ)
    c = [QQ.coerce((3 * 7 ** k + 1) % 2 ** 40 + 2 ** 39) for k in range(19)]
    octics = [Polynomial(ring, {(8 - j, j, int(j == 1)): v for j, v in enumerate(cs)})
              for cs in (c[1:10], c[10:19])]
    assert MacaulaySystem(octics, 2).size == 16
    expected = sylvester_resultant(*octics)
    assert expected.degree_in(2) == 8
    assert macaulay_resultant(octics, 2) == expected
    assert macaulay_resultant(octics, 2, strategy="ratio") == expected
    cubics = tall_cubics()
    assert (macaulay_resultant(cubics, 2, strategy="modular")
            == macaulay_resultant(cubics, 2, strategy="ratio")
            == sylvester_resultant(*cubics))


def test_qq_forms_with_denominators_interpolate_as_integers(monkeypatch):
    # each form's denominators are cleared once, into an integral copy of
    # the system, and the resultant is divided back: seeded parametric
    # systems with denominators, one of them the first internal prime,
    # which the images skip
    images = count_calls(monkeypatch, resultant, "_image_coeffs")
    p0, p1 = itertools.islice(internal_primes(), 2)
    rng = Random(RNG_SEED)
    nonintegral = 0
    for block_size, degrees, nvars in SPARSE_SHAPES:
        ring = Ring(nvars, QQ)
        for trial in range(3):
            forms = [f.scale(Fraction(1, rng.choice((2, 3, 10, 49))))
                     for f in sparse_parametric_forms(ring, block_size, degrees, rng)]
            if trial == 0:
                # p0 joins the denominator of one coefficient of F_0
                m = next(iter(forms[0].terms))
                forms[0] = (forms[0].scale(rng.choice((2, 3, 10, 49)))
                            + Polynomial(ring, {m: Fraction(rng.randint(1, 9), p0)}))
            images.clear()
            modular = macaulay_resultant(forms, block_size, strategy="modular")
            assert modular == macaulay_resultant(forms, block_size, strategy="ratio")
            denominators = {c.denominator for c in modular.terms.values()}
            nonintegral += max(denominators, default=1) > 1
            if trial == 0:
                assert any(d % p0 == 0 for d in denominators)
                assert images[0][0].ring.field.p == p1
    # the other three resultants are zero
    assert nonintegral == 6


@pytest.mark.parametrize("fld", [GF(DEFAULT_MODULAR_PRIME)], ids=["GF62bit"])
def test_point_matrices_equal_coefficientwise_evaluation(fld):
    # the one matrix the point evaluator builds for a parameter point
    rng = Random(RNG_SEED)
    ring = Ring(5, fld)
    for _ in range(5):
        system = MacaulaySystem(sparse_parametric_forms(ring, 2, (2, 3), rng), 2)
        point = [fld.random(rng) for _ in range(3)]
        assert system._value_matrices([point]) == [system._matrix_of(
            [{mb: c.evaluate([0, 0] + point) for mb, c in tab.items()}
             for tab in system.coeff_tables], 0)]


@pytest.mark.parametrize("fld", [GF(7), GF(10007), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["GF7", "GF10007", "GF62bit"])
def test_compiled_program_matches_coefficientwise_evaluation(fld):
    # the matrices of a batch valued from the compiled program, and those of
    # its points one at a time (as the point evaluator values them), against
    # Polynomial.evaluate coefficient by coefficient (filled by _matrix_of),
    # for systems built over F_p and for reduced copies of systems over QQ
    # (where some coefficients vanish mod 7);
    # F_0 is multiplied by the first parameter, so it vanishes as a whole
    # wherever that parameter is 0
    rng = Random(RNG_SEED)
    systems = points_checked = vanished = 0
    for block_size, degrees, nvars in SPARSE_SHAPES:
        params = nvars - block_size
        pad = [0] * block_size
        for source in (fld, QQ) * 3:
            ring = Ring(nvars, source)
            forms = sparse_parametric_forms(ring, block_size, degrees, rng)
            forms[0] = forms[0] * ring.var(block_size)
            system = MacaulaySystem(forms, block_size)
            if source == QQ:
                system = system._reduced(fld)
            points = [(0,) * params, (0,) + tuple(fld.random(rng) for _ in range(params - 1))]
            points += [tuple(fld.random(rng) if rng.random() < 0.7 else 0
                             for _ in range(params)) for _ in range(8)]
            expected = [[{mb: c.evaluate(pad + list(point)) for mb, c in tab.items()}
                         for tab in system.coeff_tables] for point in points]
            filled = [system._matrix_of(tables, 0) for tables in expected]
            assert system._value_matrices(points) == filled
            assert [system._value_matrices([point])[0] for point in points] == filled
            systems += 1
            points_checked += len(points)
            vanished += sum(not any(tables[0].values()) for tables in expected)
    assert (systems, points_checked) == (18, 180)
    # F_0 vanishes at the first two points of every system, and wherever
    # else the first parameter was drawn 0
    assert vanished > 2 * systems


def record_interpolations(monkeypatch):
    """Per parametric interpolation: matrix size, dense grid size, points
    interpolated and probed, evaluations (points valued by the batched
    kernel, plus calls of the point evaluator), and the primes of the
    images and of the probes."""
    values = count_calls(monkeypatch, resultant, "_values_mod")
    evaluations = count_calls(monkeypatch, resultant, "_point_value")
    kernel = resultant._scheduled_ratios

    def counted_kernel(system, batch):
        ratios = kernel(system, batch)
        evaluations.extend(r for r in ratios if r is not None)
        return ratios

    monkeypatch.setattr(resultant, "_scheduled_ratios", counted_kernel)
    images = count_calls(monkeypatch, resultant, "_image_coeffs")
    probes = []
    probe = resultant._verify_candidate

    def counted_probe(candidate, system, plan, seed):
        before = len(values)
        verdict = probe(candidate, system, plan, seed)
        probes.append((system.ring.field.p, sum(len(v[2]) for v in values[before:])))
        return verdict

    monkeypatch.setattr(resultant, "_verify_candidate", counted_probe)
    runs = []
    real = resultant._interpolated_resultant

    def run(system, plan, seed):
        for log in (values, evaluations, images, probes):
            log.clear()
        out = real(system, plan, seed)
        probed = sum(n for _, n in probes)
        box = math.prod(b + 1 for b in plan.axis_bounds)
        runs.append({"size": system.size, "box": box, "plan": plan,
                     "points": sum(len(v[2]) for v in values) - probed,
                     "probed": probed, "evaluations": len(evaluations),
                     "images": [s.ring.field.p for s, *_ in images],
                     "probes": [q for q, _ in probes]})
        return out

    monkeypatch.setattr(resultant, "_interpolated_resultant", run)
    return runs


def test_direct_second_iterate_interpolates_sparsely(monkeypatch):
    # criterion 02's direct route: the symbolic plane under the second
    # iterate of squaring, one 36x36 system over QQ
    runs = record_interpolations(monkeypatch)
    ring = Ring(6, QQ)
    f = Endomorphism([ring.var(i) ** 2 for i in range(3)])
    pushforward_iterated(f, P("x3*x0+x4*x1+x5*x2", ring), 2, mode="direct")
    p1, p2 = itertools.islice(internal_primes(), 2)
    assert [(r["size"], r["box"]) for r in runs] == [(36, 7225)]
    for r in runs:
        assert r["points"] * 10 <= r["box"]
        # one image prime, where the image is probed, then one probe prime
        assert r["images"] == [p1]
        assert r["probes"] == [p1, p2]


def test_symbolic_certificate_takes_one_image_per_resultant(monkeypatch):
    # criterion 08's certificate of the symbolic plane under squaring: three
    # QQ resultants of orders 10, 15 and 21 (the last is the certificate, of
    # degree 56), each with integer coefficients below half the first prime,
    # so one image each
    runs = record_interpolations(monkeypatch)
    ring = Ring(6, QQ)
    f = Endomorphism([ring.var(i) ** 2 for i in range(3)])
    cert = improper_certificate(f, P("x3*x0+x4*x1+x5*x2", ring), (0, 1, 2),
                                strategy="modular")
    assert cert.degree() == 56
    p1 = next(internal_primes())
    assert [(r["size"], r["images"]) for r in runs] == [(10, [p1]), (15, [p1]), (21, [p1])]


def test_sweep_certificate_evaluates_at_most_its_dense_box(monkeypatch):
    # a parameter-free certificate over the 62-bit prime interpolates its
    # pushforward resultants R = y0^e * N in y on the floored lower set:
    # as many points as N has coefficients, C(deg N + 2, 2), in a box of
    # 9 and of 25
    runs = record_interpolations(monkeypatch)
    solves = count_calls(monkeypatch, resultant, "_vandermonde_solve")
    sparse = count_calls(monkeypatch, resultant, "_sparse_coeffs")
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    assert [r["box"] for r in runs] == [9, 25]
    # Newton interpolation needs no Vandermonde solve, and the floored
    # image passes its probe, so no Zippel stage runs
    assert not solves and not sparse
    assert [(r["points"], r["probed"]) for r in runs] == [(6, 1), (15, 1)]
    for r in runs:
        probes = _probe_count(r["plan"].degree_bound, DEFAULT_MODULAR_PRIME)
        assert probes == 1 and r["probed"] == probes
        assert r["evaluations"] == r["points"] + probes


def test_values_mod_routes_batches_by_size_and_prime(monkeypatch):
    batched = count_calls(monkeypatch, _batch64, "_batched_values_mod")
    evaluated = count_calls(monkeypatch, resultant, "_point_value")
    kernel = resultant._scheduled_ratios
    zero_pivots = []

    def counted_kernel(system, batch):
        ratios = kernel(system, batch)
        zero_pivots.extend(r for r in ratios if r is None)
        return ratios

    monkeypatch.setattr(resultant, "_scheduled_ratios", counted_kernel)

    # over GF(10007) the same seeded points, in batches just below and just
    # above the crossover, run in lockstep and as int64 batches alike
    fld = GF(10007)
    small = resultant._LOCKSTEP_POINTS
    rng = Random(RNG_SEED)
    for block_size, degrees, nvars in SPARSE_SHAPES:
        system = MacaulaySystem(
            sparse_parametric_forms(Ring(nvars, fld), block_size, degrees, rng), block_size)
        assert system.schedule is not None
        plan = resultant._GridPlan(system, None)
        # the origin zeroes every parameter-dependent coefficient
        points = [(0,) * len(plan.axes)] + [tuple(fld.random(rng) for _ in plan.axes)
                                            for _ in range(small * (small + 1) - 1)]

        def in_batches(size):
            return [v for start in range(0, len(points), size)
                    for v in resultant._values_mod(system, plan, points[start:start + size])]

        batched.clear()
        lockstep = in_batches(small)
        assert not batched
        assert lockstep == in_batches(small + 1)
        assert len(batched) == small
    # the origin meets a zero pivot in two of the systems, once per route
    assert len(evaluated) == 4

    # over the 62-bit prime every batch runs in lockstep; the point evaluator
    # serves the certificate's own numeric resultant and zero-pivot points.
    # Each image step's first node is y = (1:1:1), which lies on the image
    # of this plane (it passes through (-1:-1:1)), so R vanishes there and
    # that point meets a zero pivot, once per step
    batched.clear()
    evaluated.clear()
    zero_pivots.clear()
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    assert not batched
    assert len(zero_pivots) == 2
    assert [not any(system.param_degrees) for system, *_ in evaluated] == [False, False, True]


@pytest.mark.parametrize("fld", [QQ, GF(10007)], ids=["QQ", "GF10007"])
def test_anchor_on_a_root_of_a_coefficient_is_caught_and_retried(fld, monkeypatch):
    # Res_x(x0 - t x1, (s - 5) x0^2 + s x1^2) = (s - 5) t^2 + s, t = x2 and
    # s = x3; with s held at 5 the first stage sees a constant and misses t^2
    ring = Ring(4, fld)
    forms = [P("x0-x2*x1", ring), P("x3*x0^2-5*x0^2+x3*x1^2", ring)]
    attempts = []
    real = resultant._sparse_coeffs

    def forced(system, plan, rng, anchors):
        anchors = list(anchors)
        if not attempts:
            anchors[plan.axes.index(3)] = 5
        attempts.append(real(system, plan, rng, anchors))
        return attempts[-1]

    monkeypatch.setattr(resultant, "_sparse_coeffs", forced)
    verdicts = []
    probe = resultant._verify_candidate
    monkeypatch.setattr(resultant, "_verify_candidate",
                        lambda *args: verdicts.append(probe(*args)) or verdicts[-1])
    res = macaulay_resultant(forms, 2, strategy="modular")
    assert res == P("x3*x2^2-5*x2^2+x3", ring)
    assert res == macaulay_resultant(forms, 2, strategy="ratio")
    assert len(attempts) == 2
    assert not any(m[2] for m in attempts[0])
    assert verdicts[0] is False and all(verdicts[1:])


def test_bad_blocks_raise_where_the_grid_is_planned():
    # over F_p the grid is planned for every strategy, over QQ only to
    # interpolate; x0 is a block variable, not a parameter
    def run(fld, strategy):
        ring = Ring(3, fld)
        return macaulay_resultant([P("x0-x2*x1", ring), P("x0^2+x1^2", ring)],
                                  block_size=2, strategy=strategy, blocks=[[0]])

    for fld, strategy in ((QQ, "modular"), (GF(101), "modular"), (GF(101), "ratio")):
        with pytest.raises(InvalidInputError):
            run(fld, strategy)
    assert run(QQ, "ratio") == P("x2^2+1", Ring(3, QQ))


def test_parametric_modular_no_blocks():
    # same system, inhomogeneous parameter use: no homogeneity blocks given
    ring = Ring(3, QQ)
    p = P("x0-x2*x1", ring)
    q = P("x0^2+x1^2", ring)
    res = macaulay_resultant([p, q], block_size=2, strategy="modular")
    assert res == P("x2^2+1", ring)


def test_parametric_specialization_consistency():
    rng = Random(RNG_SEED)
    ring = Ring(4, QQ)
    # one symbolic parameter x3 inside two conics in (x0, x1, x2)? keep n=1:
    f0 = P("x0^2-x3*x1^2", ring)
    f1 = P("x0^3+x3*x0*x1^2+x1^3", ring)
    res = macaulay_resultant([f0, f1], block_size=2)
    for _ in range(5):
        t = Fraction(rng.randint(-20, 20))
        point = [Fraction(0), Fraction(0), Fraction(0), t]
        spec0 = f0.substitute([ring.var(0), ring.var(1), ring.var(2), ring.const(t)])
        spec1 = f1.substitute([ring.var(0), ring.var(1), ring.var(2), ring.const(t)])
        direct = macaulay_resultant([spec0, spec1], block_size=2).constant_value()
        assert res.evaluate(point) == direct


def test_parametric_prime_field_in_field_interpolation():
    fld = GF(101)
    ring = Ring(3, fld)
    p = parse_polynomial("x0-x2*x1", ring)
    q = parse_polynomial("x0^2+x1^2", ring)
    res = macaulay_resultant([p, q], block_size=2, strategy="modular")
    assert res == parse_polynomial("x2^2+1", ring)


def test_parametric_field_too_small_for_grid():
    fld = GF(3)
    ring = Ring(3, fld)
    p = parse_polynomial("x0^3+x2*x1^3", ring)
    q = parse_polynomial("x0^3+2*x0*x1^2+x1^3", ring)
    with pytest.raises(DegeneracyError) as err:
        macaulay_resultant([p, q], block_size=2, strategy="modular")
    assert err.value.code == "interpolation-underdetermined"



# -- closed form: one form against n linear forms -----------------------------------

def common_zero(rows, ring):
    """v with v_i = (-1)^i * det(rows without column i), by Leibniz on the
    polynomial entries: the point where the n linear forms with these
    coefficient rows meet."""
    out = []
    for i in range(len(rows) + 1):
        minor = [row[:i] + row[i + 1:] for row in rows]
        det = ring.zero()
        for perm in itertools.permutations(range(len(minor))):
            term = ring.one()
            for k, j in enumerate(perm):
                term = term * minor[k][j]
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            det = det + term if inversions % 2 == 0 else det - term
        out.append(det if i % 2 == 0 else -det)
    return out


def closed_form_system(fld, n, d, rng, parametric):
    """F0 of degree d and n linear forms in x0..xn; with `parametric`, every
    coefficient is affine in the one parameter x(n+1).  Returns the forms and
    F0 at the common zero of the linear forms."""
    ring = Ring(n + 2 if parametric else n + 1, fld)
    block = range(n + 1)

    def coefficient():
        c = ring.const(fld.coerce(rng.randint(-9, 9)) if fld == QQ else fld.random(rng))
        return c + ring.var(n + 1).scale(rng.randint(-3, 3)) if parametric else c

    rows = [[coefficient() for _ in block] for _ in range(n)]
    linear = [sum((c * ring.var(j) for j, c in enumerate(row)), ring.zero())
              for row in rows]
    f0 = random_form(ring, block, d, rng)
    if parametric:
        f0 = f0 + ring.var(n + 1) * random_form(ring, block, d, rng, density=0.5)
    params = [ring.var(n + 1)] if parametric else []
    return [f0, *linear], f0.substitute(common_zero(rows, ring) + params)


@pytest.mark.parametrize("fld", [QQ, GF(10007)], ids=["QQ", "GF10007"])
def test_resultant_with_linear_forms_is_the_first_form_at_their_common_zero(fld):
    # Res(F0, L1, ..., Ln) = F0(v), v_i = (-1)^i det(L without column i), with
    # this sign, at n = 1, 2, 3 and deg F0 = 1, 2, 3; numeric systems, then
    # one parameter in F0 and the L_i under each strategy
    rng = Random(RNG_SEED + 10)
    nonzero = 0
    for n, d in itertools.product((1, 2, 3), (1, 2, 3)):
        forms, expect = closed_form_system(fld, n, d, rng, parametric=False)
        assert macaulay_resultant(forms) == expect, (n, d)
        nonzero += not expect.is_zero()
    for n, d in itertools.product((1, 2, 3), (1, 2, 3)):
        forms, expect = closed_form_system(fld, n, d, rng, parametric=True)
        assert not expect.is_zero() and expect.degree_in(n + 1) > 0
        for strategy in ("ratio", "modular", "auto"):
            got = macaulay_resultant(forms, block_size=n + 1, strategy=strategy)
            assert got == expect, (n, d, strategy)
    assert nonzero == 9


# -- field linear algebra -----------------------------------------------------------

def leibniz_det(rows, fld):
    k = len(rows)
    total = fld.zero()
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = fld.one() if inversions % 2 == 0 else fld.neg(fld.one())
        for i, j in enumerate(perm):
            term = fld.mul(term, rows[i][j])
        total = fld.add(total, term)
    return total


def mat_mul(a, b, fld):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = fld.zero()
            for k, x in enumerate(row):
                acc = fld.add(acc, fld.mul(x, b[k][j]))
            out[-1].append(acc)
    return out


def identity(k, fld):
    return [[fld.one() if i == j else fld.zero() for j in range(k)] for i in range(k)]


def pivoted_det(rows, fld):
    """Determinant of a matrix of field values by elimination with a pivot
    search in each column: the reference for the scheduled kernels."""
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


def kernel_det(rows, fld):
    """det A by a library kernel: _field_ratio over F_p; over QQ, which that
    kernel does not take, mpoly.determinant on constant entries."""
    if fld != QQ:
        return _field_ratio([list(r) for r in rows], fld.p)
    if not rows:
        return fld.one()
    ring = Ring(1, QQ)
    return determinant([[ring.const(x) for x in r] for r in rows]).constant_value()


def kernel_field(fld):
    """The prime field the F_p kernels run in for values of fld: fld itself,
    or for QQ the first internal prime, where a numeric QQ resultant takes
    its first image."""
    return GF(next(internal_primes())) if fld == QQ else fld


def cofactor_inverse(a, fld):
    """A^(-1) as the adjugate over det A, every determinant by kernel_det;
    None if A is singular."""
    det = kernel_det(a, fld)
    if fld.is_zero(det):
        return None
    k = len(a)
    inv = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = kernel_det([row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i], fld)
            inv[j][i] = fld.div(fld.neg(minor) if (i + j) % 2 else minor, det)
    return inv


@pytest.mark.parametrize("fld", [GF(7), QQ], ids=["GF7", "QQ"])
def test_field_inverse_and_det_against_brute_force(fld):
    rng = Random(RNG_SEED)
    inverted = 0
    for size in (3, 4):
        for _ in range(25):
            a = [[fld.coerce(rng.randint(-3, 3)) for _ in range(size)]
                 for _ in range(size)]
            det = kernel_det(a, fld)
            assert det == leibniz_det(a, fld) == pivoted_det(a, fld)
            inv = cofactor_inverse(a, fld)
            if fld.is_zero(det):
                assert inv is None
            else:
                inverted += 1
                assert mat_mul(a, inv, fld) == identity(size, fld)
        singular = [a[0], a[1], [fld.add(x, y) for x, y in zip(a[0], a[1])]] + a[3:]
        assert fld.is_zero(kernel_det(singular, fld))
        assert cofactor_inverse(singular, fld) is None
    assert kernel_det([], fld) == fld.one()
    assert inverted > 0


def plant_zero_pivot(m, i, fld):
    """Make the pivot of unpivoted elimination at step i zero, by moving
    m[i][i] by the value that pivot would have had."""
    a = [list(r) for r in m[:i + 1]]
    for s in range(i):
        inv = fld.inv(a[s][s])
        for r in range(s + 1, i + 1):
            f = fld.mul(a[r][s], inv)
            for c in range(s + 1, i + 1):
                a[r][c] = fld.sub(a[r][c], fld.mul(f, a[s][c]))
    m[i][i] = fld.sub(m[i][i], a[i][i])


@pytest.mark.parametrize("fld", [GF(10007), GF(DEFAULT_MODULAR_PRIME), QQ],
                         ids=["GF10007", "GF62bit", "QQ"])
def test_field_ratio_continues_past_a_zero_pivot(fld):
    # seeded dense matrices of order 7 with M' the leading 3 x 3 block, a
    # zero pivot planted at step 1 (inside M': a swap there leaves the
    # ratio), at step 3 (the first trailing step: the swap negates it) or at
    # step 2 (M' singular), run along the full schedule and without one
    # (over QQ the kernel runs on the images mod kernel_field(QQ))
    rng = Random(RNG_SEED)
    k, km = 7, 3
    schedule = _elimination_schedule(k, [(r, c, 0, ()) for r in range(k) for c in range(k)])
    fp = kernel_field(fld)
    checked = Counter()
    for _ in range(20):
        base = [[fld.coerce(rng.randint(-99, 99)) if fld == QQ else fld.random(rng)
                 for _ in range(k)] for _ in range(k)]
        for step in (1, 3, 2):
            m = [row[:] for row in base]
            plant_zero_pivot(m, step, fld)
            det_minor = pivoted_det([row[:km] for row in m[:km]], fld)
            assert fld.is_zero(det_minor) == (step == km - 1)
            image = [[fp.coerce(x) for x in row] for row in m]
            for steps in (schedule, None):
                if step == km - 1:
                    with pytest.raises(DegeneracyError) as err:
                        _field_ratio([row[:] for row in image], fp.p, km, steps)
                    assert err.value.code == "macaulay-minor-singular"
                    checked["singular"] += 1
                    continue
                expected = fld.div(pivoted_det(m, fld), det_minor)
                assert _field_ratio([row[:] for row in image], fp.p, km, steps) \
                    == fp.coerce(expected)
                checked[step] += not fld.is_zero(expected)
            # with no minor the kernel gives det M itself
            assert _field_ratio([row[:] for row in image], fp.p, 0, schedule) \
                == fp.coerce(pivoted_det(m, fld))
    assert checked == {1: 40, 3: 40, "singular": 40}


# block degrees of three forms on P^2 -> (order of M, order of M')
ELIMINATION_SHAPES = {(1, 2, 2): (10, 2), (2, 2, 2): (15, 3),
                      (1, 2, 4): (21, 7), (1, 4, 4): (36, 12)}


def pivoted_ratio(system, tables):
    """det M / det M' by the pivoted reference pair; None if M' is singular."""
    fld = system.ring.field
    full = system._matrix_of(tables, fld.zero())
    km = system.minor_size
    det_minor = pivoted_det([row[:km] for row in full[:km]], fld)
    if fld.is_zero(det_minor):
        return None
    return fld.div(pivoted_det(full, fld), det_minor)


def check_value_ratio(system, tables):
    """_field_ratio on the system's matrix of these values (over QQ, of
    their images mod kernel_field(QQ)), along its schedule, against the
    pivoted reference pair."""
    expected = pivoted_ratio(system, tables)
    fp = kernel_field(system.ring.field)

    def ratio():
        images = [{mb: fp.coerce(v) for mb, v in tab.items()} for tab in tables]
        return _field_ratio(system._matrix_of(images, 0), fp.p,
                            system.minor_size, system.schedule)

    if expected is None:
        with pytest.raises(DegeneracyError):
            ratio()
    else:
        assert ratio() == fp.coerce(expected)
    return expected


def value_tables(system):
    """The coefficient tables of a numeric system as field values."""
    return [{mb: c.constant_value() for mb, c in tab.items()} for tab in system.coeff_tables]


def dense_unpivoted_failures(batch, p):
    """Points of a (k, k, n) batch where dense elimination without pivoting,
    every row below and every column right of each pivot, meets a zero."""
    a = batch.copy()
    k, _, n = a.shape
    ok = np.ones(n, dtype=bool)
    for i in range(k):
        piv = a[i, i]
        ok &= piv != 0
        inv = np.array([pow(int(v), -1, p) if v else 0 for v in piv], dtype=np.int64)
        factors = a[i + 1:, i] * inv % p
        a[i + 1:, i:] = (a[i + 1:, i:] - factors[:, None, :] * a[i, i:][None]) % p
    return int((~ok).sum())


def structural_batch(system, p, rng):
    """(k, k, 64) batch of random nonzero values mod p on the system's
    structural pattern."""
    k = system.size
    batch = np.zeros((k, k, 64), dtype=np.int64)
    for r, c, _, _ in system.cells:
        batch[r, c] = [rng.randrange(1, p) for _ in range(64)]
    return batch


# the points of a 64-point batch where the test plants a zero pivot
PLANTED_ZERO_PIVOTS = (0, 31, 63)


# each field with the number of its 24 random systems below whose schedule
# meets a structurally zero pivot, and the number whose layout the
# Markowitz order moved out of graded-lex order
@pytest.mark.parametrize("fld, expect_unscheduled, expect_reordered", [
    pytest.param(GF(7), 19, 3, id="GF7"), pytest.param(GF(10007), 5, 13, id="GF10007"),
    pytest.param(GF(DEFAULT_MODULAR_PRIME), 11, 12, id="GF62bit"),
    pytest.param(QQ, 12, 8, id="QQ")])
def test_scheduled_elimination_matches_pivoted_determinants(fld, expect_unscheduled,
                                                            expect_reordered):
    rng = Random(RNG_SEED)
    ring = Ring(3, fld)
    block = (0, 1, 2)
    fallbacks = 0
    unscheduled = 0
    reordered = 0
    for degrees, shape in ELIMINATION_SHAPES.items():
        for _ in range(6):
            system = MacaulaySystem([random_form(ring, block, d, rng, density=0.7)
                                     for d in degrees])
            assert (system.size, system.minor_size) == shape
            # the reduced minor's monomials lead, in rows and columns alike
            km = system.minor_size
            assert all((sum(mu[i] >= d for i, d in enumerate(degrees)) >= 2) == (c < km)
                       for c, mu in enumerate(system.columns))
            reordered += system.columns != graded_lex_columns(system)
            # the schedule is withheld exactly when dense elimination without
            # pivoting meets a zero at every point of the structural pattern
            oracle = structural_batch(system, 10007, Random(RNG_SEED))
            flagged = system.schedule is None
            assert flagged == (dense_unpivoted_failures(oracle, 10007) == 64)
            unscheduled += flagged
            tables = value_tables(system)
            expected = check_value_ratio(system, tables)
            if fld != QQ:
                got, = resultant._scheduled_ratios(
                    system, [system._matrix_of(tables, fld.zero())])
                if got is None:
                    fallbacks += 1
                    if expected is None:
                        continue
                else:
                    assert got == expected
            elif expected is None:
                continue

            # the batch: 64 random value sets on the same structural pattern,
            # with the first pivot planted zero at the first, a middle and
            # the last point, so the batch inversion must skip them; over QQ
            # the image of each goes through _field_ratio alone
            columns = [{mb: [fld.random(rng) for _ in range(64)] for mb in tab}
                       for tab in tables]
            points = [[{mb: col[j] for mb, col in tab.items()} for tab in columns]
                      for j in range(64)]
            if not flagged:
                form, mb = next((i, mb) for r, c, i, mb in system.cells if r == c == 0)
                for j in PLANTED_ZERO_PIVOTS:
                    points[j][form][mb] = fld.zero()
            if fld == QQ:
                for at_j in points:
                    check_value_ratio(system, at_j)
                continue
            ratios = resultant._scheduled_ratios(
                system, [system._matrix_of(t, fld.zero()) for t in points])
            if flagged:
                assert ratios == [None] * 64
            else:
                assert all(ratios[j] is None for j in PLANTED_ZERO_PIVOTS)
            for ratio, at_j in zip(ratios, points):
                if ratio is None:
                    check_value_ratio(system, at_j)
                else:
                    assert ratio == pivoted_ratio(system, at_j)
            if fld.p >= _NUMPY_SAFE:
                continue
            # the int64 batch on the same value sets meets the same zero
            # pivots and agrees wherever it meets none
            p = fld.p
            batch_tables = [{mb: np.array([pt[i][mb] for pt in points], dtype=np.int64)
                             for mb in tab} for i, tab in enumerate(tables)]
            k = system.size
            batch = np.zeros((k, k, 64), dtype=np.int64)
            for r, c, i, mb in system.cells:
                batch[r, c] = batch_tables[i][mb]
            dense = dense_unpivoted_failures(batch, p)
            if flagged:
                assert dense == 64
                continue
            numpy_ratios, ok = _batch64._batched_ratio_mod(batch, system.schedule, km, p)
            assert (~ok).sum() <= dense
            assert [r is not None for r in ratios] == ok.tolist()
            assert [r for r in ratios if r is not None] == numpy_ratios[ok].tolist()
    if fld == GF(7):  # the pivoted pair behind a zero pivot was checked too
        assert fallbacks > unscheduled
    assert unscheduled == expect_unscheduled
    assert reordered == expect_reordered


def test_int64_batch_elimination_at_worst_case_entries():
    # at the largest prime the int64 batch takes, every structural entry
    # p - 1; then the same with the diagonal 1, so the first steps'
    # factors are p - 1 and their products (p - 1)^2; and with the diagonal
    # p - 2, which meets no zero pivot: the in-place step agrees with the
    # Python-int lockstep on every point and every zero pivot
    p = next(internal_primes())
    assert p < _NUMPY_SAFE
    rng = Random(RNG_SEED)
    ring = Ring(3, GF(p))
    for degrees in ELIMINATION_SHAPES:
        system = MacaulaySystem(with_pure_powers(
            [random_form(ring, (0, 1, 2), d, rng, density=0.7) for d in degrees], 3))
        k = system.size
        batch = np.zeros((k, k, 3), dtype=np.int64)
        for r, c, _, _ in system.cells:
            batch[r, c] = p - 1
        batch[range(k), range(k), 1] = 1
        batch[range(k), range(k), 2] = p - 2
        ratios = resultant._scheduled_ratios(system, [batch[:, :, j].tolist() for j in range(3)])
        numpy_ratios, ok = _batch64._batched_ratio_mod(batch, system.schedule,
                                                       system.minor_size, p)
        assert ok[2]
        assert [r is not None for r in ratios] == ok.tolist()
        assert [r for r in ratios if r is not None] == numpy_ratios[ok].tolist()


def check_vandermonde(nodes, rhs, solved, p, transposed):
    """Multiply the solution back: O(t^2) per right-hand side."""
    t = len(nodes)
    for i in range(t):
        if transposed:
            total = sum(c * pow(nodes[j], i, p) for j, c in enumerate(solved))
        else:
            total = sum(c * pow(nodes[i], j, p) for j, c in enumerate(solved))
        assert total % p == rhs[i] % p


def sample_nodes(rng, p, l):
    """l distinct residues mod p, seeded (random.sample's range stops at 2^63)."""
    if p < 1 << 63:
        return rng.sample(range(p), l)
    return list({rng.randrange(p): None for _ in range(l)})


def plain_rows(rows):
    return all(type(row) is list and all(type(c) is int for c in row) for row in rows)


# 101 is smaller than the largest t; the first internal prime is the
# largest that takes the int64 product; DEFAULT_MODULAR_PRIME and 2^89 - 1
# (past int64 itself) take the Python-int route
@pytest.mark.parametrize("p", [101, 10007, next(internal_primes()), DEFAULT_MODULAR_PRIME,
                               2 ** 89 - 1])
def test_vandermonde_solve_multiplies_back(p):
    fld = GF(p)
    rng = Random(p)
    for l in (1, 5, 12):
        for nodes in (list(range(1, l + 1)), sample_nodes(rng, p, l)):
            rhs = [fld.random(rng) for _ in range(l)]
            for flag in (False, True):
                expected = _vandermonde_solve(nodes, rhs, p, transposed=flag)
                assert plain_rows([expected])
                check_vandermonde(nodes, rhs, expected, p, flag)
                # rows solve one system per position, as the scalars do
                other = [fld.random(rng) for _ in range(l)]
                batch = [[a, b] for a, b in zip(rhs, other)]
                solved = _vandermonde_solve(nodes, batch, p, transposed=flag)
                assert plain_rows(solved)
                assert [c[0] for c in solved] == expected
                assert [c[1] for c in solved] \
                    == _vandermonde_solve(nodes, other, p, transposed=flag)
    # around the int64 product's 64-term chunks, checked by multiplying back
    for l in (63, 64, 65, 130):
        if l > p:
            continue
        nodes = sample_nodes(rng, p, l)
        rhs = [fld.random(rng) for _ in range(l)]
        other = [fld.random(rng) for _ in range(l)]
        batch = [[a, b] for a, b in zip(rhs, other)]
        for flag in (False, True):
            solved = _vandermonde_solve(nodes, rhs, p, transposed=flag)
            assert plain_rows([solved])
            check_vandermonde(nodes, rhs, solved, p, flag)
            columns = _vandermonde_solve(nodes, batch, p, transposed=flag)
            assert plain_rows(columns)
            assert [c[0] for c in columns] == solved
            check_vandermonde(nodes, other, [c[1] for c in columns], p, flag)
    # every entry p - 1: 130 products would pass 2^63 near _NUMPY_SAFE, for
    # the int64 product that only the primes below it take
    if p < _NUMPY_SAFE:
        worst = np.array([[p - 1] * 130] * 2, dtype=np.int64)
        assert _batch64._matmul_mod(worst, worst.T, p).tolist() \
            == [[130 * (p - 1) ** 2 % p] * 2] * 2
    with pytest.raises(DegeneracyError) as err:
        _vandermonde_solve([1, 1 + p], [0, 0], p)
    assert err.value.code == "interpolation-singular"


def lower_sets(rng, axes, top):
    """A box, a simplex and a box cut by a simplex in `axes` axes, every
    exponent at most `top` (nodes 1..top+1 must stay distinct mod p)."""
    bounds = [rng.randint(0, top) for _ in range(axes)]
    box = list(itertools.product(*(range(b + 1) for b in bounds)))
    degree = rng.randint(1, top)
    simplex = [a for a in itertools.product(range(degree + 1), repeat=axes)
               if sum(a) <= degree]
    cut = [a for a in box if sum(a) <= max(bounds) // 2 + 1]
    return {"box": box, "simplex": simplex, "box and simplex": cut}


@pytest.mark.parametrize("p", [7, 10007, DEFAULT_MODULAR_PRIME], ids=["GF7", "GF10007", "GF62bit"])
def test_newton_solve_recovers_polynomials_on_lower_sets(p):
    # random polynomials supported on a lower set, valued at its points
    # (a_0 + 1, ..., a_m + 1) directly, come back exactly; the lower set is
    # shuffled, as the solver reads its tuples in any order
    rng = Random(p)
    shapes = set()
    for axes in (1, 2, 3):
        for _ in range(4):
            for kind, lower in lower_sets(rng, axes, min(p - 1, 6)).items():
                rng.shuffle(lower)
                coeffs = [rng.randrange(p) for _ in lower]
                values = [sum(c * math.prod((x + 1) ** e for x, e in zip(point, a))
                              for c, a in zip(coeffs, lower)) for point in lower]
                assert resultant._newton_solve(lower, values, p) == coeffs
                shapes.add((axes, kind, len(lower) > 1))
    assert {(axes, kind) for axes, kind, wide in shapes if wide} == {
        (axes, kind) for axes in (1, 2, 3) for kind in ("box", "simplex", "box and simplex")}


# -- independent oracles ------------------------------------------------------------

def product_of_linear_forms(ring, factors):
    f = ring.one()
    for row in factors:
        f = f * sum((ring.var(j).scale(c) for j, c in enumerate(row)), ring.zero())
    return f


@pytest.mark.parametrize("fld", [QQ, GF(10007)], ids=["QQ", "GF10007"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_macaulay_is_multiplicative_on_products_of_linear_forms(fld, seed):
    # Res(prod_j L_0j, prod_k L_1k, prod_l L_2l) = prod det(L_0j, L_1k, L_2l)
    rng = Random(seed)
    factors = [[[fld.coerce(rng.randint(-4, 4)) for _ in range(3)]
                for _ in range(d)] for d in (2, 2, 3)]
    expected = fld.one()
    for choice in itertools.product(*factors):
        expected = fld.mul(expected, leibniz_det(list(choice), fld))
    ring = Ring(3, fld)
    forms = [product_of_linear_forms(ring, fs) for fs in factors]
    assert macaulay_resultant(forms) == ring.const(expected)


def sympy_options(fld):
    return {"domain": "QQ"} if fld == QQ else {"modulus": fld.p}


def sympy_poly(poly, sympy, gens):
    fld = poly.ring.field
    terms = {m: sympy.Rational(c.numerator, c.denominator) if fld == QQ else c
             for m, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, **sympy_options(fld))


def random_poly(ring, degree, rng, terms=4):
    fld = ring.field
    out = ring.zero()
    for _ in range(terms):
        m = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(ring.nvars)] += 1
        out = out + Polynomial(ring, {tuple(m): fld.coerce(rng.randint(1, 9))})
    return out if not out.is_zero() else ring.one()


def random_binary_form(ring, degree, rng):
    """Form in x0, x1 with coefficients in x2; the x0^degree one is nonzero."""
    t = ring.var(2)
    f = ring.var(0) ** degree
    for k in range(degree + 1):
        c = sum((t ** e).scale(ring.field.coerce(rng.randint(-3, 3)))
                for e in range(3))
        f = f + ring.var(0) ** (degree - k) * ring.var(1) ** k * c
    return f if f.degree_in(0) == degree else random_binary_form(ring, degree, rng)


@pytest.mark.parametrize("fld", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_sylvester_gcd_and_squarefree_match_sympy(fld):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x0:3")
    rng = Random(5151)
    ring = Ring(3, fld)
    for _ in range(6):
        # the homogeneous resultant is the resultant of the x1 = 1 chart
        # when both forms keep their x0 degree
        p = random_binary_form(ring, rng.randint(1, 3), rng)
        q = random_binary_form(ring, rng.randint(1, 3), rng)
        chart = [sympy_poly(h, sympy, x).as_expr().subs(x[1], 1) for h in (p, q)]
        theirs = sympy.Poly(sympy.resultant(*chart, x[0]), *x, **sympy_options(fld))
        assert sympy_poly(sylvester_resultant(p, q), sympy, x) == theirs

        g, a, b = (random_poly(ring, 2, rng) for _ in range(3))
        gcd = sympy_poly(poly_gcd(g * a, g * b), sympy, x)
        assert gcd.monic() == sympy_poly(g * a, sympy, x).gcd(
            sympy_poly(g * b, sympy, x)).monic()

    # sympy's square-free part is multivariate over QQ, univariate over F_p
    sq_ring = ring if fld == QQ else Ring(1, fld)
    gens = x if fld == QQ else x[:1]
    for _ in range(6):
        a, b = random_poly(sq_ring, 2, rng), random_poly(sq_ring, 2, rng)
        f = a * a * b
        assert sympy_poly(squarefree_part(f), sympy, gens).monic() \
            == sympy_poly(f, sympy, gens).sqf_part().monic()


# -- Canny's generalized characteristic polynomial ----------------------------------

GCP_FIELDS = [QQ, GF(7), GF(10007), GF(DEFAULT_MODULAR_PRIME)]
GCP_IDS = ["QQ", "GF7", "GF10007", "GF62bit"]


def block_triangular(rng, sizes):
    """Integer matrix, upper block triangular with diagonal blocks of the
    given sizes: its Hessenberg form has a zero subdiagonal entry."""
    k = sum(sizes)
    m = [[0] * k for _ in range(k)]
    start = 0
    for size in sizes:
        for r in range(start, start + size):
            for c in range(start, k):
                m[r][c] = rng.randint(-3, 3)
        start += size
    return m


@pytest.mark.parametrize("fld", GCP_FIELDS, ids=GCP_IDS)
def test_charpoly_low_matches_sympy(fld):
    # det(sI - M) against sympy's charpoly of the integer matrix, reduced
    # mod p (over QQ, mod kernel_field(QQ)), in full and cut to its first
    # coefficients
    sympy = pytest.importorskip("sympy")
    rng = Random(RNG_SEED)
    fld = kernel_field(fld)
    integer = [[[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(k)]
                for _ in range(k)] for k in (1, 2, 3, 5, 8) for _ in range(4)]
    integer += [block_triangular(rng, sizes) for sizes in ((2, 3), (1, 4, 2), (3, 3, 3))]
    split = 0
    for ints in integer:
        k = len(ints)
        expected = [fld.coerce(int(c)) for c in sympy.Matrix(ints).charpoly().all_coeffs()[::-1]]
        values = [[fld.coerce(x) for x in row] for row in ints]
        m = [row[:] for row in values]
        assert resultant._charpoly_low(m, fld.p) == expected
        # m is left in upper Hessenberg form
        assert all(fld.is_zero(m[r][c]) for r in range(k) for c in range(r - 1))
        split += any(fld.is_zero(m[i + 1][i]) for i in range(k - 1))
        for terms in (1, (k + 1) // 2, k + 1):
            cut = resultant._charpoly_low([row[:] for row in values], fld.p, terms)
            assert cut == expected[:terms]
    assert split >= 3


def macaulay_values(system):
    """The matrix of a numeric system's field values."""
    return system._matrix_of(value_tables(system), system.ring.field.zero())


def minor_singular(system):
    """Whether the reduced minor M' is singular at a numeric system's values."""
    fld = system.ring.field
    km = system.minor_size
    return fld.is_zero(pivoted_det([row[:km] for row in macaulay_values(system)[:km]], fld))


@pytest.mark.parametrize("fld", GCP_FIELDS + [GF(3)], ids=GCP_IDS + ["GF3"])
def test_canny_ratio_equals_field_ratio_where_the_minor_is_invertible(fld):
    # with det M' != 0 the order a is 0 and C(0) is det M / det M' itself:
    # on dense matrices with every minor size (over QQ, their images mod
    # kernel_field(QQ)), and on Macaulay matrices (over QQ, the numeric
    # resultant against the pivoted reference pair)
    rng = Random(RNG_SEED)
    fp = kernel_field(fld)
    checked = 0
    for k in (1, 3, 6):
        for _ in range(6):
            m = [[fp.coerce(rng.randint(-5, 5)) for _ in range(k)] for _ in range(k)]
            for km in range(k + 1):
                try:
                    expected = _field_ratio([row[:] for row in m], fp.p, km)
                except DegeneracyError:
                    continue
                assert resultant._canny_ratio([row[:] for row in m], km, fp.p) == expected
                checked += 1
    ring = Ring(3, fld)
    for degrees in ELIMINATION_SHAPES:
        for _ in range(4):
            forms = [random_form(ring, (0, 1, 2), d, rng) for d in degrees]
            system = MacaulaySystem(forms)
            if fld == QQ:
                expected = pivoted_ratio(system, value_tables(system))
                if expected is None:
                    continue
                assert macaulay_resultant(forms).constant_value() == expected
                checked += 1
                continue
            m = macaulay_values(system)
            try:
                expected = _field_ratio([row[:] for row in m], fld.p, system.minor_size)
            except DegeneracyError:
                continue
            assert resultant._canny_ratio(m, system.minor_size, fld.p) == expected
            checked += 1
    assert checked >= 60


def small_forms(ring, rng):
    """Sparse numeric forms of degree 1 or 2 with coefficients in -2..2."""
    n1 = ring.nvars
    forms = []
    for _ in range(n1):
        d = rng.randint(1, 2)
        terms = {mb: ring.field.coerce(c) for mb in monomials_of_degree(n1, d)
                 if rng.random() < 0.35 and (c := rng.randint(-2, 2))}
        forms.append(Polynomial(ring, terms) if terms else ring.var(rng.randrange(n1)) ** d)
    return forms


def groebner_common_zero(forms, sympy):
    """Whether the forms share a projective zero over the closure: unless a
    Groebner basis has a pure power of every variable among its leading
    monomials."""
    gens = sympy.symbols(f"x0:{forms[0].ring.nvars}")
    basis = sympy.groebner([sympy_poly(f, sympy, gens) for f in forms], *gens,
                           order="grevlex", **sympy_options(forms[0].ring.field))
    pure = {next(i for i, e in enumerate(lead) if e)
            for lead in (sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs)
            if sum(1 for e in lead if e) == 1}
    return len(pure) < len(gens)


@pytest.mark.parametrize("fld", GCP_FIELDS, ids=GCP_IDS)
def test_singular_reduced_minors_resolve_by_gcp(fld):
    # a seeded corpus on P^1..P^3; wherever the reduced minor is singular at
    # the system's values (among them systems whose M' stays singular under
    # every change of coordinates), the resultant is 0 exactly when the
    # forms share a zero: one with entries in -2..2, or else by a Groebner
    # basis; a nonzero value matches det(A)^(d_0...d_n) Res after a seeded
    # change of coordinates A under which M' is invertible
    sympy = pytest.importorskip("sympy")
    rng, change_rng = Random(RNG_SEED), Random(RNG_SEED + 1)
    seen = Counter()
    for _ in range(150):
        n1 = rng.randint(2, 4)
        ring = Ring(n1, fld)
        forms = small_forms(ring, rng)
        system = MacaulaySystem(forms)
        if not minor_singular(system):
            continue
        value = macaulay_resultant(forms).constant_value()
        if fld.is_zero(value):
            small = any(any(pt) and all(fld.is_zero(f.evaluate([fld.coerce(x) for x in pt]))
                                        for f in forms)
                        for pt in itertools.product(range(-2, 3), repeat=n1))
            if not small:
                assert groebner_common_zero(forms, sympy)
            seen["zero with small common zero" if small else "zero by groebner"] += 1
            continue
        assert not groebner_common_zero(forms, sympy)
        e = math.prod(system.degrees)
        while True:
            a = [[fld.coerce(change_rng.randint(-3, 3)) for _ in range(n1)] for _ in range(n1)]
            det_a = pivoted_det(a, fld)
            if fld.is_zero(det_a):
                continue
            moved = [f.substitute([sum((ring.var(k).scale(x) for k, x in enumerate(row)),
                                       ring.zero()) for row in a]) for f in forms]
            if not minor_singular(MacaulaySystem(moved)):
                break
        assert macaulay_resultant(moved).constant_value() == fld.mul(fld.pw(det_a, e), value)
        seen["nonzero"] += 1
    # 78 of the 150 systems have a singular M'; over GF(7) two more have a
    # common zero in -2..2, mod 7
    small, groebner = (59, 2) if fld == GF(7) else (57, 4)
    assert seen == {"zero with small common zero": small, "zero by groebner": groebner,
                    "nonzero": 17}


@pytest.mark.parametrize("fld", GCP_FIELDS, ids=GCP_IDS)
def test_coincident_forms_on_p3_give_zero(fld):
    # two equal forms: the reduced minor is singular under every change
    # of coordinates, and the resultant is 0
    ring = Ring(4, fld)
    forms = [P(t, ring) for t in ("x0", "x0", "-3*x0*x2",
                                  "x0^2+x0*x1+x0*x3-x1^2+3*x1*x3+2*x2^2-3*x3^2")]
    assert macaulay_resultant(forms).is_zero()


@pytest.mark.parametrize("fld", GCP_FIELDS, ids=GCP_IDS)
def test_ratio_route_through_gcp_where_the_minor_vanishes_identically(fld):
    # det M' is 0 as a polynomial in x3, so the ratio route takes C(s) on
    # F_i - s x_i^{d_i}; Res = 16 (x3 - 2)^2 (x3 + 1)^4 by multiplicativity
    ring = Ring(4, fld)
    forms = [P(t, ring) for t in ("x2^2*x3-2*x2^2", "-2*x0*x3-2*x0",
                                  "x0^2+2*x0*x1+x1^2-x1*x2")]
    assert determinant(MacaulaySystem(forms, 3).minor_matrix()).is_zero()
    expected = (P("x3-2", ring) ** 2 * P("x3+1", ring) ** 4).scale(fld.coerce(16))
    assert macaulay_resultant(forms, 3, strategy="ratio") == expected
    assert macaulay_resultant(forms, 3, strategy="modular") == expected
    assert macaulay_resultant(forms, 3) == expected


# -- numeric resultants over QQ by CRT ----------------------------------------------

def test_garner_step_examples():
    # frozen oracle values, computed by hand: (1 mod 3, 2 mod 5) is 7 mod
    # 15, and a residue keeps its representative in (-M/2, M/2]
    combined = {}
    assert _garner_step(combined, 1, {"x": 1}, 3) == 3
    assert _garner_step(combined, 3, {"x": 2}, 5) == 15
    assert combined == {"x": 7}
    combined = {}
    assert _garner_step(combined, 1, {"x": 2}, 3) == 3
    assert combined == {"x": -1}
    # a key missing from the image is 0 there, and one missing before is 0
    combined = {"x": 1}
    assert _garner_step(combined, 3, {"y": 4}, 5) == 15
    assert combined == {"x": -5, "y": -6}


def test_garner_step_symmetric_range_property():
    rng = Random(RNG_SEED)
    primes = [3, 5, 7, 11, 13]
    m = 3 * 5 * 7 * 11 * 13
    for _ in range(100):
        xs = {j: rng.randint(-7000, 7000) for j in range(3)}
        combined, modulus = {}, 1
        for p in primes:
            modulus = _garner_step(combined, modulus, {j: x % p for j, x in xs.items()}, p)
            assert all(-modulus // 2 < c <= modulus // 2 for c in combined.values())
        assert modulus == m
        assert combined == xs  # |x| < m/2 so recovery is exact


def test_garner_step_rejects_a_modulus_sharing_a_factor():
    with pytest.raises(ValueError):
        _garner_step({"x": 1}, 3, {"x": 2}, 3)
    with pytest.raises(ValueError):
        _garner_step({"x": 1}, 6, {"x": 2}, 9)


FIRST_PRIME = next(internal_primes())  # 268435399


def numeric_qq_system(rng, n1):
    """Numeric forms over QQ on P^(n1 - 1), degrees 1-2 (1-3 on P^1), with
    coefficients of up to 40 bits; some lack their own pure power (so M' is
    often singular), some share a zero with the others, some have
    denominators."""
    ring = Ring(n1, QQ)
    kind = rng.choice(["plain", "no pure power", "common zero", "fractions"])
    bits = rng.choice([3, 20, 40])
    forms = []
    for i in range(n1):
        d = rng.randint(1, 3 if n1 == 2 else 2)
        terms = {}
        for mb in monomials_of_degree(n1, d):
            if (kind == "no pure power" and mb[i] == d) or (kind == "common zero" and mb[0] == d):
                continue
            c = rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.8 else 0
            if c:
                den = rng.randint(1, 1000) if kind == "fractions" else 1
                terms[mb] = Fraction(c, den)
        forms.append(Polynomial(ring, terms) if terms else ring.var(i) ** d)
    return forms


def check_numeric_qq(forms, monkeypatch):
    """The numeric QQ resultant against its height bound, the pivoted
    reference pair (where M' is invertible) and the resultant over
    GF(DEFAULT_MODULAR_PRIME), a prime the CRT never uses; returns it, with
    whether M' is singular and the primes of the images."""
    images = count_calls(monkeypatch, resultant, "_point_value")
    value = macaulay_resultant(forms).constant_value()
    monkeypatch.undo()
    primes = [p for *_, p in images]
    system = MacaulaySystem(forms)
    integral, scale = system._integral()
    bound_squared = _height_bound_squared(integral._matrix_of(value_tables(integral), 0))
    assert (value * scale) ** 2 <= bound_squared
    # the images stop at the first prime past 2B
    assert math.prod(primes[:-1]) ** 2 <= 4 * bound_squared < math.prod(primes) ** 2
    assert all(scale % p for p in primes)
    expected = pivoted_ratio(system, value_tables(system))
    if expected is not None:
        assert value == expected
    fp = GF(DEFAULT_MODULAR_PRIME)
    ring = Ring(len(forms), fp)
    reduced = [Polynomial(ring, {m: fp.coerce(c) for m, c in f.terms.items()}) for f in forms]
    assert macaulay_resultant(reduced).constant_value() == fp.coerce(value)
    return value, expected is None, primes


def test_numeric_qq_resultants_by_crt_up_to_the_height_bound(monkeypatch):
    # a seeded corpus on P^1..P^3, coefficients of up to 40 bits, plus one
    # system whose first form has the first internal prime as denominator:
    # the integral copy's factor is then divisible by it, and the loop skips it
    rng = Random(RNG_SEED)
    seen = Counter()
    for _ in range(60):
        forms = numeric_qq_system(rng, rng.randint(2, 4))
        value, singular, _ = check_numeric_qq(forms, monkeypatch)
        seen[("singular M'" if singular else "invertible M'",
              "zero" if value == 0 else "nonzero")] += 1
        seen["over 40 bits"] += abs(value.numerator).bit_length() > 40
    ring = Ring(3, QQ)
    forms = [P(t, ring) for t in ("x0^2-3*x1*x2+x2^2", "x1^2+2*x0*x2", "x0+x1-5*x2")]
    forms[0] = forms[0].scale(Fraction(1, FIRST_PRIME))
    value, _, primes = check_numeric_qq(forms, monkeypatch)
    assert FIRST_PRIME not in primes and primes[0] == next(
        itertools.islice(internal_primes(), 1, None))
    assert value * FIRST_PRIME ** 2 == macaulay_resultant(
        [P("x0^2-3*x1*x2+x2^2", ring)] + forms[1:]).constant_value()
    assert seen == {("invertible M'", "nonzero"): 30, ("invertible M'", "zero"): 6,
                    ("singular M'", "nonzero"): 11, ("singular M'", "zero"): 13,
                    "over 40 bits": 33}


def test_order_56_numeric_system_with_a_singular_reduced_minor():
    # degrees (2, 2, 2, 2) on P^3, each form without its own pure power:
    # M' is singular, so every image goes through Canny's polynomial; the
    # frozen value was computed by Canny's polynomial on Fractions
    rng = Random(1)
    ring = Ring(4, QQ)
    forms = [Polynomial(ring, {mb: Fraction(c) for mb in monomials_of_degree(4, 2)
                               if mb[i] < 2 and (c := rng.randint(-9, 9))})
             for i in range(4)]
    system = MacaulaySystem(forms)
    assert (system.size, minor_singular(system)) == (56, True)
    assert macaulay_resultant(forms) == ring.const(1958702468922268321888283296708319)


# -- degeneracy and validation ------------------------------------------------------

def test_macaulay_rejects_inhomogeneous_and_wrong_count():
    ring = Ring(3, QQ)
    with pytest.raises(InvalidInputError):
        macaulay_resultant([P("x0^2+x1", ring), P("x1^2", ring), P("x2^2", ring)])
    with pytest.raises(InvalidInputError):
        macaulay_resultant([P("x0", ring), P("x1", ring)])


def test_macaulay_unknown_strategy():
    ring = Ring(2, QQ)
    with pytest.raises(InvalidInputError):
        macaulay_resultant([P("x0", ring), P("x1", ring)], strategy="guess")


# -- gradient resultants and discriminants ------------------------------------------

def test_gradient_resultant_smooth_and_singular():
    ring = Ring(3, QQ)
    smooth = P("x0^2+x1^2+x2^2", ring)
    assert gradient_resultant(smooth) == ring.const(8)
    cone = P("x0*x1", ring)  # singular at (0:0:1)
    assert gradient_resultant(cone).is_zero()
    with pytest.raises(InvalidInputError):
        gradient_resultant(P("x0+x1+x2", ring))


def test_discriminant_binary_quadratic_symbolic():
    ring = Ring(5, QQ)
    al = {"a": 2, "b": 3, "c": 4}
    phi = P("a*x0^2+b*x0*x1+c*x1^2", ring, al)
    assert discriminant_binary(phi) == P("b^2-4*a*c", ring, al)


def test_discriminant_binary_cubic_frozen():
    # x0^3 + p x0 x1^2 + q x1^3: this normalization returns -12p^3 - 81q^2,
    # i.e. 3 * (-4p^3 - 27q^2); vanishing locus matches the classical one
    ring = Ring(4, QQ)
    al = {"p": 2, "q": 3}
    phi = P("x0^3+p*x0*x1^2+q*x1^3", ring, al)
    assert discriminant_binary(phi) == P("-12*p^3-81*q^2", ring, al)


def test_discriminant_detects_repeated_root():
    ring = Ring(2, QQ)
    assert discriminant_binary(P("x0^2-2*x0*x1+x1^2", ring)).is_zero()
    assert not discriminant_binary(P("x0^2-x1^2", ring)).is_zero()


# -- closure oracle -----------------------------------------------------------------

def _common_projective_zero_exists(forms, ext, n):
    for pt in projective_points(ext, n):
        if all(evaluate_poly(ext, f, pt) == ext.zero() for f in forms):
            return True
    return False


def test_resultant_zero_iff_closure_zero_binary():
    fld = GF(7)
    ring = Ring(2, fld)
    # 3 is not a square mod 7: x0^2 - 3 x1^2 has roots only over GF(49)
    f0 = parse_polynomial("x0^2-3*x1^2", ring)
    f1 = f0 * parse_polynomial("x0+x1", ring)
    ext = SmallExtField(7, 2)
    assert macaulay_resultant([f0, f1]).is_zero()
    assert _common_projective_zero_exists([f0, f1], ext, 1)
    g1 = parse_polynomial("x0^3+x0*x1^2+x1^3", ring)
    res = macaulay_resultant([f0, g1])
    shared = _common_projective_zero_exists([f0, g1], ext, 1)
    assert res.is_zero() == shared


def test_resultant_zero_iff_closure_zero_ternary():
    fld = GF(5)
    ring = Ring(3, fld)
    # 2 is not a square mod 5; common zero (sqrt2 : 1 : sqrt2) lives in GF(25)
    f0 = parse_polynomial("x0^2-2*x1^2", ring)
    f1 = parse_polynomial("x2^2-2*x1^2", ring)
    f2 = parse_polynomial("x0*x2-2*x1^2", ring)
    assert macaulay_resultant([f0, f1, f2]).is_zero()
    ext = SmallExtField(5, 2)
    assert _common_projective_zero_exists([f0, f1, f2], ext, 2)
    g2 = parse_polynomial("x0*x2+x1^2", ring)
    res = macaulay_resultant([f0, f1, g2])
    shared = _common_projective_zero_exists([f0, f1, g2], ext, 2)
    assert res.is_zero() == shared


def _specialized_forms(forms, block_size, point):
    """The forms with their parameters fixed at `point`, in the block ring."""
    fld = forms[0].ring.field
    ring = Ring(block_size, fld)
    out = []
    for f in forms:
        terms = {}
        for m, c in f.terms.items():
            v = c
            for x, e in zip(point, m[block_size:]):
                v = fld.mul(v, fld.pw(x, e))
            terms[m[:block_size]] = fld.add(terms.get(m[:block_size], fld.zero()), v)
        out.append(Polynomial(ring, {m: v for m, v in terms.items() if v}))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_small_field_parametric_resultants_against_brute_force(p, monkeypatch):
    # seeded systems whose grid F_p cannot hold, so "auto" takes the ratio
    # route; at every parameter point c, R(c) must be the resultant of the
    # specialized forms, and nonzero only if they share no zero in P^n(F_p^2)
    ratio_calls = count_calls(monkeypatch, resultant, "_ratio_resultant")
    fld, ext = GF(p), SmallExtField(p, 2)
    rng = Random(RNG_SEED)
    values = {True: 0, False: 0}  # by whether R(c) = 0
    for block_size, degrees, nvars in SPARSE_SHAPES:
        ring = Ring(nvars, fld)
        for _ in range(4):
            forms = sparse_parametric_forms(ring, block_size, degrees, rng)
            system = MacaulaySystem(forms, block_size)
            if resultant._GridPlan(system, None).max_axis_length() <= p:
                continue
            ratio_calls.clear()
            res = macaulay_resultant(forms, block_size)
            assert ratio_calls
            origin = (0,) * block_size
            for point in itertools.product(range(p), repeat=nvars - block_size):
                specialized = _specialized_forms(forms, block_size, point)
                value = res.evaluate(origin + point)
                assert value == macaulay_resultant(specialized).evaluate(origin)
                values[value == 0] += 1
                if value:
                    assert not _common_projective_zero_exists(
                        specialized, ext, block_size - 1)
    assert values[True] and values[False]
