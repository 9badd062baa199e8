"""Resultant layer: Sylvester, Macaulay, strategies, degeneracy handling."""
import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from projdyn import resultant
from projdyn.coeff import DEFAULT_MODULAR_PRIME, GF, QQ, internal_primes
from projdyn.dynamics import (Endomorphism, endomorphism_from_strings,
                               improper_certificate, pushforward_iterated)
from projdyn.errors import DegeneracyError, InvalidInputError
from projdyn.mpoly import (Polynomial, Ring, monomials_of_degree,
                           parse_polynomial, poly_gcd, squarefree_part)
from projdyn.resultant import (_NUMPY_SAFE, MacaulaySystem, _field_det,
                               _field_inverse, _probe_count,
                               _vandermonde_solve,
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
    # that probes the reconstructed candidate
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
    batched = count_calls(monkeypatch, resultant, "_batched_values_mod")
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


def test_auto_resolves_tall_qq_cubics_through_the_ratio_route_first():
    # binary cubics with 60-bit coefficients and one parameter: the
    # modular route raises interpolation-unstable here, because its CRT
    # primes stop short of the height, so the QQ ratio-first cutoff
    # (order <= 14) is what resolves them
    ring = Ring(3, QQ)
    c = [QQ.coerce((3 * 7 ** k + 1) % 2 ** 60 + 2 ** 59) for k in range(9)]
    p = Polynomial(ring, {(3, 0, 0): c[1], (2, 1, 1): c[2], (1, 2, 0): c[3],
                          (0, 3, 0): c[4]})
    q = Polynomial(ring, {(3, 0, 0): c[5], (2, 1, 0): c[6], (1, 2, 1): c[7],
                          (0, 3, 0): c[8]})
    assert macaulay_resultant([p, q], 2) == sylvester_resultant(p, q)


@pytest.mark.parametrize("fld", [QQ, GF(DEFAULT_MODULAR_PRIME)], ids=["QQ", "GF62bit"])
def test_value_tables_equal_coefficientwise_evaluation(fld):
    rng = Random(RNG_SEED)
    ring = Ring(5, fld)
    for _ in range(5):
        system = MacaulaySystem(sparse_parametric_forms(ring, 2, (2, 3), rng), 2)
        point = [fld.random(rng) for _ in range(3)]
        assert system.value_tables(point) == [
            {mb: c.evaluate([0, 0] + point) for mb, c in tab.items()}
            for tab in system.coeff_tables]


@pytest.mark.parametrize("fld", [GF(7), GF(10007), GF(DEFAULT_MODULAR_PRIME)],
                         ids=["GF7", "GF10007", "GF62bit"])
def test_compiled_program_matches_coefficientwise_evaluation(fld):
    # the matrices of a batch valued from the compiled program, and
    # value_tables, against Polynomial.evaluate coefficient by coefficient
    # (filled by _matrix_of), for systems built over F_p and for reduced
    # copies of systems over QQ (where some coefficients vanish mod 7);
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
            assert system._value_matrices(points) == [
                system._matrix_of(tables, 0) for tables in expected]
            assert [system.value_tables(point) for point in points] == expected
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


def test_sweep_certificate_evaluates_at_most_its_dense_box(monkeypatch):
    # a parameter-free certificate over the 62-bit prime interpolates its
    # pushforward resultants in y, on supports that fill their boxes
    runs = record_interpolations(monkeypatch)
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    assert sorted({r["box"] for r in runs}) == [9, 25]
    for r in runs:
        probes = _probe_count(r["plan"].degree_bound, DEFAULT_MODULAR_PRIME)
        assert probes == 1 and r["probed"] == probes
        assert r["points"] <= r["box"]
        assert r["evaluations"] == r["points"] + probes


def test_values_mod_routes_batches_by_size_and_prime(monkeypatch):
    batched = count_calls(monkeypatch, resultant, "_batched_values_mod")
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
                    for v in resultant._values_mod(system, plan, points[start:start + size],
                                                   Random(0))]

        batched.clear()
        lockstep = in_batches(small)
        assert not batched
        assert lockstep == in_batches(small + 1)
        assert len(batched) == small
    # the origin meets a zero pivot in two of the systems, once per route
    assert len(evaluated) == 4

    # over the 62-bit prime every batch runs in lockstep; the point evaluator
    # serves the certificate's own numeric resultant and zero-pivot points,
    # of which this certificate meets none
    batched.clear()
    evaluated.clear()
    zero_pivots.clear()
    f = endomorphism_from_strings(["x^2", "y^2", "z^2"], GF(DEFAULT_MODULAR_PRIME))
    improper_certificate(f, parse_polynomial("x+2*y+3*z", f.ring), (0, 1, 2))
    assert not batched
    assert not zero_pivots
    assert [point for _, point, _ in evaluated] == [None]


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


@pytest.mark.parametrize("fld", [GF(7), QQ], ids=["GF7", "QQ"])
def test_field_inverse_and_det_against_brute_force(fld):
    rng = Random(RNG_SEED)
    inverted = 0
    for size in (3, 4):
        for _ in range(25):
            a = [[fld.coerce(rng.randint(-3, 3)) for _ in range(size)]
                 for _ in range(size)]
            det = _field_det(a, fld)
            assert det == leibniz_det(a, fld)
            inv = _field_inverse(a, fld)
            if fld.is_zero(det):
                assert inv is None
            else:
                inverted += 1
                assert mat_mul(a, inv, fld) == identity(size, fld)
        singular = [a[0], a[1], [fld.add(x, y) for x, y in zip(a[0], a[1])]] + a[3:]
        assert fld.is_zero(_field_det(singular, fld))
        assert _field_inverse(singular, fld) is None
    assert inverted > 0


# block degrees of three forms on P^2 -> (order of M, order of M')
ELIMINATION_SHAPES = {(1, 2, 2): (10, 2), (2, 2, 2): (15, 3),
                      (1, 2, 4): (21, 7), (1, 4, 4): (36, 12)}


def pivoted_ratio(system, tables):
    """det M / det M' by the pivoted _field_det pair; None if M' is singular."""
    fld = system.ring.field
    full = system._matrix_of(tables, fld.zero())
    km = system.minor_size
    det_minor = _field_det([row[:km] for row in full[:km]], fld)
    if fld.is_zero(det_minor):
        return None
    return fld.div(_field_det(full, fld), det_minor)


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
            tables = system.value_tables()
            expected = pivoted_ratio(system, tables)
            got, = resultant._scheduled_ratios(
                system, [system._matrix_of(tables, fld.zero())])
            if got is None:
                fallbacks += 1
                if expected is None:
                    with pytest.raises(DegeneracyError):
                        resultant._value_ratio(system, tables)
                    continue
            else:
                assert got == expected
            assert resultant._value_ratio(system, tables) == expected

            # the batch: 64 random value sets on the same structural pattern,
            # with the first pivot planted zero at the first, a middle and
            # the last point, so the batch inversion must skip them
            columns = [{mb: [fld.random(rng) for _ in range(64)] for mb in tab}
                       for tab in tables]
            points = [[{mb: col[j] for mb, col in tab.items()} for tab in columns]
                      for j in range(64)]
            if flagged:
                ratios = resultant._scheduled_ratios(
                    system, [system._matrix_of(t, fld.zero()) for t in points])
                assert ratios == [None] * 64
            else:
                form, mb = next((i, mb) for r, c, i, mb in system.cells if r == c == 0)
                for j in PLANTED_ZERO_PIVOTS:
                    points[j][form][mb] = fld.zero()
                ratios = resultant._scheduled_ratios(
                    system, [system._matrix_of(t, fld.zero()) for t in points])
                assert all(ratios[j] is None for j in PLANTED_ZERO_PIVOTS)
                for ratio, at_j in zip(ratios, points):
                    expected = pivoted_ratio(system, at_j)
                    if ratio is not None:
                        assert ratio == expected
                    elif expected is None:
                        with pytest.raises(DegeneracyError):
                            resultant._value_ratio(system, at_j)
                    else:
                        assert resultant._value_ratio(system, at_j) == expected
            if fld == QQ or fld.p >= _NUMPY_SAFE:
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
            numpy_ratios, ok = resultant._batched_ratio_mod(batch, system.schedule, km, p)
            assert (~ok).sum() <= dense
            assert [r is not None for r in ratios] == ok.tolist()
            assert [r for r in ratios if r is not None] == numpy_ratios[ok].tolist()
    if fld == GF(7):  # the pivoted pair behind a zero pivot was checked too
        assert fallbacks > unscheduled
    assert unscheduled == expect_unscheduled
    assert reordered == expect_reordered


def check_vandermonde(nodes, rhs, solved, p, transposed):
    """Multiply the solution back: O(t^2) per right-hand side."""
    t = len(nodes)
    for i in range(t):
        if transposed:
            total = sum(c * pow(nodes[j], i, p) for j, c in enumerate(solved))
        else:
            total = sum(c * pow(nodes[i], j, p) for j, c in enumerate(solved))
        assert total % p == rhs[i] % p


# 101 is smaller than the largest t; the first internal prime is the
# largest that takes the int64 product
@pytest.mark.parametrize("p", [101, 10007, next(internal_primes()), DEFAULT_MODULAR_PRIME])
def test_vandermonde_solve_matches_field_inverse(p):
    fld = GF(p)
    rng = Random(p)
    for l in (1, 5, 12):
        for nodes in (list(range(1, l + 1)), rng.sample(range(p), l)):
            vander = [[pow(v, j, p) for j in range(l)] for v in nodes]
            transposed = [list(col) for col in zip(*vander)]
            rhs = [fld.random(rng) for _ in range(l)]
            for matrix, flag in ((vander, False), (transposed, True)):
                expected = [row[0] for row in mat_mul(_field_inverse(matrix, fld),
                                                      [[r] for r in rhs], fld)]
                assert _vandermonde_solve(nodes, rhs, p, transposed=flag) == expected
                # int arrays solve one system per position, as the scalars do
                other = [fld.random(rng) for _ in range(l)]
                batch = [resultant._vector([a, b], p) for a, b in zip(rhs, other)]
                solved = _vandermonde_solve(nodes, batch, p, transposed=flag)
                assert [int(c[0]) for c in solved] == expected
                assert [int(c[1]) for c in solved] \
                    == _vandermonde_solve(nodes, other, p, transposed=flag)
    # around the int64 product's 64-term chunks, checked by multiplying back
    for l in (63, 64, 65, 130):
        if l > p:
            continue
        nodes = rng.sample(range(p), l)
        rhs = [fld.random(rng) for _ in range(l)]
        other = [fld.random(rng) for _ in range(l)]
        batch = [resultant._vector([a, b], p) for a, b in zip(rhs, other)]
        for flag in (False, True):
            solved = _vandermonde_solve(nodes, rhs, p, transposed=flag)
            assert all(type(c) is int for c in solved)
            check_vandermonde(nodes, rhs, solved, p, flag)
            columns = _vandermonde_solve(nodes, batch, p, transposed=flag)
            assert [int(c[0]) for c in columns] == solved
            check_vandermonde(nodes, other, [int(c[1]) for c in columns], p, flag)
    # every entry p - 1: 130 products would pass 2^63 near _NUMPY_SAFE
    worst = resultant._vector([[p - 1] * 130] * 2, p)
    assert resultant._matmul_mod(worst, worst.T, p).tolist() \
        == [[130 * (p - 1) ** 2 % p] * 2] * 2
    with pytest.raises(DegeneracyError) as err:
        _vandermonde_solve([1, 1 + p], [0, 0], p)
    assert err.value.code == "interpolation-singular"


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
