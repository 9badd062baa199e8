"""Independent reference arithmetic for the benchmark's correctness checks.

Nothing here imports projdyn.  Binary forms are coefficient lists with
``c[i]`` multiplying ``x^i * y^(deg - i)``; a map of the line is a pair of
such lists of one degree.  ``p`` is a prime modulus, or ``None`` for exact
rational arithmetic on ``int``/``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _red(v, p):
    return v % p if p else v


def _inv(v, p):
    return pow(v, p - 2, p) if p else Fraction(1) / v


# -- binary forms ------------------------------------------------------------------

def form_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [_red(c, p) for c in out]


def form_eval(c, u, v, p):
    """Value of the form at (u : v)."""
    n = len(c) - 1
    return _red(sum(ci * u ** i * v ** (n - i) for i, ci in enumerate(c)), p)


def compose(f, g, p):
    """f o g for maps of the line: (f0(g0, g1), f1(g0, g1))."""
    d = len(f[0]) - 1
    g0_pows = [[1]]
    g1_pows = [[1]]
    for _ in range(d):
        g0_pows.append(form_mul(g0_pows[-1], g[0], p))
        g1_pows.append(form_mul(g1_pows[-1], g[1], p))
    out = []
    for comp in f:
        acc = [0] * ((len(g[0]) - 1) * d + 1)
        for i, ci in enumerate(comp):
            if ci:
                for k, t in enumerate(form_mul(g0_pows[i], g1_pows[d - i], p)):
                    acc[k] += ci * t
        out.append([_red(c, p) for c in acc])
    return out


def fixed_form(fs):
    """x * g1 - y * g0 for g = f^s: vanishes at points of period dividing s."""
    g0, g1 = fs
    return [(g1[i - 1] if i else 0) - (g0[i] if i < len(g0) else 0)
            for i in range(len(g0) + 1)]


def jacobian(f, p):
    """det of the partials of a map of the line; degree 2d - 2."""
    d = len(f[0]) - 1

    def dx(c):
        return [i * c[i] for i in range(1, d + 1)]

    def dy(c):
        return [(d - i) * c[i] for i in range(d)]

    left = form_mul(dx(f[0]), dy(f[1]), p)
    right = form_mul(dy(f[0]), dx(f[1]), p)
    return [_red(a - b, p) for a, b in zip(left, right)]


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, b, p):
    a = _trim(a)
    b = _trim(b)
    lead_inv = _inv(b[-1], p)
    while len(a) >= len(b):
        q = _red(a[-1] * lead_inv, p)
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = _red(a[shift + i] - q * bi, p)
        a = _trim(a)
    return a


def _poly_gcd_degree(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) - 1


def share_root(a, b, p):
    """Do two binary forms (formal degrees = list lengths - 1) share a root?

    Equivalent to a vanishing Sylvester resultant: a common root at (1:0)
    shows as both top coefficients vanishing, any other as a univariate
    gcd of positive degree after setting y = 1.
    """
    if not any(a) or not any(b):
        return True
    if a[-1] == 0 and b[-1] == 0:
        return True
    if p is None:
        a = [Fraction(c) for c in a]
        b = [Fraction(c) for c in b]
    return _poly_gcd_degree(a, b, p) > 0


def is_morphism(f, p):
    return not share_root(f[0], f[1], p)


def least_critical_period(f, bound, p):
    """Least s <= bound at which a critical point is periodic, or None."""
    jac = jacobian(f, p)
    current = f
    for s in range(1, bound + 1):
        if share_root(jac, fixed_form(current), p):
            return s
        current = compose(f, current, p)
    return None


# -- points and orbits -------------------------------------------------------------

def normalize_point(coords, p):
    """Scale a projective point so its last nonzero coordinate is 1."""
    coords = [_red(c, p) for c in coords]
    last = max(i for i, c in enumerate(coords) if c)
    inv = _inv(coords[last], p)
    return tuple(_red(c * inv, p) for c in coords)


def apply_map(forms, point, p):
    """Image of a point under monomial-dict forms {exponent tuple: coefficient}."""
    vals = []
    for form in forms:
        acc = 0
        for mono, c in form.items():
            term = c
            for x, e in zip(point, mono):
                term *= x ** e
            acc += term
        vals.append(_red(acc, p))
    if not any(vals):
        raise ValueError("map undefined at the point")
    return normalize_point(vals, p)


def binary_to_monomials(f):
    """Map of the line as monomial dicts, for apply_map."""
    return [{(i, len(c) - 1 - i): ci for i, ci in enumerate(c) if ci} for c in f]


def orbit_terminates(forms, point, steps, p):
    """Does the forward orbit repeat within `steps` applications?"""
    seen = {normalize_point(point, p)}
    current = normalize_point(point, p)
    for _ in range(steps):
        current = apply_map(forms, current, p)
        if current in seen:
            return True
        seen.add(current)
    return False


def split_critical_periods(f, p):
    """Brute force over F_p when the Jacobian splits there.

    Returns the least exact period of a periodic critical point (None when
    no critical point is periodic), or the string "nonsplit" when some
    critical point lies outside P^1(F_p).
    """
    jac = _trim(jacobian(f, p))
    deg = 2 * (len(f[0]) - 1) - 2
    points = []
    if len(jac) - 1 < deg:
        points.append((1, 0))
    remaining = jac
    for t in range(p):
        if form_eval(remaining, t, 1, p) == 0:
            points.append((t, 1))
            while len(remaining) > 1 and form_eval(remaining, t, 1, p) == 0:
                remaining = _divide_linear(remaining, t, p)
    if len(remaining) != 1:
        return "nonsplit"
    forms = binary_to_monomials(f)
    best = None
    for pt in points:
        start = normalize_point(pt, p)
        current = start
        for step in range(1, p + 2):
            current = apply_map(forms, current, p)
            if current == start:
                best = step if best is None else min(best, step)
                break
    return best


def _divide_linear(c, t, p):
    """Quotient of the polynomial c (lowest degree first) by (z - t)."""
    out = [0] * (len(c) - 1)
    acc = 0
    for i in range(len(c) - 1, 0, -1):
        acc = (acc * t + c[i]) % p
        out[i - 1] = acc
    return out


# -- reciprocal power family z -> z^(-d) + c -------------------------------------

def reciprocal_origin_period(d, c, steps, p):
    """Exact period of 0 under z^(-d) + c if 0 returns within `steps`, else None."""
    u, v = 0, 1
    for step in range(1, steps + 1):
        u, v = v ** d + c * u ** d, u ** d
        if p:
            u, v = u % p, v % p
        if u == 0:
            return step
    return None


def period_polynomial(d, s):
    """Integer numerator of f^s(0) for f = z^(-d) + c, lowest degree first."""
    num, den = [0], [1]
    for _ in range(s):
        num_d = _int_pow(num, d)
        den_d = _int_pow(den, d)
        lifted = [0] + num_d
        width = max(len(den_d), len(lifted))
        num = [(den_d[i] if i < len(den_d) else 0)
               + (lifted[i] if i < len(lifted) else 0) for i in range(width)]
        den = num_d
    return _trim(num)


def _int_pow(a, e):
    out = [1]
    for _ in range(e):
        out = form_mul(out, a, None)
    return out


def _divisors(n):
    n = abs(n)
    out = set()
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.update((k, n // k))
        k += 1
    return sorted(out)


def rational_roots(coeffs):
    """Rational roots of an integer polynomial (lowest degree first)."""
    coeffs = _trim(coeffs)
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
    core = coeffs[low:]
    if len(core) > 1:
        for a in _divisors(core[0]):
            for b in _divisors(core[-1]):
                for z in (Fraction(a, b), Fraction(-a, b)):
                    if sum(c * z ** i for i, c in enumerate(core)) == 0:
                        roots.add(z)
    return roots


def pcf_parameters(d, s, p):
    """Parameters c with 0 of exact period s under z^(-d) + c.

    Exhaustive over F_p; over Q the candidates are the rational roots of
    the period polynomial.
    """
    candidates = range(p) if p else rational_roots(period_polynomial(d, s))
    return {c for c in candidates
            if reciprocal_origin_period(d, c, s, p) == s}


# -- planes under diagonal maps -----------------------------------------------------

def _det3(rows, p):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return _red(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g), p)


def improper_witness(plane, scales, bound, p):
    """Least index triple whose images of V(plane) under diag(1, s1, s2) meet improperly.

    The i-th image of c0 x + c1 y + c2 z is c0 x + c1 s1^-i y + c2 s2^-i z;
    three planes meet improperly exactly when their coefficient rows are
    dependent.
    """
    def image(i):
        return [plane[0]] + [_red(plane[k] * _inv(scales[k - 1], p) ** i, p)
                             for k in (1, 2)]
    for combo in combinations(range(bound + 1), 3):
        if _det3([image(i) for i in combo], p) == 0:
            return combo
    return None


# -- criterion-03 closed form ---------------------------------------------------------

# Degree-7 factor of the certificate of a*x + b*y + c*z under coordinate
# squaring; the full product carries it in the three cyclic argument orders.
_PSI_TERMS = (
    (1, (1, 0, 6)), (1, (0, 1, 6)), (1, (2, 5, 0)), (1, (5, 2, 0)),
    (1, (5, 0, 2)), (1, (0, 5, 2)),
    (2, (5, 1, 1)), (2, (1, 5, 1)), (2, (4, 2, 1)), (2, (2, 4, 1)),
    (3, (4, 3, 0)), (3, (3, 4, 0)),
    (-4, (4, 0, 3)), (-4, (0, 4, 3)), (-4, (2, 2, 3)), (-4, (2, 1, 4)),
    (-4, (1, 2, 4)), (-4, (2, 0, 5)), (-4, (0, 2, 5)),
    (-5, (4, 1, 2)), (-5, (1, 4, 2)),
    (6, (3, 0, 4)), (6, (0, 3, 4)), (6, (3, 1, 3)), (6, (1, 3, 3)),
    (13, (3, 2, 2)), (13, (2, 3, 2)),
)


def _psi(a, b, c, p):
    return sum(k * pow(a, i, p) * pow(b, j, p) * pow(c, l, p)
               for k, (i, j, l) in _PSI_TERMS) % p


def squaring_certificate_product(a, b, c, p):
    """Factored closed form of the (0, 1, 2) certificate of the plane
    a*x + b*y + c*z under coordinate squaring, up to one universal constant."""
    sym = (a * a * b + a * b * b + a * a * c + a * c * c + b * b * c + b * c * c
           - 6 * a * b * c) % p
    out = pow(a * b * c, 8, p)
    out = out * pow((a + b) * (b + c) * (a + c) * (a + b + c), 2, p) % p
    out = out * sym % p
    for args in ((a, b, c), (b, c, a), (c, a, b)):
        out = out * _psi(*args, p) % p
    return out


def total_degree(terms):
    return max(sum(m) for m in terms) if terms else None


def proportional(terms, expected):
    """Do two {monomial: coefficient} dicts agree up to one nonzero scalar?"""
    if set(terms) != set(expected) or not terms:
        return False
    mono = next(iter(expected))
    ratio = Fraction(terms[mono]) / Fraction(expected[mono])
    return ratio != 0 and all(Fraction(terms[m]) == ratio * expected[m]
                              for m in expected)

