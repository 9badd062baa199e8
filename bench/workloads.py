"""Seeded workloads: task lists for the library and the CLI, and their checks.

Each workload is built from a seed alone; the program only sees the
generated inputs.  A task is one top-level library call or one in-process
CLI invocation, preceded by constructing its (cheap) input objects, so no
result cached on a map object carries over from one pass to the next.
Expected answers come from ``oracle``, which shares no code with projdyn.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from random import Random
from typing import Callable

import oracle
from projdyn import (DEFAULT_MODULAR_PRIME, GF, QQ, Endomorphism, Polynomial,
                     Ring, find_pcf_parameter, has_periodic_critical_point,
                     improper_certificate, pushforward, pushforward_iterated)


@dataclass
class Raised:
    """Outcome of a task whose call raised."""
    error: BaseException


@dataclass
class Task:
    label: str
    call: Callable[[], object]

    def run(self):
        try:
            return self.call()
        except Exception as e:  # a failed task is counted; the run goes on
            return Raised(e)


@dataclass
class Workload:
    tasks: list[Task]
    # outcomes of one pass -> one verdict per task
    check: Callable[[list], list[bool]]
    # whether run.py rescales task times by the machine's speed
    rescale: bool = True


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    builders = {
        "plane-image-symbolic": _plane,
        "certificate-sweep-62bit": _sweep,
        "line-critical-orbits": _line,
        "cli-queries": _cli,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    return builders[name](seed, tiny)


def _field(p):
    return GF(p) if p else QQ


# -- plane-image-symbolic ---------------------------------------------------------------

# Pushforward of a*x + b*y + c*z under coordinate squaring and of its second
# iterate; exponents run over (x, y, z, a, b, c).  Every parameter exponent
# is even, so a sign pattern on the plane's coefficients leaves both unchanged.
PLANE_IMAGE_TERMS = {
    (2, 0, 0, 4, 0, 0): 1, (0, 2, 0, 0, 4, 0): 1, (0, 0, 2, 0, 0, 4): 1,
    (1, 1, 0, 2, 2, 0): -2, (1, 0, 1, 2, 0, 2): -2, (0, 1, 1, 0, 2, 2): -2,
}
PLANE_IMAGE2_TERMS = {
    (4, 0, 0, 16, 0, 0): 1, (0, 4, 0, 0, 16, 0): 1, (0, 0, 4, 0, 0, 16): 1,
    (3, 1, 0, 12, 4, 0): -4, (3, 0, 1, 12, 0, 4): -4, (1, 3, 0, 4, 12, 0): -4,
    (0, 3, 1, 0, 12, 4): -4, (1, 0, 3, 4, 0, 12): -4, (0, 1, 3, 0, 4, 12): -4,
    (2, 2, 0, 8, 8, 0): 6, (0, 2, 2, 0, 8, 8): 6, (2, 0, 2, 8, 0, 8): 6,
    (2, 1, 1, 8, 4, 4): -124, (1, 2, 1, 4, 8, 4): -124,
    (1, 1, 2, 4, 4, 8): -124,
}
CERT_DEGREE = 56  # generic certificate degree for n=2, m=1, d=2, indices (0,1,2)


def _plane(seed, tiny):
    signs = tuple(Random(seed).choice((1, -1)) for _ in range(3))

    def inputs():
        ring = Ring(6, QQ)
        zero = (0, 0, 0)
        f = Endomorphism([Polynomial(ring, {mono + zero: QQ.one()})
                          for mono in ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
        phi = Polynomial(ring, {(1, 0, 0, 1, 0, 0): QQ.coerce(signs[0]),
                                (0, 1, 0, 0, 1, 0): QQ.coerce(signs[1]),
                                (0, 0, 1, 0, 0, 1): QQ.coerce(signs[2])})
        return f, phi

    tasks = [
        Task("pushforward", lambda: pushforward(*inputs())),
        Task("iterate2-direct",
             lambda: pushforward_iterated(*inputs(), 2, mode="direct")),
        Task("iterate2-steps",
             lambda: pushforward_iterated(*inputs(), 2, mode="steps")),
        Task("certificate",
             lambda: improper_certificate(*inputs(), (0, 1, 2), strategy="modular")),
    ]
    if tiny:
        tasks = [tasks[0], tasks[3]]
    expected = {"pushforward": PLANE_IMAGE_TERMS,
                "iterate2-direct": PLANE_IMAGE2_TERMS,
                "iterate2-steps": PLANE_IMAGE2_TERMS}

    def check(outcomes):
        verdicts = []
        for task, out in zip(tasks, outcomes):
            if isinstance(out, Raised):
                verdicts.append(False)
            elif task.label == "certificate":
                verdicts.append(oracle.total_degree(out.terms) == CERT_DEGREE)
            else:
                verdicts.append(oracle.proportional(out.poly.terms,
                                                    expected[task.label]))
        return verdicts

    # Not rescaled: these tasks run for seconds, through many of the
    # machine's speed spells, and a speed sampled after a task did not
    # match it.
    return Workload(tasks, check, rescale=False)


# -- certificate-sweep-62bit -----------------------------------------------------------

def _sweep(seed, tiny):
    p = DEFAULT_MODULAR_PRIME
    rng = Random(seed)
    planes = []
    for _ in range(1 if tiny else 2):
        planted = rng.randrange(10)
        for k in range(10):
            a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
            c = (-a - b) % p if k == planted else rng.randint(1, p - 1)
            while c == 0:  # keep z in the plane
                a = rng.randint(1, p - 1)
                c = (-a - b) % p
            planes.append((a, b, c))

    def task(a, b, c):
        def call():
            fld = GF(p)
            ring = Ring(3, fld)
            f = Endomorphism([Polynomial(ring, {mono: fld.one()})
                              for mono in ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
            phi = Polynomial(ring, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
            return improper_certificate(f, phi, (0, 1, 2)).constant_value()
        return Task("certificate", call)

    tasks = [task(*abc) for abc in planes]
    products = []

    def check(outcomes):
        if not products:
            products.extend(oracle.squaring_certificate_product(a, b, c, p)
                            for a, b, c in planes)
        ratios = [None] * len(outcomes)
        verdicts = [not isinstance(out, Raised) for out in outcomes]
        for i, (out, prod) in enumerate(zip(outcomes, products)):
            if not verdicts[i]:
                continue
            if prod == 0:
                verdicts[i] = out == 0
            else:
                ratios[i] = out * pow(prod, p - 2, p) % p
        # the closed form holds up to one universal constant: the ratio every
        # nonvanishing product shares
        seen = [r for r in ratios if r is not None]
        shared = max(set(seen), key=seen.count) if seen else None
        return [ok and (r is None or (r == shared and r != 0))
                for ok, r in zip(verdicts, ratios)]

    return Workload(tasks, check)


# -- line-critical-orbits --------------------------------------------------------------

# (degree, period bound): Sylvester matrices of order 35 and 32, so a
# decision takes well under a second and a run holds hundreds of them
LINE_BOUNDS = ((2, 5), (3, 3))
LINE_FIELDS = (None, 7, 101)
PCF_CASES = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))


def _random_line_map(rng, d, p):
    def coeff():
        return rng.randrange(p) if p else rng.randint(-5, 5)
    return [[coeff() for _ in range(d + 1)] for _ in range(2)]


def _usable(f, p):
    """A morphism of exact degree with a nonzero Jacobian form."""
    return (all(any(c) for c in f) and oracle.is_morphism(f, p)
            and any(oracle.jacobian(f, p)))


def _planted_cycle_map(rng, d, p):
    """A conjugate of z -> 1 - z^(-d): both critical points on a 3-cycle."""
    base = [[-1] + [0] * (d - 1) + [1], [0] * d + [1]]  # (x^d - y^d, x^d)
    while True:
        # entries of fixed sizes, so the map's coefficients, and the work to
        # decide it, are alike for every seed
        a, b, c, e = (rng.choice((1, -1)) * m for m in rng.sample((1, 1, 1, 2), 4))
        det = a * e - b * c
        if det == 0 or (p and det % p == 0):
            continue
        # f o A with A(u:v) = (a u + b v : c u + e v), then A^-1 via adj(A)
        g = oracle.compose(base, [[b, a], [e, c]], p)
        h = [[e * s - b * t for s, t in zip(*g)],
             [-c * s + a * t for s, t in zip(*g)]]
        if p:
            h = [[v % p for v in comp] for comp in h]
        if _usable(h, p) and oracle.least_critical_period(h, 3, p) == 3:
            return h


def _line_maps(rng, tiny):
    """(field prime or None, degree, period bound, map) for each decision.

    Per field and degree: maps without a periodic critical point up to the
    bound, which run every period, and one map whose least critical period
    is 3, so each seed asks for the same amount of work.
    """
    out = []
    for p in LINE_FIELDS:
        for d, bound in LINE_BOUNDS[:1] if tiny else LINE_BOUNDS:
            for _ in range(1 if tiny else 4):
                while True:
                    f = _random_line_map(rng, d, p)
                    if (_usable(f, p)
                            and oracle.least_critical_period(f, bound, p) is None):
                        break
                out.append((p, d, bound, f))
            out.append((p, d, bound, _planted_cycle_map(rng, d, p)))
    return out


def _line_endomorphism(f, p):
    fld = _field(p)
    ring = Ring(2, fld)
    return Endomorphism([
        Polynomial(ring, {(i, len(c) - 1 - i): fld.coerce(v)
                          for i, v in enumerate(c) if v}) for c in f])


def _line(seed, tiny):
    rng = Random(seed)
    decisions = _line_maps(rng, tiny)
    pcf = []
    for _ in range(1 if tiny else 4):
        d, s = rng.choice(PCF_CASES)
        pcf.append((d, s, rng.choice((None, 7, 11, 13, 101))))

    def decide(p, f, bound):
        return lambda: has_periodic_critical_point(_line_endomorphism(f, p), bound)

    def search(d, s, p):
        return lambda: find_pcf_parameter(d, s, _field(p))

    tasks = [Task("periodic-critical", decide(p, f, bound))
             for p, _, bound, f in decisions]
    tasks += [Task("find-pcf", search(*case)) for case in pcf]
    expected = []

    def check(outcomes):
        if not expected:
            for p, _, bound, f in decisions:
                period = oracle.least_critical_period(f, bound, p)
                brute = oracle.split_critical_periods(f, p) if p else "nonsplit"
                if brute != "nonsplit" and period != (
                        brute if brute is not None and brute <= bound else None):
                    period = "brute force and gcd oracles disagree"  # fails the task
                expected.append(period)
            expected.extend(oracle.pcf_parameters(d, s, p) for d, s, p in pcf)
        verdicts = []
        for i, out in enumerate(outcomes):
            if isinstance(out, Raised):
                verdicts.append(False)
            elif i < len(decisions):
                verdicts.append(out.found == (expected[i] is not None)
                                and out.period == expected[i])
            else:
                verdicts.append(out in expected[i] if out is not None
                                else not expected[i])
        return verdicts

    return Workload(tasks, check)


# -- cli-queries ------------------------------------------------------------------------

def _form_text(c):
    """A binary form in x, y as CLI text, highest power of x first."""
    d = len(c) - 1
    terms = []
    for i in range(d, -1, -1):
        if c[i]:
            mono = "*".join(n if e == 1 else f"{n}^{e}"
                            for n, e in (("x", i), ("y", d - i)) if e)
            terms.append(f"{c[i]}*{mono}")
    return "+".join(terms).replace("+-", "-")


def _map_text(f):
    return "[" + ", ".join(_form_text(c) for c in f) + "]"


def _nonzero(rng, p, low=-5, high=5):
    while True:
        v = rng.randint(low, high)
        if v and not (p and v % p == 0):
            return v


class _Queries:
    """Distinct CLI queries with their expected exit codes."""

    def __init__(self, rng):
        self.rng = rng
        self.items: list[tuple[list[str], Callable[[], int]]] = []

    def add(self, argv, p=None, expect=lambda: 0):
        argv = list(argv)
        if p:
            argv += ["--field", f"Fp:{p}"]
        if len(self.items) % 2:
            argv.append("--json")
        self.items.append((argv, expect))

    def line_map(self, d, p):
        while True:
            f = _random_line_map(self.rng, d, p)
            if _usable(f, p):
                return f

    def squares(self, p):
        return [_nonzero(self.rng, p) for _ in range(3)]


def _squares_text(s):
    return f"[{s[0]}*x^2, {s[1]}*y^2, {s[2]}*z^2]"


def _plane_text(c):
    return f"{c[0]}*x+{c[1]}*y+{c[2]}*z".replace("+-", "-")


def _cli_queries(rng, tiny):
    """Distinct queries per subcommand.  The mix of shapes, fields and
    output modes is fixed by position; the seed draws the coefficients."""
    q = _Queries(rng)

    def each(n):
        return range(1 if tiny else n)

    def pick(options, i):
        return options[i % len(options)]

    small = (7, 11, 13, 101)
    for i in each(12):
        p = pick((None, 101), i)
        if i % 4 == 3:
            q.add(["iterate", "--map", _squares_text(q.squares(p)), "--n", "2"], p)
        else:
            q.add(["iterate", "--map", _map_text(q.line_map(2, p)),
                   "--n", str(pick((2, 3), i // 2))], p)
    for i in each(12):
        if i % 3 == 2:  # rational orbits: a conjugated 3-cycle or a random map
            f = _planted_cycle_map(rng, 2, None) if i % 2 else q.line_map(2, None)
            point = (rng.randint(-3, 3), rng.randint(1, 3))
            steps, p = 4, None
        else:
            p = pick(small, i)
            f = q.line_map(pick((2, 3), i // 3), p)
            point = (rng.randrange(p), 1)
            steps = p + 2
        q.add(["orbit", "--map", _map_text(f), f"--point={point[0]},{point[1]}",
               "--bound", str(steps)], p,
              _orbit_code(oracle.binary_to_monomials(f), point, steps, p))
    for i in each(10):
        p = pick((None, 101), i)
        text = _squares_text(q.squares(p)) if i % 5 >= 3 \
            else _map_text(q.line_map(pick((2, 3), i // 2), p))
        q.add(["jacobian", "--map", text], p)
    for i in each(12):
        p = pick((None, 101, 10007), i)
        if i % 4 == 3:
            forms = [_plane_text([_nonzero(rng, p) for _ in range(3)]),
                     f"{_nonzero(rng, p)}*x^2+{_nonzero(rng, p)}*y*z",
                     f"{_nonzero(rng, p)}*y^2+{_nonzero(rng, p)}*x*z"
                     f"+{_nonzero(rng, p)}*z^2"]
        else:
            forms = [_form_text([rng.randint(-5, 5) for _ in range(k)]
                               + [_nonzero(rng, p)])
                     for k in (pick((1, 2, 3), i), pick((3, 2, 1), i // 3))]
        forms = [t.replace("+-", "-") for t in forms]
        q.add(["resultant"] + [f"--form={t}" for t in forms], p)
    for i in each(12):
        p = pick((None, 10007), i)
        if i % 4 < 2:
            q.add(["pushforward", "--map", _map_text(q.line_map(2, p)),
                   f"--form={_form_text([_nonzero(rng, p), _nonzero(rng, p)])}"], p)
        else:
            plane = [_nonzero(rng, p) for _ in range(3)]
            q.add(["pushforward", "--map", _squares_text(q.squares(p)),
                   f"--form={_plane_text(plane)}"], p)
    for i in each(8):
        p = pick((None, 1000003), i)
        plane = [_nonzero(rng, p) for _ in range(3)]
        q.add(["improper-cert", "--map", _squares_text(q.squares(p)),
               f"--form={_plane_text(plane)}", "--indices", "0,1,2"], p)
    for i in each(10):
        p = pick((None, 101), i)
        plane = [_nonzero(rng, p, 1, 5) for _ in range(3)]
        scales = [_nonzero(rng, p, -3, 3) for _ in range(2)]
        bound = 3
        q.add(["improper-search", "--map", f"[x, {scales[0]}*y, {scales[1]}*z]",
               f"--form={_plane_text(plane)}", "--bound", str(bound)], p,
              _search_code(plane, scales, bound, p))
    for i in each(12):
        p = pick((None, 7, 101), i)
        d = pick((2, 3), i // 3)
        s = pick((2, 3, 4), i // 2) if d == 2 else pick((2, 3), i // 2)
        f = _planted_cycle_map(rng, d, p) if i % 4 == 3 else q.line_map(d, p)
        q.add(["ys-test", "--map", _map_text(f), "--s", str(s)], p,
              _ys_code(f, s, p))
    for i in each(10):
        p = pick((None, 101), i)
        q.add(["sympow", "--map", _map_text(q.line_map(2, p)),
               "--n", str(pick((2, 3), i // 2))], p)
    for i in each(8):
        q.add(["period-poly", "--d", str(pick((2, 3), i)),
               "--s", str(pick((2, 3, 4), i // 2))])
    for i in each(8):
        d, s = pick(PCF_CASES, i)
        p = pick((None,) + small, i)
        q.add(["find-pcf", "--d", str(d), "--s", str(s)], p, _pcf_code(d, s, p))
    for i in each(8):
        n = pick((1, 2), i)
        argv = ["dims", "--n", str(n), "--m", str(rng.randint(1, 3)),
                "--d", str(rng.randint(2, 3))]
        if i % 4 >= 2:
            argv += ["--indices", ",".join(str(k) for k in range(n + 1))]
        q.add(argv)
    return q.items


def _orbit_code(forms, point, steps, p):
    return lambda: 0 if oracle.orbit_terminates(forms, point, steps, p) else 1


def _search_code(plane, scales, bound, p):
    return lambda: 0 if oracle.improper_witness(plane, scales, bound, p) else 1


def _ys_code(f, s, p):
    return lambda: 0 if oracle.least_critical_period(f, s, p) else 1


def _pcf_code(d, s, p):
    return lambda: 0 if oracle.pcf_parameters(d, s, p) else 1


def _cli(seed, tiny):
    # Imported here rather than at the top, so that the library workloads'
    # set-up and memory leave out the CLI module.  A module global, so the
    # tracer can wrap it.
    global cli_run
    from projdyn.cli import run as cli_run
    rng = Random(seed)
    distinct = _cli_queries(rng, tiny)
    # every query runs twice per pass, in two seeded orders: identical
    # invocations must print identical bytes
    order = list(range(len(distinct))) + rng.sample(range(len(distinct)),
                                                    len(distinct))

    def invoke(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(argv, out, err)
            return code, out.getvalue(), err.getvalue()
        return call

    tasks = [Task(distinct[i][0][0], invoke(distinct[i][0])) for i in order]
    codes = {}
    first_output = {}
    validator = []

    def check(outcomes):
        if not validator:
            import jsonschema
            from projdyn.cli import schema_text
            validator.append(jsonschema.Draft202012Validator(
                json.loads(schema_text())))
        verdicts = []
        for i, out in zip(order, outcomes):
            if isinstance(out, Raised):
                verdicts.append(False)
                continue
            argv, expect = distinct[i]
            if i not in codes:
                codes[i] = expect()
            code, text, err = out
            ok = code == codes[i] and not err
            if ok and "--json" in argv:
                try:
                    payload = json.loads(text)
                except ValueError:
                    payload = None
                ok = (validator[0].is_valid(payload)
                      and payload["ok"] == (code == 0)
                      and payload["command"] == argv[0])
            ok = ok and first_output.setdefault(i, text) == text
            verdicts.append(ok)
        return verdicts

    return Workload(tasks, check)
