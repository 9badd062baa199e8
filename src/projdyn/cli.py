"""Command-line front end.

Subcommands cover the library surface: `iterate`, `orbit`, `jacobian` for
maps; `resultant`, `pushforward`, `improper-cert`, `improper-search` for
elimination work; `ys-test` for periodic critical points; `sympow`,
`period-poly`, `find-pcf` for symmetric powers and parameter searches;
`dims` for dimension and degree counts.

Conventions: `--field` picks QQ or Fp:<prime>; maps are bracketed
comma-separated form lists in the x0..xN grammar (x, y, z aliases accepted,
rational coefficients like x1/2 allowed); points are colon- or
comma-separated coordinate lists.  All randomized kernels are driven by
`--seed` (default 0), so identical invocations print identical bytes.

Exit codes: 0 success or witness found; 1 well-formed negative result;
2 usage error; 3 computational degeneracy.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence, TextIO

from .coeff import parse_field
from .dynamics import (Endomorphism, ProjectivePoint, _parse_forms, dim_end,
                       dim_forms, generic_cert_degree,
                       has_periodic_critical_point, improper_certificate,
                       jacobian, pushforward, search_improper_witness)
from .errors import DegeneracyError, ProjdynError, VerificationError
from .mpoly import _format_coeff, format_polynomial
from .resultant import macaulay_resultant
from .sympow import find_pcf_parameter, period_polynomial, symmetric_power

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def schema_text() -> str:
    """The shipped JSON schema for `--json` output, as text."""
    ref = resources.files("projdyn").joinpath("schemas/cli_output.schema.json")
    return ref.read_text(encoding="utf-8")


# -- input parsing ---------------------------------------------------------------------

def _scalar(text: str, fld):
    try:
        return fld.coerce(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"bad scalar {text!r}")


def _point_text(p: ProjectivePoint) -> str:
    return "(" + ":".join(_format_coeff(c) for c in p.coords) + ")"


def _parse_point(text: str, fld) -> ProjectivePoint:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(":") if ":" in s else s.split(",")
    return ProjectivePoint([_scalar(c, fld) for c in parts], fld)


def _split_map(text: str) -> list[str]:
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    parts = [c.strip() for c in s.split(",")]
    if not parts or any(not c for c in parts):
        raise _UsageError(f"bad map {text!r}: want [g0, g1, ...]")
    return parts


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c.strip()) for c in text.split(","))
    except ValueError:
        raise _UsageError(f"bad indices {text!r}: want i0,i1,...")


def _parse_map_and_forms(map_text: str, form_texts: Sequence[str], fld):
    """Map plus companion forms in one ring: coordinates first, parameters after."""
    comp = _split_map(map_text)
    polys = _parse_forms(comp + list(form_texts), fld, len(comp))
    return Endomorphism(polys[:len(comp)]), polys[len(comp):]


# -- subcommand handlers ---------------------------------------------------------------

def _cmd_iterate(args, fld):
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    f, _ = _parse_map_and_forms(args.map, [], fld)
    g = f.iterate(args.n)
    lines = [format_polynomial(h) for h in g.forms]
    return True, lines, {"n": g.n, "degree": g.d, "forms": lines}


def _cmd_orbit(args, fld):
    if args.bound < 1:
        raise _UsageError("--bound must be >= 1")
    f, _ = _parse_map_and_forms(args.map, [], fld)
    pt = _parse_point(args.point, fld)
    if len(pt.coords) != f.n + 1:
        raise _UsageError(f"point has {len(pt.coords)} coordinates, map needs {f.n + 1}")
    rec = f.orbit(pt, max_steps=args.bound)
    lines = [_point_text(p) for p in rec.points]
    if rec.terminated:
        lines.append(f"tail={rec.tail} period={rec.period}")
    else:
        lines.append(f"no repetition within {args.bound} steps")
    result = {"points": [[_format_coeff(c) for c in p.coords] for p in rec.points],
              "tail": rec.tail, "period": rec.period, "terminated": rec.terminated}
    return rec.terminated, lines, result


def _cmd_jacobian(args, fld):
    f, _ = _parse_map_and_forms(args.map, [], fld)
    h = jacobian(f)
    line = format_polynomial(h.poly)
    return True, [line], {"form": line, "degree": h.degree}


def _cmd_resultant(args, fld):
    texts = args.form or []
    if len(texts) < 2:
        raise _UsageError("give at least two --form arguments")
    forms = _parse_forms(texts, fld, len(texts))
    res = macaulay_resultant(forms, len(texts), strategy=args.strategy or "auto",
                             seed=args.seed)
    line = format_polynomial(res)
    degree = None if res.is_zero() else res.degree()
    return True, [line], {"value": line, "zero": res.is_zero(), "degree": degree}


def _cmd_pushforward(args, fld):
    f, forms = _parse_map_and_forms(args.map, [args.form], fld)
    h = pushforward(f, forms[0], seed=args.seed, strategy=args.strategy or "auto")
    line = format_polynomial(h.poly)
    return True, [line], {"form": line, "degree": h.degree}


def _cmd_improper_cert(args, fld):
    f, forms = _parse_map_and_forms(args.map, [args.form], fld)
    cert = improper_certificate(f, forms[0], _parse_indices(args.indices),
                                strategy=args.strategy or "auto", seed=args.seed)
    line = format_polynomial(cert)
    degree = None if cert.is_zero() else cert.degree()
    return True, [line], {"certificate": line, "zero": cert.is_zero(),
                          "degree": degree}


def _cmd_improper_search(args, fld):
    f, forms = _parse_map_and_forms(args.map, [args.form], fld)
    witness = search_improper_witness(f, forms[0], args.bound,
                                      strategy=args.strategy or "auto",
                                      seed=args.seed)
    if witness is None:
        return False, ["absent"], {"found": False, "indices": None}
    line = "(" + ",".join(str(i) for i in witness) + ")"
    return True, [line], {"found": True, "indices": list(witness)}


def _cmd_ys_test(args, fld):
    if args.s < 1:
        raise _UsageError("--s must be >= 1")
    f, _ = _parse_map_and_forms(args.map, [], fld)
    rep = has_periodic_critical_point(f, args.s)
    result = {"found": rep.found, "period": rep.period, "scope": rep.scope}
    if rep.found:
        return True, [f"period {rep.period}"], result
    return False, ["absent"], result


def _cmd_sympow(args, fld):
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    f, _ = _parse_map_and_forms(args.map, [], fld)
    big = symmetric_power(f, args.n)
    lines = [format_polynomial(h) for h in big.forms]
    return True, lines, {"n": big.n, "degree": big.d, "forms": lines}


def _cmd_period_poly(args, fld):
    poly = period_polynomial(args.d, args.s)
    coeffs = poly.to_list()
    return True, [str(coeffs)], {"d": poly.d, "s": poly.s,
                                 "degree": poly.degree, "coefficients": coeffs}


def _cmd_find_pcf(args, fld):
    c = find_pcf_parameter(args.d, args.s, fld)
    if c is None:
        return False, ["absent"], {"found": False, "parameter": None}
    text = _format_coeff(c)
    return True, [text], {"found": True, "parameter": text}


def _cmd_dims(args, fld):
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    for name in ("m", "d"):
        v = getattr(args, name)
        if v is not None and v < 1:
            raise _UsageError(f"--{name} must be >= 1")
    lines = []
    forms_dim = end_dim = cert_deg = None
    if args.m is not None:
        forms_dim = dim_forms(args.n, args.m)
        lines.append(f"dim_forms = {forms_dim}")
    if args.d is not None:
        end_dim = dim_end(args.n, args.d)
        lines.append(f"dim_end = {end_dim}")
    if args.indices is not None:
        if args.m is None or args.d is None:
            raise _UsageError("--indices needs both --m and --d")
        cert_deg = generic_cert_degree(args.n, args.m, args.d,
                                       _parse_indices(args.indices))
        lines.append(f"cert_degree = {cert_deg}")
    if not lines:
        raise _UsageError("give --m and/or --d (plus --indices for the certificate)")
    return True, lines, {"dim_forms": forms_dim, "dim_end": end_dim,
                         "cert_degree": cert_deg}


_HANDLERS = {
    "iterate": _cmd_iterate,
    "orbit": _cmd_orbit,
    "jacobian": _cmd_jacobian,
    "resultant": _cmd_resultant,
    "pushforward": _cmd_pushforward,
    "improper-cert": _cmd_improper_cert,
    "improper-search": _cmd_improper_search,
    "ys-test": _cmd_ys_test,
    "sympow": _cmd_sympow,
    "period-poly": _cmd_period_poly,
    "find-pcf": _cmd_find_pcf,
    "dims": _cmd_dims,
}


# -- argument grammar ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument grammar, built once: parsing keeps no state on the
    parser, and every parse_args call fills a fresh namespace."""
    top = _Parser(prog="projdyn",
                  description="Exact dynamics of endomorphisms of projective space.")
    sub = top.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, help_text: str, *, map_=False, form=False, forms=False,
            point=False, indices=False, bound: Optional[int] = None,
            s=False, d=False, n: Optional[int] = None, m=False, strategy=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", default="QQ", metavar="SPEC",
                       help="coefficient field: QQ (default) or Fp:<prime>")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized kernels (default 0)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if map_:
            p.add_argument("--map", required=True, metavar="FORMS",
                           help="bracketed comma-separated coordinate forms")
        if form:
            p.add_argument("--form", required=True, metavar="POLY",
                           help="hypersurface form")
        if forms:
            p.add_argument("--form", action="append", metavar="POLY",
                           help="input form (repeat the flag)")
        if point:
            p.add_argument("--point", required=True, metavar="COORDS",
                           help="colon- or comma-separated coordinates")
        if indices:
            p.add_argument("--indices", required=(name == "improper-cert"),
                           metavar="I0,I1,...", default=None,
                           help="strictly increasing iteration indices")
        if bound is not None:
            # divergent exact orbits grow doubly exponentially; keep the
            # default step budget small and make raising it a user decision
            p.add_argument("--bound", type=int, default=(bound if bound >= 0 else None),
                           required=bound < 0, metavar="B",
                           help="step budget" + (f" (default {bound})"
                                                 if bound >= 0 else ""))
        if s:
            p.add_argument("--s", type=int, required=True, metavar="S")
        if d:
            p.add_argument("--d", type=int, required=(name != "dims"),
                           default=None, metavar="D")
        if n is not None:
            p.add_argument("--n", type=int, default=(n if n >= 0 else None),
                           required=n < 0, metavar="N")
        if m:
            p.add_argument("--m", type=int, default=None, metavar="M")
        if strategy:
            p.add_argument("--strategy", choices=("ratio", "modular"), default=None,
                           help="resultant evaluation strategy (default: auto)")
        return p

    add("iterate", "compose a map with itself", map_=True, n=1)
    add("orbit", "forward orbit of a point until first repetition",
        map_=True, point=True, bound=20)
    add("jacobian", "critical locus form of a map", map_=True)
    add("resultant", "eliminate the variables from a square system",
        forms=True, strategy=True)
    add("pushforward", "defining form of the image of a hypersurface",
        map_=True, form=True, strategy=True)
    add("improper-cert", "resultant of iterated images at chosen indices",
        map_=True, form=True, indices=True, strategy=True)
    add("improper-search", "least index tuple with vanishing certificate",
        map_=True, form=True, bound=-1, strategy=True)
    add("ys-test", "search for a periodic critical point up to a period bound",
        map_=True, s=True)
    add("sympow", "induced self-map on root sets of binary forms",
        map_=True, n=-1)
    add("period-poly", "parameter polynomial for a periodic origin", d=True, s=True)
    add("find-pcf", "field parameter making the critical orbit periodic",
        d=True, s=True)
    add("dims", "dimension and certificate-degree counts",
        n=-1, m=True, d=True, indices=True)
    return top


# -- driver ------------------------------------------------------------------------------

def _describe(e: Exception) -> str:
    if isinstance(e, DegeneracyError):
        text = f"degeneracy [{e.code}]"
        return f"{text} {e.detail}".strip()
    return str(e) or type(e).__name__


def run(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Parse argv, execute one subcommand, write output, return the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fld = parse_field(args.field)
        ok, lines, result = _HANDLERS[args.command](args, fld)
    except _UsageError as e:
        print(f"error: {e}", file=err)
        return 2
    except SystemExit as e:  # argparse --help
        code = e.code
        return int(code) if isinstance(code, int) else 0
    except (DegeneracyError, VerificationError) as e:
        print(f"error: {_describe(e)}", file=err)
        return 3
    except ProjdynError as e:
        print(f"error: {e}", file=err)
        return 2
    except ZeroDivisionError as e:
        print(f"error: {e}", file=err)
        return 2
    if args.json:
        payload = {"command": args.command, "field": fld.spec(),
                   "seed": args.seed, "ok": ok, "result": result}
        print(json.dumps(payload, indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
