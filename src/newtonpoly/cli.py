"""Command line surface.

One verb per concept: polygon arithmetic, polyhedron volumes, series
resultants, Puiseux expansion, curve invariants, and the verification
suites.  Machine-readable output with --json, human text otherwise; domain
errors exit 1 with the error class name on stderr, parse errors and usage
errors (such as a wrong number of operands) exit 2.  Every integer of the
command line, argparse's included, is read by polygon.ascii_int.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import polygon as pg
from . import polyhedra as ph
from .product import product
from .errors import DomainError
from .invariants import (
    JacobianPolygon,
    briancon_speder_polygons,
    dual_degree,
    invariants_from_polygon,
    jacobian_polygon_direct,
    merle_polygon,
    milnor_number,
    semigroup_from_polygon,
    validate_semigroup,
)
from .puiseux import puiseux_expand
from .render import render_ascii, render_svg
from .series import (
    format_polynomial,
    format_series,
    intersection_number,
    newton_polygon_of,
    parse_polynomial,
    shifted_resultant,
    sylvester_resultant,
)
from .verify import DEFAULT_SEED, SUITES, run_suite

PRECISION_ENV = "NEWTONPOLY_PRECISION"


class UsageError(Exception):
    """A command given the wrong number of operands or a missing option."""


def _operands(args, fewest, most=None, stand_in=None):
    """The operands of a command, after checking their count.

    The value of the option ``stand_in``, when given, counts as the first
    operand.  Fewer than ``fewest`` or more than ``most`` (no bound when
    None) raise UsageError.
    """
    values = list(args.operands)
    flag = getattr(args, stand_in) if stand_in else None
    if flag is not None:
        values.insert(0, str(flag))
    if fewest <= len(values) and (most is None or len(values) <= most):
        return values
    if most is None:
        want = f"at least {fewest}"
    else:
        want = str(fewest) if most == fewest else f"{fewest} to {most}"
    counted = f" counting --{stand_in}" if flag is not None else ""
    raise UsageError(
        f"{args.command} {args.op} takes {want} operand(s){counted}, got {len(values)}"
    )


def _parse_polygon_arg(text: str) -> pg.NewtonPolygon:
    text = text.strip()
    if text.startswith("{") and '"' in text:
        return pg.loads(text)
    return pg.parse_compact(text)


def _polygon_out(p: pg.NewtonPolygon, args) -> str:
    if args.json:
        return pg.dumps(p)
    try:
        return pg.format_compact(p)
    except ValueError:
        return pg.dumps(p)


def _parse_semigroup_arg(text: str):
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError("semigroup format is <b0,b1,...>")
    try:
        generators = [pg.ascii_int(v, signed=False) for v in text[1:-1].split(",")]
    except ValueError:
        raise ValueError(f"semigroup entries must be ASCII digits, got {text!r}") from None
    return validate_semigroup(generators)


def _parse_pairs_arg(text: str) -> JacobianPolygon:
    poly = pg.parse_compact(text)
    return JacobianPolygon(tuple((e.ell, e.h) for e in poly.edges))


def _default_precision(args):
    """--precision, else $NEWTONPOLY_PRECISION, else None (automatic); a
    value below 1 raises ValueError."""
    precision = args.precision
    if precision is None:
        env = os.environ.get(PRECISION_ENV)
        if not env:
            return None
        precision = pg.ascii_int(env)
    if precision < 1:
        raise ValueError(f"precision must be a positive integer, got {precision}")
    return precision


def _report_payload(j: JacobianPolygon) -> dict:
    rep = invariants_from_polygon(j)
    return {"polygon": pg.to_json_dict(j.view), "pairs": list(j.pairs), "report": rep.to_json_dict()}


def _print_report(j: JacobianPolygon, args):
    if args.json:
        print(json.dumps(_report_payload(j)))
        return
    rep = invariants_from_polygon(j)
    print(f"polygon          {j}")
    print(f"mu^(n)           {rep.mu_n}")
    print(f"mu^(n-1)         {rep.mu_n1}")
    print(f"class diminution {rep.class_diminution}")
    print(f"theta1           {rep.theta1}")
    print(f"theta2           {rep.theta2}")
    print(f"determinacy      {rep.determinacy}")
    print(f"2*delta bracket  ({rep.delta_lower}, {rep.delta_upper}]")
    print(f"A_k type         {'yes' if rep.is_Ak else 'no'}")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_polygon(args):
    if args.op == "sum":
        first, *rest = _operands(args, 1)
        p = _parse_polygon_arg(first)
        for other in rest:
            p = pg.polygon_sum(p, _parse_polygon_arg(other))
        print(_polygon_out(p, args))
    elif args.op == "product":
        first, *rest = _operands(args, 1)
        p = _parse_polygon_arg(first)
        for other in rest:
            p = product(p, _parse_polygon_arg(other))
        print(_polygon_out(p, args))
    elif args.op == "decompose":
        (text,) = _operands(args, 1, 1)
        p = _parse_polygon_arg(text)
        parts = pg.canonical_decomposition(p)
        if args.json:
            print(json.dumps([{"l": e.ell, "h": e.h} for e in parts]))
        else:
            print(" ".join(repr(e) for e in parts))
    elif args.op == "dominates":
        p, q = (_parse_polygon_arg(t) for t in _operands(args, 2, 2))
        result = pg.dominates(p, q)
        print(json.dumps(result) if args.json else ("yes" if result else "no"))
    elif args.op == "render":
        polys = [_parse_polygon_arg(t) for t in _operands(args, 1)]
        if args.format == "svg":
            sys.stdout.write(render_svg(polys, shade_between=len(polys) == 2))
        else:
            for p in polys:
                sys.stdout.write(render_ascii(p))
    return 0


def _cmd_polyhedron(args):
    if args.op == "covolume":
        (text,) = _operands(args, 1, 1)
        n = ph.NewtonPolyhedron.from_json_dict(json.loads(text))
        v = ph.covolume(n)
        print(json.dumps(str(v)) if args.json else str(v))
    elif args.op == "mixed":
        if not args.alpha:
            raise UsageError("polyhedron mixed requires --alpha, e.g. --alpha 1,1")
        ns = [ph.NewtonPolyhedron.from_json_dict(json.loads(t)) for t in _operands(args, 1)]
        alpha = ph.MixedVolumeIndex(tuple(pg.ascii_int(a) for a in args.alpha.split(",")))
        v = ph.mixed_covolume(ns, alpha)
        print(json.dumps(str(v)) if args.json else str(v))
    elif args.op == "multiplicity":
        (text,) = _operands(args, 1, 1)
        n = ph.NewtonPolyhedron.from_json_dict(json.loads(text))
        e = ph.monomial_multiplicity(n)
        print(json.dumps(e) if args.json else str(e))
    return 0


def _cmd_series(args):
    if args.op == "polygon":
        (text,) = _operands(args, 1, 1)
        print(_polygon_out(newton_polygon_of(parse_polynomial(text)), args))
        return 0
    f1, f2 = (parse_polynomial(t) for t in _operands(args, 2, 2))
    if args.op == "resultant":
        r = sylvester_resultant(f1, f2)
        print(json.dumps(format_series(r)) if args.json else format_series(r))
    elif args.op == "shifted-resultant":
        r = shifted_resultant(f1, f2)
        print(json.dumps(format_polynomial(r)) if args.json else format_polynomial(r))
    elif args.op == "intersect":
        n = intersection_number(f1, f2)
        print(json.dumps(n) if args.json else str(n))
    return 0


def _cmd_puiseux(args):
    f = parse_polynomial(args.polynomial)
    branches = puiseux_expand(f, t_precision=_default_precision(args))
    if args.json:
        print(json.dumps([repr(b) for b in branches]))
    else:
        for b in branches:
            print(repr(b))
    return 0


def _cmd_curve(args):
    if args.op == "merle":
        (text,) = _operands(args, 1, 1)
        s = _parse_semigroup_arg(text)
        j = merle_polygon(s)
        if args.report:
            _print_report(j, args)
        else:
            print(json.dumps(_report_payload(j)["polygon"]) if args.json else repr(j))
    elif args.op == "invert":
        (text,) = _operands(args, 1, 1)
        j = _parse_pairs_arg(text)
        s = semigroup_from_polygon(j)
        print(json.dumps(list(s.generators)) if args.json else repr(s))
    elif args.op == "jacobian":
        (text,) = _operands(args, 1, 1)
        f = parse_polynomial(text)
        j = jacobian_polygon_direct(f)
        if args.report:
            _print_report(j, args)
        else:
            print(json.dumps(_report_payload(j)["polygon"]) if args.json else repr(j))
    elif args.op == "invariants":
        (text,) = _operands(args, 1, 1)
        j = _parse_pairs_arg(text)
        _print_report(j, args)
    elif args.op == "dual-degree":
        degree, *dim = (pg.ascii_int(v) for v in _operands(args, 1, 2, stand_in="degree"))
        dim = dim[0] if dim else args.dimension
        sings = []
        if args.singularities:
            for chunk in args.singularities.split(";"):
                try:
                    mu_n, mu_n1 = (pg.ascii_int(v) for v in chunk.split(","))
                except ValueError:
                    raise ValueError(
                        f"singularity {chunk!r} is not of the form mu_n,mu_n1") from None
                sings.append((mu_n, mu_n1))
        v = dual_degree(degree, dim, sings)
        print(json.dumps(v) if args.json else str(v))
    elif args.op == "milnor":
        (text,) = _operands(args, 1, 1)
        print(milnor_number(parse_polynomial(text)))
    elif args.op == "bs-example":
        special, generic = briancon_speder_polygons(
            pg.ascii_int(*_operands(args, 1, 1, stand_in="beta")))
        if args.json:
            print(json.dumps({
                "special": pg.to_json_dict(special.view),
                "generic": pg.to_json_dict(generic.view),
                "dominates": pg.dominates(special.view, generic.view),
            }))
        else:
            print(f"special fibre: {special}")
            print(f"generic fibre: {generic}")
            print(f"lengths: {special.length()} = {generic.length()};"
                  f" heights: {special.height()} vs {generic.height()}")
            dom = pg.dominates(special.view, generic.view)
            print(f"special dominates generic: {'yes' if dom else 'no'}")
    return 0


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        results = run_suite(name, seed=args.seed)
        for r in results:
            print(f"{name}: {r.line()}")
            failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtonpoly",
        description="Newton polygon arithmetic, Puiseux expansion and jacobian polygon invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_polygon = sub.add_parser("polygon", help="polygon monoid arithmetic")
    p_polygon.add_argument("op", choices=["sum", "product", "decompose", "dominates", "render"])
    p_polygon.add_argument("operands", nargs="+",
                           help="polygons as JSON or compact {l/h}+... notation")
    p_polygon.add_argument("--json", action="store_true")
    p_polygon.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p_polygon.set_defaults(func=_cmd_polygon)

    p_poly = sub.add_parser("polyhedron", help="d-dimensional covolume computations")
    p_poly.add_argument("op", choices=["covolume", "mixed", "multiplicity"])
    p_poly.add_argument("operands", nargs="+", help='polyhedra as {"dim": d, "generators": [...]}')
    p_poly.add_argument("--alpha", default="", help="mixed volume index, e.g. 1,1")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(func=_cmd_polyhedron)

    p_series = sub.add_parser("series", help="series and resultant algebra")
    p_series.add_argument("op", choices=["polygon", "resultant", "shifted-resultant", "intersect"])
    p_series.add_argument("operands", nargs="+", help="polynomials in the sparse text format")
    p_series.add_argument("--json", action="store_true")
    p_series.set_defaults(func=_cmd_series)

    p_puiseux = sub.add_parser("puiseux", help="Newton-Puiseux expansion")
    puiseux_sub = p_puiseux.add_subparsers(dest="op", required=True)
    p_expand = puiseux_sub.add_parser("expand")
    p_expand.add_argument("polynomial")
    p_expand.add_argument("--precision", type=pg.ascii_int, default=None,
                          help=f"t-precision target (default: automatic, or ${PRECISION_ENV})")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=_cmd_puiseux)

    p_curve = sub.add_parser("curve", help="jacobian polygons and invariants")
    p_curve.add_argument("op", choices=["merle", "invert", "jacobian", "invariants",
                                        "dual-degree", "milnor", "bs-example"])
    p_curve.add_argument("operands", nargs="*")
    p_curve.add_argument("--report", action="store_true", help="print the invariant bundle")
    p_curve.add_argument("--seed", type=pg.ascii_int, default=DEFAULT_SEED,
                         help="accepted and ignored: no curve computation draws a random number")
    p_curve.add_argument("--json", action="store_true")
    p_curve.add_argument("--degree", type=pg.ascii_int, help="projective degree d for dual-degree")
    p_curve.add_argument("--dimension", type=pg.ascii_int, default=2,
                         help="ambient n for dual-degree")
    p_curve.add_argument("--singularities", default="",
                         help="dual-degree singularity list 'mu_n,mu_n1;...'")
    p_curve.add_argument("--beta", type=pg.ascii_int, help="family parameter for bs-example")
    p_curve.set_defaults(func=_cmd_curve)

    p_verify = sub.add_parser("verify", help="run the acceptance suites")
    p_verify.add_argument("suite", choices=["all"] + list(SUITES))
    p_verify.add_argument("--seed", type=pg.ascii_int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    # argparse binds curve's optional operand list (nargs="*") before it reads
    # the options, so operands written after an option are left over here
    if extras and args.command == "curve" and not any(x.startswith("-") for x in extras):
        args.operands += extras
    elif extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
