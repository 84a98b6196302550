"""Command-line front end with a stable JSON output format.

Every successful invocation prints exactly one JSON document on stdout.
Domain errors (bad latitude, unsupported integrand, conversion poles, and
the like) are serialized as ``{"error": ...}`` with exit code 1; usage
errors exit 2 with diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import IO, Optional, Sequence

from .conics import (
    ConicParameter,
    ParameterKind,
    circle_from_B,
    circle_from_D,
    enumerate_primitive_triples,
    hyperbola_from_Pplus,
    param_convert,
)
from .engine import integrate_trig
from .errors import SecintError
from .mercator import GeoPoint, mercator_y_numeric, project
from .parse import parse_trig
from .render import format_antiderivative
from .substitution import SubstitutionName
from .trig import verify_log_derivative

_CURVES = {
    "circle-b": circle_from_B,
    "circle-d": circle_from_D,
    "hyperbola": hyperbola_from_Pplus,
}


def _cmd_integrate(args):
    report = integrate_trig(parse_trig(args.expr), method=args.method)
    return {
        "input": report.input,
        "method": report.method.value,
        "antiderivative": format_antiderivative(report.antiderivative),
        "failures": [
            {"method": name, "reason": reason} for name, reason in report.failures
        ],
    }


def _cmd_verify_logderiv(args):
    f = parse_trig(args.f_expr)
    u = parse_trig(args.u_expr)
    return {
        "f": str(f),
        "u": str(u),
        "is_log_derivative": verify_log_derivative(f, u),
    }


def _cmd_param(args):
    point = _CURVES[args.curve](args.value)
    return {
        "curve": args.curve,
        "parameter": str(args.value),
        "x": str(point.x),
        "y": str(point.y),
    }


def _cmd_triples(args):
    return [list(tr.as_tuple()) for tr in enumerate_primitive_triples(args.max_hypotenuse)]


def _cmd_convert(args):
    source = ConicParameter(ParameterKind(args.from_kind), args.value)
    result = param_convert(source, args.to)
    return {
        "from": args.from_kind,
        "to": result.kind.value,
        "input": str(args.value),
        "value": str(result.value),
    }


def _cmd_mercator(args):
    if args.numeric:
        return {"x": args.lon, "y": mercator_y_numeric(args.lat, args.tol)}
    point = project(GeoPoint(args.lon, args.lat))
    return {"x": point.x, "y": point.y}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secint",
        description="Exact symbolic integration of cos/sin rational "
        "expressions, rational points on conics, and the Mercator ordinate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate a cos/sin rational expression")
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto"] + [name.value for name in SubstitutionName],
        help="substitution to use (default: try all and keep the simplest)",
    )
    p.add_argument("expr", metavar="EXPR", help="expression such as 'sec(x)'")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser(
        "verify-logderiv", help="check symbolically that f = u'/u"
    )
    p.add_argument("f_expr", metavar="F_EXPR")
    p.add_argument("u_expr", metavar="U_EXPR")
    p.set_defaults(handler=_cmd_verify_logderiv)

    p = sub.add_parser("param", help="rational point on a conic from a parameter")
    p.add_argument("--curve", required=True, choices=sorted(_CURVES))
    p.add_argument("--value", required=True, type=Fraction, metavar="P/Q")
    p.set_defaults(handler=_cmd_param)

    p = sub.add_parser("triples", help="primitive Pythagorean triples")
    p.add_argument("--max-hypotenuse", required=True, type=int, metavar="N")
    p.set_defaults(handler=_cmd_triples)

    p = sub.add_parser("convert", help="convert between conic parameters")
    kinds = [kind.value for kind in ParameterKind]
    p.add_argument("--from", dest="from_kind", required=True, choices=kinds)
    p.add_argument("--to", required=True, choices=kinds)
    p.add_argument("--value", required=True, type=Fraction, metavar="P/Q")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("mercator", help="Mercator map coordinates")
    p.add_argument("--lat", required=True, type=float, metavar="RAD")
    p.add_argument("--lon", required=True, type=float, metavar="RAD")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="compute the ordinate by quadrature instead of the closed form",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.set_defaults(handler=_cmd_mercator)

    return parser


def run(
    argv: Sequence[str],
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(list(argv))
    except SystemExit as stop:
        if stop.code in (0, None):
            return 0
        return stop.code if isinstance(stop.code, int) else 2
    try:
        payload = args.handler(args)
    except (SecintError, ZeroDivisionError) as exc:
        json.dump({"error": str(exc)}, out)
        out.write("\n")
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    json.dump(payload, out)
    out.write("\n")
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
