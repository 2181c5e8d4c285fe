"""Command-line front end.

Subcommands:

* ``constant``   - evaluate the sharp constant / certified interval at (a, b)
* ``region-map`` - CSV + SVG map of regions and constants over the
                   reciprocal-exponent square
* ``norm``       - operator norm of a matrix JSON file (exact real /
                   certified complex interval)
* ``khinchin``   - Rademacher / roots-of-unity / Steinhaus averages and
                   ratio checks for a coefficient vector; its ``method``
                   field names the path an average took ("enumeration",
                   "bessel", "quadrature" or "e_m-limit")
* ``search``     - stochastic extremal search with checkpointing
* ``verify``     - run the self-verification suites, emit a JSON report

Exit codes: 0 success; 1 a verification check failed; 2 inadmissible
exponents; 3 unwritable output path or missing input file (``norm
--input``); 4 unparseable input.

Exponents accept integers, decimals, fractions ("4/3") and "inf".
Numeric output is serialized with 17 significant digits; well-known
closed forms are annotated next to the decimal value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (CapacityError, InadmissibleExponentsError, InputParseError,
                     SerializationError, UndefinedRatioError)
from .exponents import (CEILING_SLACK, Exponent, ExponentPair, _reciprocal_grid, admissible,
                        classify_region, complex_constant_bounds, real_constant)
from .forms import load_form
from .jsonio import canonical_dumps, format_float
from .khinchin import (_ratio, ceiling, e_m_average, rademacher_average,
                       steinhaus_expectation)
from .opnorm import complex_norm_bounds, real_sup_norm
from .search import (SearchConfig, checkpoint_save, maximize_khinchin_ratio,
                     maximize_ratio)
from .verify import report_to_json, run_suite

__all__ = ["main"]

TIE_BREAK_NOTE = "region tie-break priority on shared boundaries: RII > RIII > RIV > RI"

_SQRT2 = math.sqrt(2.0)

# CLI model names -> litt43.khinchin model names
_MODELS = {"rademacher": "rademacher", "em": "e_m", "steinhaus": "steinhaus"}


# ---------------------------------------------------------------------------
# parsing and formatting helpers
# ---------------------------------------------------------------------------

def _parse_coeffs(text: str) -> np.ndarray:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise InputParseError("empty coefficient list")
    values = []
    for tok in tokens:
        try:
            values.append(complex(tok.strip().replace(" ", "")))
        except ValueError as exc:
            raise InputParseError(f"cannot parse coefficient {tok!r}") from exc
    arr = np.array(values, dtype=np.complex128)
    if np.all(arr.imag == 0.0):
        return arr.real.astype(np.float64)
    return arr


_CLOSED_FORMS = [
    (1.0, "1"),
    (_SQRT2, "2^(1/2)"),
    (2.0 / math.sqrt(math.pi), "2/sqrt(pi)"),
    (4.0 / math.pi, "4/pi"),
    (math.pi * _SQRT2 / 4.0, "pi*sqrt(2)/4"),
]


def closed_form_label(x: float) -> str | None:
    """Readable name for x when it matches a known closed form within 1e-12."""
    for value, label in _CLOSED_FORMS:
        if abs(x - value) <= 1e-12 * max(1.0, abs(value)):
            return label
    for base, base_label in ((2.0, "2"), (4.0 / math.pi, "(4/pi)")):
        if x <= 0.0:
            continue
        exponent = math.log(x) / math.log(base)
        frac = Fraction(exponent).limit_denominator(12)
        if 0 < abs(frac) <= 1 and abs(exponent - float(frac)) <= 1e-12:
            if abs(x - base ** float(frac)) <= 1e-12 * max(1.0, x):
                return f"{base_label}^({frac})" if frac.denominator != 1 else base_label
    return None


def _annotate(x: float) -> str:
    label = closed_form_label(x)
    return f"{format_float(x)}" + (f"  (= {label})" if label else "")


def _emit_json(doc: dict) -> None:
    sys.stdout.write(canonical_dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constant(args) -> int:
    pair = ExponentPair.of(args.a, args.b)
    if not admissible(pair):
        total = pair.a.reciprocal + pair.b.reciprocal
        sys.stderr.write(
            f"inadmissible exponents: 1/a + 1/b = {format_float(total)} violates "
            f"1/a + 1/b <= 3/2\n")
        return 2
    region = classify_region(pair)
    report = real_constant(pair) if args.field == "real" else complex_constant_bounds(pair)
    print(f"(a, b) = {pair}   field = {args.field}   region = {region}")
    if report.exact is not None:
        print(f"exact = {_annotate(report.exact)}")
    else:
        print(f"interval = [{_annotate(report.lower)}, {_annotate(report.upper)}]")
    print(f"provenance: {report.provenance}")
    print(TIE_BREAK_NOTE)
    return 0


def _region_rows(resolution: int):
    # inv_a/inv_b are re-derived from the stored exponents so that a row
    # re-parsed through `exponents` reproduces itself bit for bit
    _, ps = _reciprocal_grid(resolution)
    for pa in ps:
        for pb in ps:
            a, b = Exponent(pa), Exponent(pb)
            pair = ExponentPair(a, b)
            region = classify_region(pair)
            if region.value == "R0":
                yield a.reciprocal, b.reciprocal, pair, region, None, None
            else:
                yield (a.reciprocal, b.reciprocal, pair, region,
                       real_constant(pair), complex_constant_bounds(pair))


def _exponent_cell(e: Exponent) -> str:
    return "inf" if e.is_inf else format_float(e.value)


_CSV_HEADER = "a,b,inv_a,inv_b,region,real_constant,complex_lower,complex_upper,complex_exact"


def _region_map_csv(resolution: int) -> str:
    lines = [_CSV_HEADER]
    for inv_a, inv_b, pair, region, real_rep, cplx_rep in _region_rows(resolution):
        if real_rep is None:
            tail = ",,,"
        else:
            exact = "" if cplx_rep.exact is None else format_float(cplx_rep.exact)
            tail = (f"{format_float(real_rep.exact)},{format_float(cplx_rep.lower)},"
                    f"{format_float(cplx_rep.upper)},{exact}")
        lines.append(
            f"{_exponent_cell(pair.a)},{_exponent_cell(pair.b)},"
            f"{format_float(inv_a)},{format_float(inv_b)},{region.value},{tail}")
    return "\n".join(lines) + "\n"


def _color(constant: float | None) -> str:
    if constant is None:
        return "#d8d8d8"
    t = min(1.0, max(0.0, (constant - 1.0) / (_SQRT2 - 1.0)))
    r = round(255 + (31 - 255) * t)
    g = round(255 + (119 - 255) * t)
    b = round(255 + (180 - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _region_map_svg(resolution: int) -> str:
    size, margin = 560.0, 60.0
    cell = size / (resolution - 1)

    def x_of(inv_a: float) -> float:
        return margin + inv_a * size

    def y_of(inv_b: float) -> float:
        return margin + (1.0 - inv_b) * size

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 2 * margin:.0f}" '
        f'height="{size + 2 * margin:.0f}" viewBox="0 0 {size + 2 * margin:.0f} '
        f'{size + 2 * margin:.0f}">',
        f'<!-- {TIE_BREAK_NOTE} -->',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for inv_a, inv_b, pair, region, real_rep, _ in _region_rows(resolution):
        color = _color(None if real_rep is None else real_rep.exact)
        parts.append(
            f'<rect x="{x_of(inv_a) - cell / 2:.3f}" y="{y_of(inv_b) - cell / 2:.3f}" '
            f'width="{cell:.3f}" height="{cell:.3f}" fill="{color}"/>')
    # boundary 1/a + 1/b = 3/2: the hyperbola b = 2a/(3a-2) through (1,2), (2,1)
    x0, y0 = x_of(0.5), y_of(1.0)
    x1, y1 = x_of(1.0), y_of(0.5)
    parts.append(f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x1:.3f}" y2="{y1:.3f}" '
                 'stroke="black" stroke-width="2"/>')
    # boundary 1/a + 1/b = 1 (constant reaches 1; region RII below)
    parts.append(f'<line x1="{x_of(0.0):.3f}" y1="{y_of(1.0):.3f}" '
                 f'x2="{x_of(1.0):.3f}" y2="{y_of(0.0):.3f}" '
                 'stroke="black" stroke-width="1" stroke-dasharray="6,3"/>')
    # splits RI / RIII and RI / RIV
    parts.append(f'<line x1="{x_of(0.5):.3f}" y1="{y_of(0.5):.3f}" '
                 f'x2="{x_of(0.5):.3f}" y2="{y_of(1.0):.3f}" '
                 'stroke="black" stroke-width="1" stroke-dasharray="2,3"/>')
    parts.append(f'<line x1="{x_of(0.5):.3f}" y1="{y_of(0.5):.3f}" '
                 f'x2="{x_of(1.0):.3f}" y2="{y_of(0.5):.3f}" '
                 'stroke="black" stroke-width="1" stroke-dasharray="2,3"/>')
    labels = [
        (0.72, 0.72, "RI"), (0.30, 0.30, "RII"), (0.25, 0.80, "RIII"),
        (0.80, 0.25, "RIV"), (0.88, 0.88, "R0"),
    ]
    for lx, ly, text in labels:
        parts.append(f'<text x="{x_of(lx):.3f}" y="{y_of(ly):.3f}" '
                     f'font-family="sans-serif" font-size="18">{text}</text>')
    parts.append(f'<text x="{margin:.0f}" y="{size + 2 * margin - 18:.0f}" '
                 'font-family="sans-serif" font-size="13">'
                 'axes: 1/a (right), 1/b (up); solid line: 1/a + 1/b = 3/2, '
                 'the hyperbola b = 2a/(3a-2); shade: constant 2^max(0, 1/a + 1/b - 1)'
                 '</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_region_map(args) -> int:
    if args.resolution < 2:
        raise InputParseError(f"resolution must be >= 2, got {args.resolution}")
    csv_text = _region_map_csv(args.resolution)
    svg_text = _region_map_svg(args.resolution)
    try:
        Path(args.csv).write_text(csv_text, encoding="ascii")
        Path(args.svg).write_text(svg_text, encoding="ascii")
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 3
    print(f"wrote {args.resolution ** 2} rows to {args.csv} and figure to {args.svg}")
    print(TIE_BREAK_NOTE)
    return 0


def _cmd_norm(args) -> int:
    form = load_form(args.input)
    if args.field and args.field != form.field:
        raise InputParseError(
            f"--field {args.field} does not match the file's field {form.field!r}")
    if form.field == "real":
        value = real_sup_norm(form)
        _emit_json({"field": "real", "norm": value, "rows": form.rows,
                    "cols": form.cols})
    else:
        bounds = complex_norm_bounds(form, args.M, refine=args.refine)
        _emit_json({
            "field": "complex", "M": bounds.m, "r_m": bounds.r_m,
            "discrete_norm": bounds.discrete_norm, "lower": bounds.lower,
            "upper": bounds.upper, "rows": form.rows, "cols": form.cols,
        })
    return 0


def _cmd_khinchin(args) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    doc: dict = {"n": int(coeffs.size)}
    if args.model == "rademacher":
        result = rademacher_average(coeffs)
    elif args.model == "em":
        result = e_m_average(coeffs, args.M)
        doc["M"] = args.M
    elif args.method == "quadrature":  # steinhaus
        result = steinhaus_expectation(coeffs, method="quadrature", q=args.Q)
        doc["Q"] = args.Q
    else:
        schedule = [int(v) for v in args.schedule.split(",")]
        result = steinhaus_expectation(coeffs, method="e_m_limit", schedule=schedule)
        doc["schedule"] = schedule
    doc.update({"model": args.model, "method": result.method, "value": result.value,
                "error_bound": result.error_bound})
    if args.r is not None:
        r = Exponent.parse(args.r)
        bound, _ = ceiling(_MODELS[args.model], r, args.M)
        ratio = _ratio(coeffs, r, result.value)
        doc.update({"ratio": ratio, "ceiling": bound, "violation": ratio > bound + CEILING_SLACK})
    _emit_json(doc)
    return 0


def _cmd_search(args) -> int:
    if args.kind == "khinchin" and args.K is not None:
        raise ValueError("--K applies to form searches; a khinchin search "
                         "takes its vector length from --N")
    cfg = SearchConfig(restarts=args.restarts, steps=args.steps, scale=args.scale,
                       seed=args.seed, dims=(2 if args.K is None else args.K, args.N),
                       budget_seconds=args.budget_seconds)
    workers = args.workers
    if not workers:
        value = os.environ.get("LITT43_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            raise ValueError(f"LITT43_WORKERS must be an integer, got {value!r}") from None
    if args.kind == "form":
        pair = ExponentPair.of(args.a, args.b)
        result = maximize_ratio(args.field, pair, cfg, m=args.M, workers=workers)
    else:
        result = maximize_khinchin_ratio(_MODELS[args.model], args.r, args.N, cfg,
                                         m=args.M, q=args.Q, workers=workers)
    if args.checkpoint:
        try:
            checkpoint_save(result, args.checkpoint)
        except OSError as exc:
            sys.stderr.write(f"cannot write checkpoint: {exc}\n")
            return 3
    doc = {
        "kind": result.kind, "params": result.params,
        "best_ratio": result.best_ratio, "ceiling": result.ceiling,
        "ceiling_provenance": result.ceiling_provenance,
        "restarts_run": result.restarts_run,
        "improvements": len(result.improved_at),
        "falsification": result.falsification,
    }
    if result.optimistic_ratio is not None:
        doc["optimistic_ratio"] = result.optimistic_ratio
    _emit_json(doc)
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.override or []:
        name, _, value = item.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise InputParseError(f"bad --override {item!r}; use name=scale") from exc
    report = run_suite(args.suite, seed=args.seed, overrides=overrides or None)
    text = report_to_json(report)
    if args.report:
        try:
            Path(args.report).write_text(text, encoding="ascii")
        except OSError as exc:
            sys.stderr.write(f"cannot write report: {exc}\n")
            return 3
    else:
        sys.stdout.write(text)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        sys.stderr.write(f"{status}  {check['name']}  margin={check['margin']:.3e}\n")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, not argparse's 2 (inadmissible exponents); subparsers share it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="litt43",
        description="sharp constants of the anisotropic Littlewood 4/3 inequality: "
                    "evaluation, certification and extremal search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="sharp constant / certified interval at (a, b)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("region-map", help="CSV + SVG map over the reciprocal square")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--csv", default="region_map.csv")
    p.add_argument("--svg", default="region_map.svg")
    p.set_defaults(func=_cmd_region_map)

    p = sub.add_parser("norm", help="operator norm of a matrix JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--field", choices=("real", "complex"), default=None,
                   help="assert the file's scalar field")
    p.add_argument("--M", type=int, default=16, help="roots-of-unity grid order")
    p.add_argument("--refine", action="store_true", help="phase-ascent lower bound")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("khinchin", help="averages and sharp-ratio checks")
    p.add_argument("--coeffs", required=True, help="comma-separated scalars")
    p.add_argument("--model", choices=("rademacher", "em", "steinhaus"),
                   default="rademacher")
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--r", default=None)
    p.add_argument("--method", choices=("quadrature", "em-limit"), default="quadrature",
                   help="steinhaus: 'quadrature' takes the cheaper of Kluyver's Bessel "
                        "integral and the product rule at --Q nodes per angle, and the "
                        "output's method field names it ('bessel', with a true "
                        "error_bound, or 'quadrature', whose error_bound is an "
                        "estimate); 'em-limit' takes T_M averages along --schedule")
    p.add_argument("--Q", type=int, default=256)
    p.add_argument("--schedule", default="64,128,256,512")
    p.set_defaults(func=_cmd_khinchin)

    p = sub.add_parser("search", help="stochastic extremal search")
    p.add_argument("--kind", choices=("form", "khinchin"), default="form")
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--a", default="4/3")
    p.add_argument("--b", default="4/3")
    p.add_argument("--model", choices=("rademacher", "em", "steinhaus"),
                   default="rademacher")
    p.add_argument("--r", default="2")
    p.add_argument("--K", type=int, default=None,
                   help="rows of a form search (default 2); refused for --kind khinchin")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--Q", type=int, default=64)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--workers", type=int, default=0,
                   help="parallel restart workers (default: LITT43_WORKERS or 1)")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--report", default=None, help="write the JSON report here "
                                                  "instead of stdout")
    p.add_argument("--override", action="append", default=None,
                   help="scale a check's ceilings, e.g. khinchin_sharpness=0.5 "
                        "(fault injection)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleExponentsError as exc:
        sys.stderr.write(f"inadmissible exponents: {exc}\n")
        return 2
    except (InputParseError, SerializationError, UndefinedRatioError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 4
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
