"""Command line interface.

Three subcommands: betti evaluates one space, table sweeps a range of
ambient dimensions, verify runs the consistency suites.  Exit codes:
0 success, 1 verification failures, 2 usage or parse errors, 3
arithmetic errors.  main has one except clause for the package's own
errors, which reports CurvebettiError.exit_code; the other clauses
cover unwritable output files and integers too large to compute with.

Importing this module loads only argparse, errors and keys, and keys
decides every key, table range and grid: a usage error, a bad key, range
or grid loads no arithmetic, and only --space loads dsl.  Each command
then imports what it computes with: dsl for --space, pipelines for keys,
table and verify, surgery for --trace, and json or csv for the format
that needs it.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .errors import CurvebettiError, InvalidParameters
from .keys import DEFAULT_GRID, SUITES, ModuliKey, grid_keys, has_pipeline, validate_key

# Names that code outside the package reads on this module: each is
# resolved from its defining module at every access and never stored
# here, so the defining module's binding is the one seen.
_FORWARDS = {"parse": ".dsl", "space_poly": ".pipelines", "run_pipeline_traced": ".surgery"}


def __getattr__(name: str):
    if name not in _FORWARDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_FORWARDS[name], __package__), name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvebetti",
        description="Betti numbers of compactified spaces of rational "
        "curves in Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    betti = sub.add_parser("betti", help="evaluate one space")
    betti.add_argument("--space", help="space expression, e.g. 'S(Gr(1,3),3)'")
    betti.add_argument("--k", type=int)
    betti.add_argument("--n", type=int)
    betti.add_argument("--d", type=int)
    betti.add_argument("--compactification", choices=["M", "S", "H"])
    betti.add_argument("--format", choices=["text", "json", "csv"], default="text")
    betti.add_argument("--trace", action="store_true", help="include the pipeline trace")
    betti.set_defaults(func=_cmd_betti)

    table = sub.add_parser("table", help="tabulate over a range of n")
    table.add_argument("--k", type=int, required=True)
    table.add_argument("--n", required=True, help="range like 4..10, or a single value")
    table.add_argument("--d", type=int, required=True)
    table.add_argument("--compactification", choices=["M", "S", "H"], required=True)
    table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    table.add_argument("--out", help="write output to a file instead of stdout")
    table.add_argument("--trace", action="store_true", help="include pipeline traces (json only)")
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run the consistency suites")
    verify.add_argument(
        "--suite",
        choices=list(SUITES) + ["all"],
        default="all",
    )
    verify.add_argument(
        "--grid",
        default=DEFAULT_GRID,
        help=f"key grid, e.g. {DEFAULT_GRID}",
    )
    verify.add_argument("--json", dest="json_path", help="also write a JSON report")
    verify.add_argument("--color", choices=["auto", "never"], default="auto")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CurvebettiError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: cannot write {e.filename or 'output'}: {e.strerror}", file=sys.stderr)
        return 2
    except OverflowError as e:
        # A size past what an index or a shift can hold, as in P(10^20).
        print(f"error: input too large: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2


# ------------------------------------------------------------------ records


def _record(
    result,
    space: str,
    key: ModuliKey | None = None,
    trace: list[dict] | None = None,
) -> dict:
    return {
        "space": space,
        # k, n, d and compactification; None each for a space that is no key.
        **dict(zip(ModuliKey.__slots__, key.astuple() if key else (None,) * 4)),
        "dim": result.dim,
        "euler": result.euler(),
        "q_coefficients": list(result.poly.coeffs),
        "betti": result.betti_numbers(),
        "palindromic": result.is_palindromic(),
        "components": result.components,
        "trace": trace,
    }


def _render_text_record(record: dict) -> str:
    lines = [f"space: {record['space']}"]
    lines.append(
        f"dim {record['dim']}, euler {record['euler']}, "
        f"components {record['components']}, "
        f"palindromic {'yes' if record['palindromic'] else 'no'}"
    )
    coeffs = " ".join(str(c) for c in record["q_coefficients"])
    lines.append(f"q-coefficients: {coeffs}")
    if record["trace"]:
        lines.append("trace:")
        for step in record["trace"]:
            corr = " ".join(str(c) for c in step["correction"]) or "0"
            lines.append(f"  {step['kind']:<9} {step['label']}: {corr}")
    return "\n".join(lines) + "\n"


def _render_json(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_csv(records: list[dict]) -> str:
    import csv
    import io

    width = max((len(r["q_coefficients"]) for r in records), default=1)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [*ModuliKey.__slots__, "dim", "euler"] + [f"b{2 * j}" for j in range(width)]
    )
    for r in records:
        coeffs = list(r["q_coefficients"])
        coeffs += [0] * (width - len(coeffs))
        key_fields = ["" if r[f] is None else r[f] for f in ModuliKey.__slots__]
        writer.writerow(key_fields + [r["dim"], r["euler"]] + coeffs)
    return buf.getvalue()


# ----------------------------------------------------------------- commands


def _cmd_betti(args) -> int:
    triple = [args.k, args.n, args.d, args.compactification]
    if args.space is not None and any(v is not None for v in triple):
        raise InvalidParameters("give either --space or --k/--n/--d/--compactification")
    if args.space is None and any(v is None for v in triple):
        raise InvalidParameters(
            "--k, --n, --d and --compactification are all required without --space"
        )

    trace = None
    if args.space is not None:
        from . import dsl

        expr = dsl.parse(args.space)
        result = dsl.eval_expr(expr)
        space_text = dsl.to_text(expr)
        key = (
            ModuliKey(expr.base.k, expr.base.n, expr.d, expr.compactification)
            if isinstance(expr, dsl.Moduli)
            else None
        )
    else:
        key = ModuliKey(args.k, args.n, args.d, args.compactification)
        validate_key(key)
        from . import pipelines

        result = pipelines.space_poly(key)
        space_text = str(key)
    if args.trace and args.format == "csv":
        print("note: --trace output is not available with --format csv", file=sys.stderr)
    elif args.trace:
        trace = _trace(key)
        if trace is None:
            print("note: no pipeline trace for this space", file=sys.stderr)

    record = _record(result, space_text, key, trace)
    if args.format == "json":
        sys.stdout.write(_render_json(record))
    elif args.format == "csv":
        sys.stdout.write(_render_csv([record]))
    else:
        sys.stdout.write(_render_text_record(record))
    return 0


def _trace(key: ModuliKey | None) -> list[dict] | None:
    """The surgery trace of key's pipeline; None for no key, or for M."""
    if key is None or not has_pipeline(key):
        return None
    from . import pipelines, surgery

    return surgery.run_pipeline_traced(pipelines.pipeline_for(key))


def _write_file(path: str, text: str) -> None:
    """Replace path's contents by text, once it is ready; an OSError names path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        e.filename = path
        raise


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InvalidParameters(f"bad range {text!r}, expected like 4..10")
    if lo > hi:
        raise InvalidParameters(f"empty range {text!r}")
    return lo, hi


def _cmd_table(args) -> int:
    lo, hi = _parse_n_range(args.n)
    try:  # a key valid at some n in the range is valid at hi: no rule refuses a larger n
        validate_key(ModuliKey(args.k, hi, args.d, args.compactification))
    except InvalidParameters:
        raise InvalidParameters(f"range {args.n!r} selects no keys") from None
    if args.out:
        open(args.out, "a").close()  # an unwritable path fails before the sweep
        _write_file(args.out, _table_text(args, lo, hi))
    else:
        sys.stdout.write(_table_text(args, lo, hi))
    return 0


def _table_text(args, lo: int, hi: int) -> str:
    from . import pipelines

    records = []
    for n in range(lo, hi + 1):
        key = ModuliKey(args.k, n, args.d, args.compactification)
        try:
            validate_key(key)
        except InvalidParameters as e:
            print(f"note: skipped n={n}: {e}", file=sys.stderr)
            continue
        trace = _trace(key) if args.trace and args.format == "json" else None
        records.append(_record(pipelines.space_poly(key), str(key), key, trace))
    if args.trace and args.format != "json":
        print("note: --trace output is available with --format json only",
              file=sys.stderr)

    if args.format == "json":
        return _render_json(records)
    if args.format == "csv":
        return _render_csv(records)
    return "".join(_render_text_record(r) + "\n" for r in records)


def _parse_grid(spec: str) -> list[ModuliKey]:
    """k=A..B,n=C..D or k=A..B,n=k+C..D, blanks ignored: see grid_keys."""
    import re

    m = re.fullmatch(r"k=(\d+)\.\.(\d+),n=(k\+)?(\d+)\.\.(\d+)", spec.replace(" ", ""))
    bad = InvalidParameters(f"bad grid {spec!r}, expected like {DEFAULT_GRID}")
    if m is None:
        raise bad
    try:
        k_lo, k_hi, start, n_hi = map(int, m.group(1, 2, 4, 5))
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise bad from None
    n_lo, n_offset = (None, start) if m[3] else (start, 1)
    return grid_keys(k_lo, k_hi, n_lo, n_hi, n_offset)


def _paint(text: str, color: str, mode: str) -> str:
    codes = {"green": "32", "red": "31"}
    if mode == "auto" and sys.stdout.isatty():
        return f"\x1b[{codes[color]}m{text}\x1b[0m"
    return text


def _cmd_verify(args) -> int:
    keys = _parse_grid(args.grid)
    if not keys:
        raise InvalidParameters(f"grid {args.grid!r} selects no keys")
    suites = SUITES if args.suite == "all" else (args.suite,)
    if args.json_path:
        open(args.json_path, "a").close()  # fails before the suites run
    from . import pipelines

    report = pipelines.verify_suite(keys, suites)
    if args.json_path:
        _write_file(args.json_path, _render_json(report.to_json()))

    counts = report.counts()
    for suite in SUITES:
        if suite not in counts:
            continue
        done, failed = counts[suite]
        print(f"{suite}: {done} checks, {failed} failures")
        for check in report.checks:
            if check.suite != suite:
                continue
            if suite == "special":
                status = (
                    _paint("pass", "green", args.color)
                    if check.passed
                    else _paint("FAIL", "red", args.color)
                )
                detail = f" ({check.detail})" if check.detail else ""
                print(f"  {status} {check.name}{detail}")
            elif not check.passed:
                print(f"  {_paint('FAIL', 'red', args.color)} {check.name}: "
                      f"{check.detail}")
    print(f"total: {report.total_checks} checks, {report.total_failures} failures")
    return 0 if report.total_failures == 0 else 1
