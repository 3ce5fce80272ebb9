"""Command-line surface: classify, scan, tables, galois.

Every command emits a single machine-readable record, either as CSV
(default: header row, comma separators, '.' decimal point, 12 significant
digits, dashes for empty cells) or as JSON with --format json.  JSON is
written piece by piece while the record is walked; CSV is assembled in
full and written once.  Exit code 0 on success, 2 on usage
errors and domain refusals.  The modules that need numpy are imported
inside the classify and galois handlers, so tables and scan run without
numpy.  main parses a command's arguments once, with that command's
parser; help, version and usage errors come from the top-level parser,
unchanged.

The JSON layout is fixed: two-space indent, one member or element per
line, non-ASCII characters as \\u escapes, keys in record order, dataclass
fields in order, complex numbers as {"real", "imag"}, enums as values,
and non-finite floats as the strings "inf", "-inf" and "nan".  The
writer walks a record once: it dispatches on each value's exact type,
reads a dataclass's field keys from a table built once per type, and
hands every piece to one write function as it goes, so no output text
is held.  It writes
values of exact types only (dict keys are str), dataclass instances, and
enum members as their values; it refuses any other value with TypeError,
a subclass such as numpy.float64 or a namedtuple included.
"""

import argparse
import dataclasses
import enum
import functools
import json
import math
import re
import sys
import time
from collections.abc import Iterator

from . import __version__
from .closed import EPS_DISCRIMINANT, is_infinite
from .criteria import (
    MERGE_TOL,
    SCAN_TESTS,
    reproduce_table,
    scan_intervals,
)

_ANGLE_HELP = "angle as raw radians, 'pi', 'pi/<k>' or 'acos(<float>)'"


class UsageError(Exception):
    pass


def parse_order(text: str):
    """Corner order flag: a positive integer or 'inf'."""
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"invalid corner order {text!r}: expected an integer or 'inf'")


def parse_angle(text: str) -> float:
    """Angle flag: raw radians, 'pi', 'pi/<k>' or 'acos(<float>)'."""
    s = text.strip().lower().replace(" ", "")
    if s == "pi":
        return math.pi
    m = re.fullmatch(r"pi/(\d+(?:\.\d+)?)", s)
    if m:
        k = float(m.group(1))
        if k == 0.0:
            raise UsageError(f"invalid angle {text!r}: zero denominator")
        if k == math.inf:  # pi/inf would read as theta = 0
            raise UsageError(f"invalid angle {text!r}: denominator too large for a float")
        return math.pi / k
    m = re.fullmatch(r"acos\((.+)\)", s)
    if m:
        try:
            x = float(m.group(1))
        except ValueError:
            raise UsageError(f"invalid angle {text!r}")
        if not -1.0 <= x <= 1.0:
            raise UsageError(f"acos argument must lie in [-1, 1], got {x}")
        return math.acos(x)
    try:
        return float(s)
    except ValueError:
        raise UsageError(f"invalid angle {text!r}: expected {_ANGLE_HELP}")


def _fmt(value) -> str:
    if value is None:
        return "---"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


_json_str = json.encoder.encode_basestring_ascii
# dataclass type -> ((field name, its JSON key + ": "), ...), built once per type
_FIELD_KEYS = {}


def _write(value, pad: str, put) -> None:
    """Hand put the JSON text of value at indent pad, piece by piece: the
    text of json.dumps(..., indent=2) with non-finite floats as the strings of
    their _fmt text, complex numbers as {"real", "imag"}, dataclasses in
    field order, tuples as lists and enums as their values; else TypeError."""
    cls = type(value)  # exact types only; a dataclass or enum goes through _exact
    if cls is float:
        put(float.__repr__(value) if math.isfinite(value) else _json_str(_fmt(value)))
    elif cls is int:
        put(int.__repr__(value))
    elif cls is str:
        put(_json_str(value))
    elif value is None:
        put("null")
    elif cls is bool:
        put("true" if value else "false")
    else:
        keys = _FIELD_KEYS.get(cls)
        brackets = "[]" if cls is list or cls is tuple else "{}"
        inner = pad + "  "
        sep = brackets[0] + "\n" + inner
        comma = ",\n" + inner
        if keys is not None:
            for name, key in keys:
                put(sep)
                put(key)
                _write(getattr(value, name), inner, put)
                sep = comma
        elif cls is list or cls is tuple:
            for v in value:
                put(sep)
                _write(v, inner, put)
                sep = comma
        elif cls is dict or cls is complex:
            if cls is complex:
                value = {"real": value.real, "imag": value.imag}
            for k, v in value.items():
                if type(k) is not str:
                    raise TypeError(f"no JSON key form for {type(k).__name__}")
                put(sep)
                put(_json_str(k) + ": ")
                _write(v, inner, put)
                sep = comma
        else:
            return _write(_exact(value), pad, put)
        put("\n" + pad + brackets[1] if sep is comma else brackets)


def _field_keys(cls) -> tuple:
    """((field name, its JSON key + ": "), ...) of a dataclass type, in
    field order; filed in _FIELD_KEYS at its first use."""
    keys = _FIELD_KEYS.get(cls)
    if keys is None:
        fields = dataclasses.fields(cls)
        keys = _FIELD_KEYS[cls] = tuple((f.name, _json_str(f.name) + ": ") for f in fields)
    return keys


def _exact(value):
    """A dataclass instance, with its type's field keys filed, or an enum
    member's value; else TypeError."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _field_keys(type(value))
        return value
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _emit(record: dict, columns, rows, fmt: str, write) -> None:
    """Write one output record with write: JSON the whole record, piece by
    piece as it is walked; CSV the tabular results, assembled and written
    once.  rows is any iterable, read only for CSV."""
    if fmt == "json":
        _write(record, "", write)
        write("\n")
    else:
        lines = [columns] + [[_fmt(c) for c in row] for row in rows]
        write("".join(",".join(line) + "\n" for line in lines))


def _record(command: str, parameters: dict, tolerances: dict, results) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "tolerances": tolerances,
        "version": __version__,
        "results": results,
    }


def _cmd_classify(args) -> tuple[dict, list, list]:
    from .classify import classify
    from .triangles import build_mn_inf

    m = parse_order(args.m)
    n = parse_order(args.n)
    theta = parse_angle(args.theta)
    word = args.word.strip()
    result = classify(build_mn_inf(m, n, theta).word(word))
    record = _record(
        "classify",
        {"m": _fmt(m), "n": n, "theta": theta, "word": word},
        {"discriminant_band": EPS_DISCRIMINANT},
        {
            "word": word,
            "trace": result.trace,
            "discriminant": result.discriminant,
            "isometry_class": result.tag.value,
            "eigenvalues": list(result.eigenvalues),
        },
    )
    columns = ["word", "trace", "discriminant", "isometry_class"]
    rows = [[word, result.trace, result.discriminant, result.tag.value]]
    return record, columns, rows


def _cmd_scan(args) -> tuple[dict, list, list]:
    m = parse_order(args.m)
    n = parse_order(args.n)
    if is_infinite(n):
        raise UsageError("n must be finite; pass --m inf for the family with one finite corner")
    scan = scan_intervals(args.test, m, n)
    record = _record(
        "scan",
        {"test": args.test, "m": _fmt(m), "n": n},
        {"endpoint_bracket": MERGE_TOL},
        {"intervals": [list(iv) for iv in scan.intervals]},
    )
    columns = ["n", "lo", "hi"]
    rows = [[n, lo, hi] for lo, hi in scan.intervals]
    return record, columns, rows


def _cmd_tables(args) -> tuple[dict, list, list]:
    table = reproduce_table(args.which)
    columns = ["n"]
    for name in table.columns:
        columns.extend([name, name + "_display"])
    json_rows = []
    for row in table.rows:
        jrow = {"n": row.n}
        for name in table.columns:
            value = row.cells[name]
            jrow[name] = value
            jrow[name + "_display"] = None if value is None else f"{value:.5f}"
        json_rows.append(jrow)
    record = _record(
        "tables",
        {"which": args.which},
        {"endpoint_bracket": MERGE_TOL, "display_decimals": 5},
        {"columns": list(columns), "rows": json_rows},
    )
    rows = [[jrow[name] for name in columns] for jrow in json_rows]
    return record, columns, rows


def _cmd_galois(args) -> tuple[dict, list, Iterator[list]]:
    from .cyclotomic import refute_finite_order

    m = parse_order(args.m)
    n = parse_order(args.n)
    start = time.perf_counter()
    report = refute_finite_order(m, n, max_l=args.max_l)
    elapsed = time.perf_counter() - start
    # the report's own values: _emit writes them as JSON in one walk, CSV not at all
    results = {name: getattr(report, name) for name, _ in _field_keys(type(report))}
    results["overflowed"] = report.overflowed
    record = _record(
        "galois",
        {"m": _fmt(m), "n": n, "max_l": args.max_l},
        {"circle_tol": report.circle_tol, "near_tol": report.near_tol},
        results,
    )
    # the timing stays outside results, so equal runs give equal results
    record["diagnostics"] = {"elapsed_seconds": elapsed}
    columns = [
        "kind", "l", "k1", "k2", "k3", "circle_gap", "conductor",
        "max_rightmost", "all_strictly_below", "phi_holds", "note",
    ]

    def rows():  # consumed by CSV output only, so JSON output builds none
        for s in report.survivors:
            yield [
                "survivor", s.candidate.l, *s.candidate.k, s.circle_gap,
                s.conductor, None, None, s.phi.holds, s.note,
            ]
        for t in report.near_misses:
            scan = t.conjugates
            yield [
                "near_miss", t.candidate.l, *t.candidate.k, t.circle_gap,
                None if scan is None else scan.conductor,
                None if scan is None else scan.max_rightmost,
                None if scan is None else scan.all_strictly_below,
                t.phi.holds, t.note,
            ]
        note = (
            f"checked={report.candidates_checked}"
            f" elliptic={report.regular_elliptic_candidates}"
            f" survivors={len(report.survivors)}"
            f" near_misses={len(report.near_misses)}"
            f" elapsed={elapsed:.3f}s"
        )
        yield ["summary", report.max_l] + [None] * 8 + [note]

    return record, columns, rows()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chtriangle",
        description=(
            "Complex hyperbolic triangle groups with one ideal corner: "
            "construction, isometry classification, non-discreteness "
            "certificates and parameter-interval scans."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="output format (default: csv)",
        )

    p = sub.add_parser("classify", help="classify the isometry given by a word in the involutions")
    p.add_argument("--m", required=True, help="first corner order (integer >= 3 or 'inf')")
    p.add_argument("--n", required=True, help="second corner order (integer >= 3 or 'inf')")
    p.add_argument("--theta", required=True, help=f"angular invariant; {_ANGLE_HELP}")
    p.add_argument("--word", required=True, help="word over {1,2,3}, e.g. 123 or 3132")
    add_common(p)

    p = sub.add_parser("scan", help="scan a = cos(theta) for intervals where a criterion fires")
    p.add_argument("--test", required=True, choices=SCAN_TESTS,
                   help="re = regular elliptic product criterion")
    p.add_argument("--m", required=True, help="first corner order (integer >= 3 or 'inf')")
    p.add_argument("--n", required=True, type=str, help="second corner order (integer >= 3)")
    add_common(p)

    p = sub.add_parser("tables", help="recompute one of the three built-in survey tables")
    p.add_argument("which", type=int, choices=(1, 2, 3), help="table index")
    add_common(p)

    p = sub.add_parser("galois", help="refute finite-order regular elliptic traces by enumeration")
    p.add_argument("--m", required=True, help="first corner order (integer >= 3 or 'inf')")
    p.add_argument("--n", required=True, help="second corner order (integer >= 3), must differ from m")
    p.add_argument("--max-l", type=int, default=60, dest="max_l",
                   help="bound on the root-of-unity order l (default 60)")
    add_common(p)
    return parser


def __getattr__(name):
    # the names the classify and galois handlers import on use read as
    # attributes of this module, resolved as the package resolves them;
    # build_n_inf_inf, which no handler calls, stays because the benchmark's
    # span tracer patches it on this module
    if name in ("classify", "build_mn_inf", "build_n_inf_inf", "refute_finite_order"):
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_HANDLERS = {
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "tables": _cmd_tables,
    "galois": _cmd_galois,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parsing leaves it
    and its command parsers unchanged, as no argument has a mutable
    default.  main parses a command's arguments once, with that command's
    parser; help, version and usage errors come from this parser, unchanged."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """The namespace _parser().parse_args(argv) returns, with the same
    output and exit on help, version and usage errors.  When argv starts
    with a command, that command's parser reads argv[1:] once; an empty
    argv, an option or unknown name in front, and arguments the command
    leaves unrecognized go to the top-level parser, which writes its own
    help, version and error text."""
    parser = _parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # the top-level parser refuses a "--=..." string as ambiguous between
    # --help and --version before the command's parser sees it
    if argv and argv[0] in commands and not any(s.startswith("--=") for s in argv):
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        record, columns, rows = _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"chtriangle {args.command}: error: {exc}", file=sys.stderr)
        return 2
    _emit(record, columns, rows, args.format, sys.stdout.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
