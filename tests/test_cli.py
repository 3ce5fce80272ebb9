import argparse
import inspect
import json
import math
import re
import sys

import pytest

from chtriangle import cli
from chtriangle.cli import UsageError, build_parser, main, parse_angle, parse_order
from chtriangle.criteria import order_k_locus
from chtriangle.cyclotomic import refute_finite_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_parse_order():
    assert parse_order("8") == 8
    assert math.isinf(parse_order("inf"))
    with pytest.raises(Exception):
        parse_order("eight")


def test_parse_angle_forms():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("acos(0.5)") == pytest.approx(math.acos(0.5))
    assert parse_angle("1.0471") == pytest.approx(1.0471)
    with pytest.raises(Exception):
        parse_angle("tau/2")
    with pytest.raises(Exception):
        parse_angle("acos(2.5)")


def test_classify_command_loxodromic(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "inf", "--n", "4", "--theta", "pi/4",
        "--word", "123",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["word", "trace", "discriminant", "isometry_class"]
    assert rows[0][0] == "123"
    assert rows[0][3] == "loxodromic"


def test_classify_command_word_3132_at_order5_locus(capsys):
    a = order_k_locus(7, 5)
    code, out, _ = run_cli(
        capsys, "classify", "--m", "inf", "--n", "7",
        "--theta", f"acos({a!r})", "--word", "3132", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "classify"
    assert record["version"]
    result = record["results"]
    assert result["isometry_class"] == "regular_elliptic"
    assert result["trace"]["real"] == pytest.approx(1 + 2 * math.cos(2 * math.pi / 5), abs=1e-9)


def test_classify_command_rejects_bad_word(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--m", "8", "--n", "4", "--theta", "0.5",
        "--word", "124",
    )
    assert code == 2
    assert "word" in err


@pytest.mark.parametrize("theta", ["pi/0", "pi/0.0", "pi/00"])
def test_classify_command_rejects_zero_angle_denominator(capsys, theta):
    # pi/0 used to escape main as a ZeroDivisionError traceback
    code, out, err = run_cli(
        capsys, "classify", "--m", "8", "--n", "11", "--theta", theta, "--word", "123",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "zero denominator" in err


PI_OVER_HUGE = "pi/1" + "0" * 400


@pytest.mark.parametrize("argv, message", [
    (["classify", "--m", "inf", "--n", "inf", "--theta", "0.5", "--word", "123"],
     "n must be finite; pass the single finite order as --n with --m inf"),
    (["scan", "--test", "re", "--m", "8", "--n", "inf"],
     "n must be finite; pass --m inf for the family with one finite corner"),
    (["classify", "--m", "8", "--n", "11", "--theta", "acos(x)", "--word", "123"],
     "invalid angle 'acos(x)'"),
    # pi/<k> with k above the largest float used to read as theta = pi/inf = 0
    (["classify", "--m", "8", "--n", "11", "--theta", PI_OVER_HUGE, "--word", "123"],
     f"invalid angle {PI_OVER_HUGE!r}: denominator too large for a float"),
], ids=["classify-n-inf", "scan-n-inf", "acos-not-a-number", "pi-over-k-past-float-range"])
def test_commands_refuse_bad_flags_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"chtriangle {argv[0]}: error: {message}\n"


# a corner order above the largest float, whose corner cosine has no float value
HUGE = "8" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["scan", "--test", "re", "--m", "8", "--n", HUGE],
    ["scan", "--test", "jorgensen", "--m", HUGE, "--n", "11"],
    ["scan", "--test", "shimizu", "--m", "inf", "--n", HUGE],
    ["classify", "--m", HUGE, "--n", "11", "--theta", "0.3", "--word", "123"],
    ["classify", "--m", "inf", "--n", HUGE, "--theta", "0.3", "--word", "123"],
    ["galois", "--m", HUGE, "--n", "11"],
    ["galois", "--m", "8", "--n", HUGE],
], ids=["scan-re-n", "scan-jorgensen-m", "scan-shimizu-n", "classify-m", "classify-n",
        "galois-m", "galois-n"])
def test_commands_refuse_orders_too_large_for_a_float(capsys, argv):
    # such an order used to escape main as an OverflowError traceback;
    # tables, the fourth command, takes no order
    name = "m" if argv[argv.index("--m") + 1] == HUGE else "n"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        f"chtriangle {argv[0]}: error: {name} is too large for a float;"
        " pass inf for an infinite order\n"
    )


def test_scan_command_interval(capsys):
    code, out, _ = run_cli(capsys, "scan", "--test", "re", "--m", "8", "--n", "11")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "lo", "hi"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(0.93097, abs=1e-4)
    assert float(rows[0][2]) == pytest.approx(0.93114, abs=1e-4)


def test_scan_command_empty(capsys):
    code, out, _ = run_cli(capsys, "scan", "--test", "jorgensen", "--m", "8", "--n", "6")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "lo", "hi"]
    assert rows == []


def test_scan_command_shimizu_left_endpoint(capsys):
    code, out, _ = run_cli(capsys, "scan", "--test", "shimizu", "--m", "8", "--n", "5")
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][1]) == pytest.approx(0.99419, abs=1e-4)


def test_scan_command_rejects_unknown_test(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--test", "bogus", "--m", "8", "--n", "5"])
    assert exc.value.code == 2


SCAN_RE_8_11 = ["scan", "--test", "re", "--m", "8", "--n", "11"]
GALOIS_8_11 = ["galois", "--m", "8", "--n", "11", "--max-l", "20"]


# the ids of the --grid cases predate the --tol ones
@pytest.mark.parametrize("command, flag", [
    pytest.param(SCAN_RE_8_11, ["--grid", "5000"], id="command0"),
    pytest.param(["tables", "1"], ["--grid", "5000"], id="command1"),
    pytest.param(SCAN_RE_8_11, ["--tol", "1e-8"], id="command0-tol"),
    pytest.param(["tables", "1"], ["--tol", "1e-8"], id="command1-tol"),
    pytest.param(GALOIS_8_11, ["--tol", "1e-8"], id="galois-tol"),
    pytest.param(GALOIS_8_11, ["--near-tol", "1e-3"], id="galois-near-tol"),
])
def test_grid_flag_is_gone(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("test, m, n", [("re", "1", "8"), ("shimizu", "2", "2"), ("re", "0", "11")])
def test_scan_command_rejects_corner_orders_below_3(capsys, test, m, n):
    code, out, err = run_cli(capsys, "scan", "--test", test, "--m", m, "--n", n)
    assert code == 2 and out == ""
    assert "must be >= 3 or infinity" in err


def test_scan_command_accepts_equal_orders(capsys):
    code, out, _ = run_cli(capsys, "scan", "--test", "shimizu", "--m", "8", "--n", "8")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows


def test_tables_command_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "n"
    assert "elliptic_lo" in header and "elliptic_lo_display" in header
    byn = {int(r[0]): dict(zip(header, r)) for r in rows}
    assert float(byn[30]["elliptic_lo"]) == pytest.approx(0.93662, abs=1e-4)
    assert float(byn[30]["elliptic_hi"]) == pytest.approx(0.93733, abs=1e-4)
    assert byn[30]["elliptic_lo_display"] == "0.93662"


def test_tables_command_dashes(capsys):
    code, out, _ = run_cli(capsys, "tables", "2")
    assert code == 0
    header, rows = csv_rows(out)
    byn = {int(r[0]): dict(zip(header, r)) for r in rows}
    assert byn[4]["jorgensen_lo"] == "---"
    assert float(byn[10]["jorgensen_lo"]) == pytest.approx(0.98363, abs=1e-4)
    assert float(byn[10]["shimizu_lo"]) == pytest.approx(0.99346, abs=1e-4)


def test_tables_command_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "3", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    rows = {row["n"]: row for row in record["results"]["rows"]}
    assert rows[40]["elliptic_lo"] == pytest.approx(0.95272, abs=1e-4)
    assert rows[40]["jorgensen_lo"] == pytest.approx(0.99171, abs=1e-4)
    assert rows[40]["shimizu_lo"] == pytest.approx(0.99461, abs=1e-4)
    assert rows[4]["jorgensen_lo"] is None


def test_tables_command_rejects_bad_index(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "9"])
    assert exc.value.code == 2


def test_galois_command(capsys):
    code, out, _ = run_cli(
        capsys, "galois", "--m", "8", "--n", "11", "--max-l", "20",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert rows[-1][0] == "summary"
    assert "survivors=0" in rows[-1][-1]


def test_galois_command_writes_survivor_rows(capsys, monkeypatch):
    # at a circle tolerance of 1e-3 the near-misses of (8, 11) survive
    monkeypatch.setattr("chtriangle.cyclotomic.DEFAULT_CIRCLE_TOL", 1e-3)
    monkeypatch.setattr("chtriangle.cyclotomic.DEFAULT_NEAR_TOL", 1e-3)
    report = refute_finite_order(8, 11, max_l=48)
    assert report.survivors and not report.near_misses
    code, out, _ = run_cli(capsys, "galois", "--m", "8", "--n", "11", "--max-l", "48")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[:-1] == [
        ["survivor", str(s.candidate.l), *map(str, s.candidate.k), f"{s.circle_gap:.12g}",
         str(s.conductor), "---", "---", "true" if s.phi.holds else "false", ""]
        for s in report.survivors
    ]
    assert f"survivors={len(report.survivors)}" in rows[-1][-1]


def test_galois_command_builds_its_csv_rows_for_csv_only(capsys, monkeypatch):
    states = []
    emit = cli._emit

    def spy(record, columns, rows, fmt):
        text = emit(record, columns, rows, fmt)
        states.append(inspect.getgeneratorstate(rows))
        return text

    monkeypatch.setattr(cli, "_emit", spy)
    argv = ["galois", "--m", "8", "--n", "11", "--max-l", "60"]
    assert run_cli(capsys, *argv, "--format", "json")[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    assert states == [inspect.GEN_CREATED, inspect.GEN_CLOSED]


def test_galois_command_json(capsys, monkeypatch):
    argv = ["galois", "--m", "inf", "--n", "7", "--max-l", "20", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["results"]["survivors"] == []
    assert record["results"]["candidates_checked"] > 0
    assert record["tolerances"] == {"circle_tol": 1e-8, "near_tol": 1e-3}
    # the record reports the tolerances the engine read
    monkeypatch.setattr("chtriangle.cyclotomic.DEFAULT_NEAR_TOL", 0.05)
    code, out, _ = run_cli(capsys, *argv)
    record = json.loads(out)
    assert record["tolerances"] == {"circle_tol": 1e-8, "near_tol": 0.05}
    assert record["results"]["near_tol"] == 0.05


def test_galois_command_json_keeps_timing_out_of_results(capsys):
    code, out, _ = run_cli(capsys, "galois", "--m", "8", "--n", "11", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert "elapsed_seconds" not in record["results"]
    assert record["diagnostics"]["elapsed_seconds"] >= 0.0
    code, out, _ = run_cli(capsys, "galois", "--m", "8", "--n", "11")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1][0] == "summary" and " elapsed=" in rows[-1][-1]


@pytest.mark.parametrize("m, n", [("inf", "inf"), ("8", "inf"), ("1", "7"), ("8", "2")])
def test_galois_command_refuses_bad_orders(capsys, m, n):
    code, out, err = run_cli(capsys, "galois", "--m", m, "--n", n)
    assert code == 2 and out == ""
    assert "must be" in err


def test_galois_command_refuses_equal_orders(capsys):
    code, _, err = run_cli(capsys, "galois", "--m", "8", "--n", "8")
    assert code == 2
    assert "m = n" in err or "equal" in err


def test_galois_command_rejects_nonpositive_max_l(capsys):
    for max_l in ("0", "-3"):
        code, out, err = run_cli(capsys, "galois", "--m", "8", "--n", "11", "--max-l", max_l)
        assert code == 2 and out == ""
        assert "max_l must be at least 1" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _all_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_actions(sub)


def test_parser_defaults_are_immutable():
    # main reuses one top-level parser and the four command parsers under
    # it, which is safe only without mutable defaults
    for action in _all_actions(build_parser()):
        assert action.default is None or isinstance(
            action.default, (str, int, float, bool, tuple)
        ), action.dest


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_main_calls_do_not_share_parsed_state(capsys):
    code, out, _ = run_cli(capsys, "galois", "--m", "inf", "--n", "7", "--max-l", "8",
                           "--format", "json")
    assert code == 0 and json.loads(out)["parameters"]["max_l"] == 8
    code, out, _ = run_cli(capsys, "galois", "--m", "8", "--n", "11")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "kind"
    assert rows[-1][:2] == ["summary", "60"]


def _reference_main(argv):
    """main as it was before commands were parsed by their own parser:
    the top-level parser reads all of argv, then the command's handler runs."""
    args = build_parser().parse_args(argv)
    try:
        record, columns, rows = cli._HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"chtriangle {args.command}: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(cli._emit(record, columns, rows, args.format))
    return 0


def _outcome(capsys, run, argv):
    """(exit code or SystemExit code, stdout, stderr) of run(argv), with
    galois's timing dropped from stdout."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, re.sub(r'(elapsed=|"elapsed_seconds": )\S+', r"\1", out), err


GALOIS_SMALL = ["galois", "--m", "8", "--n", "11"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["--vers"], ["--version", "tables", "1"],
    ["galois"], ["galois", "-h"], ["tables", "1", "-h"],
    [*GALOIS_SMALL, "--max", "5"],
    ["galois", "--m=8", "--n=11", "--max-l=5", "--format=json"],
    [*GALOIS_SMALL, "--bogus"], [*GALOIS_SMALL, "extra"], ["gal", "--m", "8"],
    ["--", "tables", "1"], ["tables", "1", "--", "x"], ["tables", "9"],
    ["tables", "1", "--version"],
    ["scan", "--test", "re", "--m", "8", "--n", "11", "--form", "json"],
    ["tables", "--format", "json", "2"],
    ["scan", "--test", "bogus", "--m", "8", "--n", "5"],
    ["classify", "--m", "8", "--n", "11", "--theta", "-0.3", "--word", "123"],
    # the top-level parser finds "--=x" ambiguous before the command's parser runs
    [*GALOIS_SMALL, "--=x"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_main_answers_as_the_top_level_parse(capsys, argv):
    assert _outcome(capsys, main, argv) == _outcome(capsys, _reference_main, argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--m", "inf", "--n", "4", "--theta", "pi/4", "--word", "123"],
    SCAN_RE_8_11,
    ["tables", "1", "--format", "json"],
    GALOIS_8_11,
], ids=lambda argv: argv[0])
def test_main_parses_a_valid_command_once(capsys, monkeypatch, argv):
    # a valid command is parsed by its own parser only, never again by the top level
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a valid command")

    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""
