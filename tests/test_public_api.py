"""The public surface: exported names, CLI arguments and record keys.

Each list here is explicit, so that adding, removing or renaming a
public name, a flag or a record key shows up as a deliberate test edit.
"""

import argparse
import json

import pytest

import chtriangle
from chtriangle.cli import build_parser, main

PUBLIC_NAMES = [
    "CandidateTrace", "Classification", "CyclotomicInt", "HeisenbergPoint", "INFINITY",
    "IsometricSphere", "IsometryClass", "NondiscretenessReport", "RefutationReport",
    "ScanResult", "TableResult", "TriangleGroup", "TriangleType", "boundary_action",
    "build_mn_inf", "build_n_inf_inf", "classify", "criteria",
    "cvector", "cyclotomic", "cygan_distance", "discriminant", "euler_phi",
    "form_inverse", "heis_inverse", "heis_mul", "heis_norm", "heisenberg",
    "heisenberg_translation", "hermitian_form", "involution_from_polar",
    "is_unitary_for_form", "isometric_sphere", "jorgensen_condition", "linalg",
    "nondiscreteness_report", "normalize_to_su", "order_k_locus", "phi_inequality",
    "psi", "refute_finite_order", "regular_elliptic_criterion", "reproduce_table",
    "scan_intervals", "shimizu_condition", "shimizu_violation", "trace",
    "trace_circle_rightmost", "trace_word_123", "trace_word_3132", "triangles",
    "word_3132_analysis", "word_order_cos_window",
]

#: option strings of each subcommand in definition order; a positional
#: argument appears as its name
COMMAND_ARGUMENTS = {
    "classify": ["-h", "--help", "--m", "--n", "--theta", "--word", "--format"],
    "scan": ["-h", "--help", "--test", "--m", "--n", "--format"],
    "tables": ["-h", "--help", "which", "--format"],
    "galois": ["-h", "--help", "--m", "--n", "--max-l", "--format"],
}

RECORD_KEYS = ["command", "parameters", "tolerances", "version", "results"]

#: a small run of each command, with its record's keys
COMMAND_RECORDS = {
    "classify": (
        ["--m", "inf", "--n", "4", "--theta", "pi/4", "--word", "123"],
        RECORD_KEYS,
        ["m", "n", "theta", "word"],
        ["discriminant_band"],
    ),
    "scan": (
        ["--test", "re", "--m", "8", "--n", "11"],
        RECORD_KEYS,
        ["test", "m", "n"],
        ["endpoint_bracket"],
    ),
    "tables": (
        ["1"],
        RECORD_KEYS,
        ["which"],
        ["endpoint_bracket", "display_decimals"],
    ),
    "galois": (
        ["--m", "8", "--n", "11", "--max-l", "20"],
        RECORD_KEYS + ["diagnostics"],
        ["m", "n", "max_l"],
        ["circle_tol", "near_tol"],
    ),
}


def _arguments(parser):
    return [s for a in parser._actions for s in (a.option_strings or [a.dest])]


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_public_names():
    assert chtriangle.__all__ == PUBLIC_NAMES


def test_top_level_arguments():
    parser = build_parser()
    assert _arguments(parser) == ["-h", "--help", "--version", "command"]
    assert list(_subcommands(parser)) == list(COMMAND_ARGUMENTS)


@pytest.mark.parametrize("command", COMMAND_ARGUMENTS)
def test_command_arguments(command):
    assert _arguments(_subcommands(build_parser())[command]) == COMMAND_ARGUMENTS[command]


@pytest.mark.parametrize("command", COMMAND_RECORDS)
def test_command_record_keys(capsys, command):
    argv, keys, parameters, tolerances = COMMAND_RECORDS[command]
    assert main([command, *argv, "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == keys
    assert list(record["parameters"]) == parameters
    assert list(record["tolerances"]) == tolerances
