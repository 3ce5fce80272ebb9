"""The README's tolerance list and the library's tolerance constants stay
in step: every module-level constant of src/chtriangle named EPS_*, *_TOL,
*_BAND or *_SLACK is cited in README.md as `module.NAME`, and every such
citation names an attribute its module has."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = r"EPS_\w+|\w+_(?:TOL|BAND|SLACK)"


def tolerance_constants():
    found = set()
    for path in sorted((ROOT / "src" / "chtriangle").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(
                    f"{path.stem}.{t.id}" for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(NAME, t.id)
                )
    return found


def readme_citations():
    text = (ROOT / "README.md").read_text()
    return set(re.findall(rf"`(\w+\.(?:{NAME}))`", text))


def test_every_tolerance_constant_is_cited_in_the_readme():
    constants = tolerance_constants()
    assert "criteria.MERGE_TOL" in constants and "linalg.NULL_BAND" in constants
    assert constants - readme_citations() == set()


def test_every_readme_tolerance_citation_resolves():
    citations = readme_citations()
    assert "classify.EPS_DISCRIMINANT" in citations
    for citation in sorted(citations):
        module, name = citation.split(".")
        assert hasattr(importlib.import_module(f"chtriangle.{module}"), name), citation
