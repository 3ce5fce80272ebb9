"""The import surface, each case in a fresh interpreter: the package and
the commands that need no matrices load no numpy, the name `classify`
stays the function, and every public name is its defining module's
object.  Also read from the source: every module-level import of the
package is used."""

import ast
import glob
import os
import subprocess
import sys
import textwrap

import chtriangle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chtriangle.__file__)))


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports chtriangle from SRC;
    returns its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_tables_and_scan_load_no_numpy():
    out = run_fresh("""
        import contextlib, io, sys
        import chtriangle
        from chtriangle import cli
        assert "numpy" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert cli.main(["tables", "1"]) == 0
            assert cli.main(["scan", "--test", "re", "--m", "8", "--n", "11"]) == 0
            assert cli.main(["scan", "--test", "shimizu", "--m", "inf", "--n", "7",
                             "--format", "json"]) == 0
        assert "0.93096697112" in text.getvalue()
        chtriangle.scan_intervals("jorgensen", 8, 11)
        chtriangle.nondiscreteness_report(8, 11, 0.3)
        chtriangle.discriminant(3 + 1j)
        print("numpy" in sys.modules)
    """)
    assert out == "False\n"


def test_matrix_commands_load_numpy():
    out = run_fresh("""
        import contextlib, io, sys
        from chtriangle import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["galois", "--m", "8", "--n", "11", "--max-l", "10"]) == 0
        print("numpy" in sys.modules)
    """)
    assert out == "True\n"


def test_classify_stays_the_function_after_its_module_loads():
    out = run_fresh("""
        import sys
        import chtriangle.classify
        import chtriangle
        module = sys.modules["chtriangle.classify"]
        assert chtriangle.classify is module.classify
        from chtriangle import classify
        assert classify is module.classify
        import chtriangle.triangles, chtriangle.cyclotomic
        assert chtriangle.classify is module.classify
        print(type(chtriangle.classify).__name__)
    """)
    assert out == "function\n"


def test_public_names_are_their_defining_modules_objects():
    out = run_fresh("""
        import sys, types
        import chtriangle
        # a submodule read before any import loads through the package
        assert "chtriangle.linalg" not in sys.modules
        assert chtriangle.linalg is sys.modules["chtriangle.linalg"]
        from chtriangle import cli
        count = 0
        for name in chtriangle.__all__:
            obj = getattr(chtriangle, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules["chtriangle." + name], name
            else:
                assert obj is getattr(sys.modules[obj.__module__], name), name
            count += 1
        assert set(chtriangle.__all__) <= set(dir(chtriangle))
        assert not hasattr(chtriangle, "no_such_name")
        assert not hasattr(cli, "no_such_name")
        # the handlers' names still read as attributes of the CLI module
        for name, home in (("classify", "classify"), ("build_mn_inf", "triangles"),
                           ("build_n_inf_inf", "triangles"),
                           ("refute_finite_order", "cyclotomic")):
            assert getattr(cli, name) is getattr(sys.modules["chtriangle." + home], name)
        print(count)
    """)
    assert out == f"{len(chtriangle.__all__)}\n"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of source that no expression
    reads, in import order; `from __future__` imports are skipped."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_module_level_import_is_read():
    assert unused_imports(
        "import math, os.path\nfrom .linalg import hermitian_form as hf, psi\n"
        "from __future__ import annotations\nos.sep\npsi(hf)\n"
    ) == ["math"]
    assert unused_imports("import math\nfrom .linalg import cvector, hermitian_form\n"
                          "def f():\n    return math.pi * cvector(0, 1, 0)\n") == ["hermitian_form"]
    paths = sorted(glob.glob(os.path.join(SRC, "chtriangle", "*.py")))
    assert paths
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            names = unused_imports(handle.read())
        if names:
            unused[os.path.basename(path)] = names
    assert unused == {}
