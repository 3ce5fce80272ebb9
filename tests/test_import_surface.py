"""The import surface, each case in a fresh interpreter: the package and
the commands that need no matrices load no numpy, the name `classify`
stays the function, and every public name is its defining module's
object.  Also read from the source: every module-level import of the
package is used, and so is every module-level private name."""

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


def test_the_shared_first_block_is_built_at_the_first_galois_call():
    # import and the commands that never refute leave it unbuilt, so
    # set-up, tables and scans pay nothing for it; two galois calls then
    # evaluate the first block's discriminant once, at the first call, and
    # that of each later block of the second call once; the block is read
    # once per call
    out = run_fresh("""
        import contextlib, io, sys
        from chtriangle import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tables", "1"]) == 0
        assert "chtriangle.cyclotomic" not in sys.modules
        from chtriangle import cyclotomic
        assert cyclotomic._shared_block.cache_info().currsize == 0
        sizes = []
        discriminant = cyclotomic.discriminant

        def recorded(z):
            sizes.append(z.size)
            return discriminant(z)

        cyclotomic.discriminant = recorded
        with contextlib.redirect_stdout(io.StringIO()):
            for max_l in (10, 120):
                assert cli.main(["galois", "--m", "8", "--n", "11", "--max-l", str(max_l)]) == 0
        info = cyclotomic._shared_block.cache_info()
        counts = cyclotomic._shared_block(-1.0 + cyclotomic.DEFAULT_NEAR_TOL + 1e-9)[0]
        first = int(counts[-1, 0])
        blocks = len(list(cyclotomic._order_blocks(120)))
        print(info.misses, info.hits, sizes[0] == first, sizes.count(first), len(sizes) == blocks)
    """)
    assert out == "1 1 True 1 True\n"


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


def _bound_names(node) -> list:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_private_names(sources: dict) -> list:
    """(file, name) for each module-level private name (one leading
    underscore) bound by a def, class or assignment in sources that no
    statement but its own reads, in file and definition order.  A read is
    a loaded name, a loaded attribute or a name in an import, since every
    import is itself read (test above)."""
    defined = []
    readers = {}
    for path, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            defined += [(path, name, i) for name in _bound_names(node)
                        if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                readers.setdefault(name, set()).add((path, i))
    return [(path, name) for path, name, i in defined
            if not readers.get(name, set()) - {(path, i)}]


def test_every_module_level_private_name_is_read():
    assert unread_private_names({
        "a.py": "import math\n_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = 3\n"
                "def _dead(n):\n    return _dead(n - 1) if n else _A\n"
                "class _Used:\n    pass\n",
        "b.py": "from a import _B as b\nimport a\na._Used\nb\n",
    }) == [("a.py", "_dead")]
    assert unread_private_names({"a.py": "def _f():\n    pass\nself._f = 1\n"}) == [("a.py", "_f")]
    paths = sorted(glob.glob(os.path.join(SRC, "chtriangle", "*.py")))
    assert paths
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sources[os.path.basename(path)] = handle.read()
    assert unread_private_names(sources) == []
