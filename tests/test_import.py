"""What importing the package loads, in a fresh interpreter, what it
exports, and that none of its checks is an ``assert``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import momentforge
from momentforge import critical, diagonal, reproduce, univariate

# modules already loaded at start-up (``site`` may import many) are left out
PROBE = """
import sys
before = set(sys.modules)
import momentforge, momentforge.reproduce
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_or_inspect():
    # the child imports the package from where this process found it
    env = dict(os.environ)
    root = str(Path(momentforge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert "momentforge.reproduce" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# exported or module-level names that nothing in the package calls, each kept
# for a reason
UNCALLED_EXPORTS = {
    "canonical_representative": "the definition of the orbit representatives "
                                "that orbit_classes builds from bitmasks",
}


def test_every_function_and_class_has_a_caller_or_a_reason():
    package = Path(momentforge.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    # names read in the package's modules: a definition or an __all__ string is no use
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            names |= {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(names - used - UNCALLED_EXPORTS.keys()) == []
    assert sorted(UNCALLED_EXPORTS.keys() - names) == []


def test_no_check_is_an_assert():
    # ``python -O`` drops every assert statement, and the check with it
    package = Path(momentforge.__file__).resolve().parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_binds_exists(monkeypatch):
    # the benchmark replaces these bindings while tracing and reads these
    # attributes; a deleted name would otherwise surface only in its own
    # slow test job
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves perfbench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    assert [f"{module.__name__}.{attr}" for module, attr, _ in spans.BINDINGS
            if not hasattr(module, attr)] == []
    modules = {"critical": critical, "diagonal": diagonal, "reproduce": reproduce,
               "univariate": univariate}
    read = {(node.value.id, node.attr)
            for source in (spans, workloads)
            for node in ast.walk(ast.parse(Path(source.__file__).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("critical", "AlgebraicNumber") in read
    assert sorted(f"{name}.{attr}" for name, attr in read
                  if not hasattr(modules[name], attr)) == []
