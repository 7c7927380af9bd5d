"""What importing the package loads, in a fresh interpreter, and what it
exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import momentforge

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


# exported names that nothing in the package calls, each kept for a reason
UNCALLED_EXPORTS = {
    "flow_derivative": "the Lie-algebra oracle for H(f): 2 H(f)_ij from exp(t E_ij) alone",
    "fixed_point_check": "the exact certificate that closed-form output will carry",
    "canonical_representative": "the definition of the orbit representatives "
                                "that orbit_classes builds from bitmasks",
}


def test_every_export_has_a_caller_or_a_reason():
    package = Path(momentforge.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # names read in the package's modules: a definition or an __all__ string is no use
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(exported - used - UNCALLED_EXPORTS.keys()) == []
    assert sorted(UNCALLED_EXPORTS.keys() - exported) == []
