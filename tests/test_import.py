"""What importing the package loads, in a fresh interpreter."""

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
