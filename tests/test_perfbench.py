"""The benchmark still runs against the library.

``perfbench/run.py`` calls the library the way a user would; a change to
one of those calls (a method turned into an attribute, a renamed
keyword) would otherwise only show up when the benchmark runs.  This
loads the script in a fresh interpreter, because its set-up re-imports
every qsym module, and runs each workload's op and check on its first
input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMOKE = """
import run
for cls in run.WORKLOADS.values():
    wl = cls(run.Env())
    name, desc = wl.inputs()[0]
    kind, decided, _ = wl.check(name, desc, wl.op(desc))
    print(name, kind, decided)
"""


def test_each_workload_runs_and_checks_its_first_input():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", SMOKE], cwd=ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "6K2 HasQuantumSymmetry True",
        "C5 NoQuantumSymmetry True",
        "K3@4 commutative True",
    ]
