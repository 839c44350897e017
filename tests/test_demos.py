"""The demo scripts run to completion against the library in src/.

Demo 04 (the C12(4,5) Groebner identities, about 9 s) is left out to keep
this module under a couple of seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_graph_catalog.py", "02_automorphisms_and_witnesses.py",
         "03_commutation_certificates.py", "05_full_classification.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=ROOT, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
