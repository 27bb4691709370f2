"""Every script under ``demos/`` runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, checkout_env, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=checkout_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
