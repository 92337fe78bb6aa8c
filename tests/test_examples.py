"""Every script under ``examples/`` runs to completion.

The examples import the package's public names, so each one runs in a
fresh interpreter with only ``src`` on the path, as the README shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr
