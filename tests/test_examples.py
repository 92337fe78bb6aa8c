"""Every script under ``examples/`` runs to completion.

The examples import the package's public names, so each one runs in a
fresh interpreter with only ``src`` on the path, as the README shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.genericity.catalog import PAPER_TABLE

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_example(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    child = run_example(script)
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr


def test_classification_table_rows_are_catalog_names():
    # The rows carry the names ``repro classify`` takes, in catalog order.
    child = run_example(ROOT / "examples" / "classification_table.py")
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    end = lines.index("", start)
    names = [line.split("|")[0].strip() for line in lines[start:end]]
    assert names == [entry.name for entry in PAPER_TABLE]
