"""Every script under ``examples/`` runs to completion.

The examples are the user-facing tour of the public API — among them
``custom_strategy.py``, a strategy that records through the command
queue by hand (the paper's environment interface) — so each one runs in
its own interpreter, from a scratch working directory, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
# Scripts that write files take an output directory as their argument.
ARGS = {"simulation_to_visualization.py": lambda tmp: [str(tmp / "run")]}


def test_examples_exist():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ARGS.get(script.name, lambda tmp: [])(tmp_path)
    result = subprocess.run([sys.executable, str(script), *args],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
