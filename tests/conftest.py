"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorbench


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O``, which strips ``assert``.

    The script can import colorbench and the test modules; the fixture
    checks that it exits 0 and returns its stripped stdout.
    """
    path = [str(Path(colorbench.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(script: str) -> str:
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    return run
