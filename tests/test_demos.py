"""The demos and ``kstab verify-paper --json`` print byte-identical output.

Each ``demos/*.py``, and the verify-paper command, runs in a fresh
interpreter, and the sha256 of its stdout must match the digest recorded
here.  A change that moves any printed value, or its formatting, fails; one
that changes the output on purpose records the new digests here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_exact_piecewise_volumes.py": "8bd4e62c647f2662b6d17827baea9e8d83f21ea7973348ced5e3878967d5561d",
    "02_divisorial_stability.py": "f6f96896879a4ba7bd27d91971b6f373fae1b9d5ac45a4edf3edfcbd285c1e9b",
    "03_flag_refinement.py": "b6df641bb525bae757e4bdf95fd793e6b3595a2dc7e9367bb93b1f5d05df4681",
    "04_lattice_walkthrough.py": "85cab37c7860196d83b801813480906cff360f3745f18ec9f0b906b8cb72ffb6",
    "05_toric_barycenter.py": "b36dfedaf50b37667113b460b9f7bff588e7cf95bb9d5c705ebc86574aa9f15e",
}


# ``kstab verify-paper --json``: canonical JSON, exit 2 for its one FAIL row, flag:dp4-line
VERIFY_PAPER_DIGEST = "2a2aa9230b6da2ad2420a252dd2eae72236168f62138d08e11619e2cd910b1e2"


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    proc = _run(str(ROOT / "demos" / name))
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]


def test_verify_paper_json_is_unchanged():
    proc = _run("-m", "kstab.cli", "verify-paper", "--json")
    assert proc.returncode == 2
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_PAPER_DIGEST
