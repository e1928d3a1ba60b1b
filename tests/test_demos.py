"""Each demo prints the bytes recorded for it: a fresh interpreter runs
demos/*.py with PYTHONPATH=src, and the sha256 of its stdout must match."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout; a demo whose output changes, or a new demo
# with no digest here, fails until its digest is recorded
DIGESTS = {
    "01_diamond_generating_functions.py":
        "b8131b763c2590775ccf75c9455c3cf024f24596d5e464255f6fabcd9b90e8d1",
    "02_eulerian_connection.py":
        "fe494f4e2eb807d36ebc92aae66f6d966ac583bfa041f20745b673e92593596c",
    "03_omega_elimination.py":
        "64a45e079eec6e3a1c718eb936d40b0bc86b3da283deb543af8c6b774340cc0a",
    "04_congruence_tour.py":
        "57b87dd2d214d8f54549a4df345e58472a74e214cf95813219632e69abc7e2ed",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_prints_its_recorded_bytes(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS.get(demo.name)
