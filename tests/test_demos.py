"""Each demo prints the same bytes as when its output was pinned.

The demos are deterministic, so a change that keeps behaviour must keep
their stdout byte for byte; a change that means to alter it re-pins the
digest here and says why.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DIGESTS = {
    "01_build_sets.py":
        "e1e3c9ad576dbbdd87e6f1c020c05e36838f51bf1911962df0955cdaca14dd91",
    "02_language_growth.py":
        "525d0423dab2c3dab22d23259c6b0bd068c07a99e486482a7560359bf7b263f8",
    "03_structure_witnesses.py":
        "d43969e29d29ed9b888a3007f58a6af5894e0e6a035fe3a59510f28de3f9ee80",
    "04_orbits.py":
        "c0355f1b2ff5ee8906a0d65bcfd8da12e0d55cf55a5a45b535be2b6edbd85ce9",
    # re-pinned when the chain search was rooted at 1: the squares
    # depth-5 note reads "outcome: none" where it read "exhausted its budget"
    "05_experiments.py":
        "00297f17a1c500b3e4ea335d82305801bb89f2718b1102aac433cc6a45d8fc7a",
}


@pytest.mark.parametrize("name", sorted(
    path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS.get(name)
