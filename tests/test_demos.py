"""Smoke test: every script in demos/ runs to completion and prints the
same bytes as before."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_rings_and_grassmannians.py": "8c5792d1c85e599d40d41bc08b4aea7ae47c37e8b03f4b731e52c93c1496cb32",
    "02_building_the_complex.py": "7afb29132e0b853c3eca75cb274e1680e23e19d66806109d9052789a7faef018",
    "03_homology_and_rank_table.py": "fb9f266ed023c48cecee5b2126aa448f006a13d7b29a95a285b441588d5fb0aa",
    "04_apartments_and_eta.py": "e4c865208727daf50aa7f24303a60619c931d2ff69a897cad2e2ea44524fbea2",
    "05_congruence_and_orbits.py": "22b6b003926ae84689bb08d26213956c2eabcc0d28c254c3c3ee90aa725e26a4",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[path.name]
