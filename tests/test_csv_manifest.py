"""The figure CSVs at fixed seeds match the recorded sha256 manifest.

``scripts/csv_identity.py`` runs its job list on this tree's ``src/`` in a
subprocess with the BLAS and OpenMP threads pinned to 1. A change that
alters numbers on purpose regenerates the manifest with
``python scripts/csv_identity.py --change . --write-manifest tests/csv_manifest.json``
and says so in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_csvs_match_the_manifest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "csv_identity.py"),
         "--manifest", str(ROOT / "tests" / "csv_manifest.json"), "--change", str(ROOT)],
        capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("jobs: identical")
