"""The benchmark's own checkers, run as a tier-1 test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_checkers_accept_true_and_reject_corrupted_answers():
    # perfbench/selftest.py imports presmat from this checkout's src/ and
    # exits 0 only when every checker accepts every true answer and rejects
    # every corruption of it
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest: ok")
