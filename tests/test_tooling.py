"""The benchmark's smoke mode, run as a user would run it.

``perfbench/run.py --smoke`` runs every op kind once on 1/1 fixtures through
``assoc2.cli.main`` with its tracing wrappers installed by module and
function name, so it fails when a traced function is renamed, moved, or no
longer reached through its module's globals.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke passed" in proc.stdout
    assert "traced functions or spans that never ran: none" in proc.stdout
