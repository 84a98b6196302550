import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [path.name for path in sorted(DEMO_DIR.glob("*.py"))])
def test_demo_runs_clean(name):
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
