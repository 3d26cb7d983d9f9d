import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_features_and_isolines_demo():
    proc = run_demo("03_features_and_isolines.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  num_isolines            19.0000" in lines
    assert "14 contour levels, step 20: 20 .. 280" in lines
    assert "  level    40: 1 isoline(s) (closed)" in lines
    assert "  level   160: 2 isoline(s) (closed, closed)" in lines
    assert ("level 20 rings both bumps: 1 lines; "
            "level 200 rings only the 300-peak: 1 line(s)") in lines
