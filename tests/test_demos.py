import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def test_synthetic_corpus_demo(tmp_path):
    proc = run_demo("01_synthetic_corpus.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "120 frames from 4 subjects" in lines
    assert "  S02: height 1.91 m, weight 95.6 kg, BMI 26.3" in lines
    assert "  S02:      84985   (BMI 26.3)" in lines
    assert "wrote demo_corpus/ (manifest.json, subjects.csv, frames.csv)" in lines
    assert (tmp_path / "demo_corpus" / "frames.csv").is_file()


def test_denoising_demo():
    proc = run_demo("02_denoising.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "glitch value before/after median: 900.0 -> 100.0" in lines
    assert ("  smoothed: [' 127.2', ' 222.1', ' 301.3', ' 222.1', "
            "' 154.5', ' 222.1', ' 301.3', ' 249.3']") in lines


def test_multitask_training_demo():
    # Training output past the first iterations depends on the BLAS thread
    # count, so only lines that hold at any count are checked.
    proc = run_demo("04_multitask_training.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("stopped after 200 iterations (max_iterations), ")
    assert lines[1].startswith("loss: 357.082 -> ") and lines[1].endswith("(monotone: True)")
    assert "training identity accuracy: 1.000" in lines
    assert "BMI class head training accuracy: 1.000" in lines


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


@pytest.mark.slow
def test_cross_validation_demo():
    # The mtnet row depends on the BLAS thread count; the kNN, GNB and least
    # squares rows and the drop-column ranking do not.
    proc = run_demo("05_cross_validation.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "360 frames, 10 folds" in lines
    assert "knn       0.997+/-0.009          - 0.997+/-0.009" in lines
    assert "gnb       0.989+/-0.014          - 0.989+/-0.014" in lines
    assert "linreg                - 0.971+/-0.009            -" in lines
    assert "  variance           +0.0028" in lines
