"""The training tests also pass at one BLAS thread.

Trained weights depend on the BLAS summation order, so a change can pass at
the machine's default thread count and fail at one thread. The fast tests of
every file whose verdicts rest on trained weights (mtnet, L-BFGS, the
cross-validation harness and the demos) are rerun here in a subprocess
pinned to one thread; the main run keeps the default count.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_training_tests_pass_at_one_blas_thread():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "not slow",
         "tests/test_mtnet.py", "tests/test_lbfgs.py", "tests/test_evalharness.py",
         "tests/test_demos.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert " passed" in result.stdout, result.stdout
