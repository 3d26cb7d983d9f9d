"""Scorecard: one SHA-256 per output of a fixed CLI run set, and source lines.

For each seed it runs, on a tiny synthetic cohort at one BLAS thread:
synth -> preprocess -> features, and preprocess --median-window 5 ->
features; eval of the four recipes (mtnet at --max-iter 30) with
--per-fold-csv; importance of knn, gnb and linreg; and train --max-iter 30.
It prints one digest per output file, one over all of them, and the lines
of each module under src/ and of this script:

    python tools/scorecard.py

Digests depend on the machine (its BLAS kernels, numpy's SIMD exp and log),
so compare two trees on one machine, never against a stored value. The
commands run inside the work directory with relative paths, because the
outputs echo their arguments.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20240901, 777)
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def commands(seed: int, subjects: int, frames: int) -> list[list[str]]:
    """The CLI run set of one seed, writing under ``s<seed>/``."""
    d = f"s{seed}"
    fit = ["--features", f"{d}/features.csv", "--seed", str(seed), "--max-iter", "30"]
    return [
        ["synth", "--subjects", str(subjects), "--frames-per-subject", str(frames),
         "--noise-mult", "0.1", "--noise-dropout", "0.02", "--noise-jitter", "0.5",
         "--seed", str(seed), "--out", f"{d}/raw"],
        ["preprocess", "--in", f"{d}/raw", "--out", f"{d}/clean"],
        ["features", "--in", f"{d}/clean", "--out", f"{d}/features.csv"],
        ["preprocess", "--in", f"{d}/raw", "--out", f"{d}/clean_m5", "--median-window", "5"],
        ["features", "--in", f"{d}/clean_m5", "--out", f"{d}/features_m5.csv"],
        *(["eval", "--recipe", r, *fit, "--report-out", f"{d}/eval_{r}.json",
           "--per-fold-csv", f"{d}/eval_{r}.csv"] for r in ("mtnet", "knn", "gnb", "linreg")),
        *(["importance", "--recipe", r, *fit, "--out", f"{d}/importance_{r}.json"]
          for r in ("knn", "gnb", "linreg")),
        ["train", *fit, "--model-out", f"{d}/model.json"],
    ]


def run(workdir, subjects: int = 6, frames: int = 20) -> dict[str, str]:
    """Run the set in ``workdir``; the SHA-256 of every file it holds afterwards,
    keyed by relative path in sorted order."""
    workdir = Path(workdir)
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **THREADS, "PYTHONPATH": path}
    for seed in SEEDS:
        (workdir / f"s{seed}").mkdir(parents=True)
        for argv in commands(seed, subjects, frames):
            subprocess.run([sys.executable, "-m", "pressmat.cli", *argv],
                           cwd=workdir, env=env, check=True)
    return {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def total_digest(digests: dict[str, str]) -> str:
    """One SHA-256 over every ``<digest>  <path>`` line, in path order."""
    lines = "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def line_counts() -> dict[str, int]:
    """Newline count (as ``wc -l``) of each src/ module and of this script."""
    files = sorted((ROOT / "src" / "pressmat").glob("*.py")) + [Path(__file__).resolve()]
    return {p.relative_to(ROOT).as_posix(): p.read_bytes().count(b"\n") for p in files}


def main() -> int:
    print(" ".join(f"{k}={v}" for k, v in THREADS.items()), "seeds", *SEEDS)
    with tempfile.TemporaryDirectory() as workdir:
        digests = run(workdir)
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    print(f"{total_digest(digests)}  total over {len(digests)} outputs")
    lines = line_counts()
    for name, n in lines.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(n for name, n in lines.items() if name.startswith('src/')):6d}  src/ total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
