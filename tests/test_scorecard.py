import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scorecard", ROOT / "tools" / "scorecard.py")
scorecard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scorecard)

PER_SEED = {
    *(f"{corpus}/{name}" for corpus in ("raw", "clean", "clean_m5")
      for name in ("manifest.json", "subjects.csv", "frames.csv")),
    *(f"{table}{ext}" for table in ("features.csv", "features_m5.csv")
      for ext in ("", ".meta.json")),
    "model.json",
    *(f"eval_{r}.{ext}" for r in ("mtnet", "knn", "gnb", "linreg") for ext in ("json", "csv")),
    *(f"importance_{r}.json" for r in ("knn", "gnb", "linreg")),
}


def test_two_runs_digest_every_output_alike(tmp_path):
    first = scorecard.run(tmp_path / "a", subjects=2, frames=10)
    second = scorecard.run(tmp_path / "b", subjects=2, frames=10)
    assert set(first) == {f"s{seed}/{name}" for seed in scorecard.SEEDS for name in PER_SEED}
    assert first == second
    assert scorecard.total_digest(first) == scorecard.total_digest(second)


def test_line_counts_cover_every_module_and_the_script():
    counts = scorecard.line_counts()
    modules = {p.relative_to(ROOT).as_posix() for p in (ROOT / "src" / "pressmat").glob("*.py")}
    assert set(counts) == modules | {"tools/scorecard.py"}
    assert counts["tools/scorecard.py"] == (ROOT / "tools" / "scorecard.py").read_text().count("\n")
