"""The JSON document rule: every JSON loader goes through ``dataset.read_json``.

A malformed manifest, posture table, model or report raises the loader's
error class with a message that starts with the file's path, never a bare
KeyError, TypeError, AttributeError or JSONDecodeError.
"""

import ast
import json
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import pressmat
from pressmat import mtnet
from pressmat.dataset import (
    CorpusLoadError, GridSpec, load_corpus, load_posture_table, save_corpus,
)
from pressmat.evalharness import EvaluationReport, KnnRecipe, make_folds, run_cv
from pressmat.features import extract_table
from pressmat.synthgen import generate_corpus

# document name, as errors give it: (file in the reader's directory,
#     load(directory), error class, a required key, an entry of the wrong type)
READERS = {
    "corpus manifest": ("manifest.json", lambda d: load_corpus(str(d)), CorpusLoadError,
                        "rows", {"feature_mask": 5}),
    "posture table": ("table.json", lambda d: load_posture_table(str(d / "table.json")),
                      ValueError, "1", {"2": []}),
    "model": ("model.json", lambda d: mtnet.load_model(str(d / "model.json")), ValueError,
              "config", {"weights": 5}),
    "report": ("report.json", lambda d: EvaluationReport.load(str(d / "report.json")),
               ValueError, "aggregate", {"config_echo": 5}),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Reader name -> a directory whose files that reader loads."""
    root = tmp_path_factory.mktemp("documents")
    corpus = generate_corpus(n_subjects=5, frames_per_subject=8, postures=("supine",),
                             grid=GridSpec(8, 8, 1000.0, 1.5), seed=3)
    save_corpus(corpus, str(root / "corpus manifest"),
                extra_manifest={"provenance": {"seed": 3}})
    table = extract_table(corpus)
    model = mtnet.train(table.active_matrix(), table.subject_ids, table.bmi,
                        mtnet.TrainConfig(max_iterations=1), feature_mask=table.mask)
    mtnet.fit_bmi_class_head(model, table.active_matrix(), table.bmi_classes(),
                             max_iterations=1)
    (root / "model").mkdir()
    mtnet.save_model(model, str(root / "model" / "model.json"))
    report = run_cv(table, KnnRecipe(k=3), make_folds(table.subject_ids, n_folds=4, seed=0))
    (root / "report").mkdir()
    report.save(str(root / "report" / "report.json"))
    (root / "posture table").mkdir()
    (root / "posture table" / "table.json").write_text(
        json.dumps({str(k): v for k, v in load_posture_table().items()}))
    return {name: root / name for name in READERS}


def with_document(valid, name, directory, text):
    """Copy ``name``'s valid files into ``directory`` and replace its document
    by ``text``; the replaced file's path."""
    shutil.copytree(valid[name], directory)
    path = directory / READERS[name][0]
    path.write_text(text)
    return path


def document(valid, name) -> dict:
    return json.loads((valid[name] / READERS[name][0]).read_text())


@pytest.mark.parametrize("case", ["truncated", "list", "missing key", "wrong type"])
@pytest.mark.parametrize("name", list(READERS))
def test_malformed_document_raises_the_loaders_error_naming_the_path(
        valid, tmp_path, name, case):
    _, load, error, required, wrong = READERS[name]
    doc = document(valid, name)
    text = {
        "truncated": json.dumps(doc)[:40],
        "list": "[]",
        "missing key": json.dumps({k: v for k, v in doc.items() if k != required}),
        "wrong type": json.dumps({**doc, **wrong}),
    }[case]
    path = with_document(valid, name, tmp_path / "c", text)
    with pytest.raises(ValueError) as info:
        load(tmp_path / "c")
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path}: not a {name}: ")


@pytest.mark.parametrize("name, key_path, value", [
    ("model", ("weights", 0, 0, 0), None),
    ("model", ("biases", 1, 0), None),
    ("model", ("norm_mean", 0), None),
    ("model", ("class_head", "weight", 0, 0), None),
    ("model", ("class_head", "bias", 0), 1e999),
    ("model", ("feature_mask",), "x" * 14),
    ("corpus manifest", ("feature_mask",), ["false"] * 14),
])
def test_non_finite_array_or_non_boolean_mask_raises_naming_the_path(
        valid, tmp_path, name, key_path, value):
    _, load, error, *_ = READERS[name]
    doc = document(valid, name)
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    path = with_document(valid, name, tmp_path / "c", json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load(tmp_path / "c")
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path}: not a {name}: ")


@pytest.mark.parametrize("name", list(READERS))
def test_valid_document_loads(valid, name):
    READERS[name][1](valid[name])


def key_paths(doc: dict, prefix=()):
    """The path of every entry reachable through nested objects."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@pytest.mark.parametrize("name", ["corpus manifest", "model", "report"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_document_loads_or_names_its_path(valid, name, data):
    doc = document(valid, name)
    path = data.draw(st.sampled_from(sorted(key_paths(doc))), label="key path")
    value = data.draw(st.sampled_from(["drop", 5, "x", [], None]), label="new value")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp) / "c"
        file = with_document(valid, name, directory, json.dumps(doc))
        # a manifest's grid can also surface as an error in frames.csv
        prefix = f"{directory}/" if name == "corpus manifest" else f"{file}: "
        try:
            READERS[name][1](directory)
        except ValueError as e:
            assert type(e) is READERS[name][2], repr(e)
            assert str(e).startswith(prefix), str(e)


PACKAGE = pathlib.Path(pressmat.__file__).parent


@pytest.mark.parametrize("module, importers", [
    ("json", ["dataset.py"]),
    ("shutil", ["dataset.py"]),
    ("tempfile", []),  # the one write rule makes its own sibling names
    ("csv", ["adapters.py", "dataset.py"]),  # adapters reads its raw header
    ("scipy", []),  # numpy is the only runtime dependency
])
def test_only_the_file_rule_imports(module, importers):
    def imports(source: str) -> bool:
        return any(
            (isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == module for a in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module)
            for node in ast.walk(ast.parse(source))
        )

    assert sorted(p.name for p in PACKAGE.glob("*.py") if imports(p.read_text())) == importers


def test_one_csv_writer():
    assert [(p.name, p.read_text().count("csv.writer")) for p in PACKAGE.glob("*.py")
            if "csv.writer" in p.read_text()] == [("dataset.py", 1)]
