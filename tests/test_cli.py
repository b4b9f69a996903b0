import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pamper
from pamper import cli, recommend
from pamper.cli import main
from pamper.corpus import FeatureCatalog, parse_database, parse_vector, parse_vectors
from pamper.recommend import rank_method, render_explanation, render_recommendation, which_method
from pamper.trees import Leaf, ModelSet, load_model, save_model, used_features

from cli_helpers import run_main
from oracles import random_tree, ranking, reference_which_text, reference_why

DB_TEXT = "simp, [1,0]\nsimp, [1,1]\nauto, [0,1]\nauto, [0,0]\n"
VECTORS_TEXT = "# queries\n[1,0]\n\n[0,1]\n"

WHICH_BLOCK = (
    "Promising methods for this proof goal are:\n"
    "  simp with expectation of 1.000\n"
    "  auto with expectation of 0.000\n"
)


@pytest.fixture
def db(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text(DB_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def model(tmp_path, db, capsys):
    path = tmp_path / "model.txt"
    assert main(["train", db, str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_train_summary_and_model_file(tmp_path, db, capsys):
    out = tmp_path / "m.txt"
    assert main(["train", db, str(out)]) == 0
    printed = capsys.readouterr().out
    lines = printed.splitlines()
    assert lines[0] == f"model written to {out}"
    assert lines[1] == "methods: 2  points: 4  features: 2  depth limit: 5"
    assert lines[2] == "  auto: depth=1 splits=1 leaves=2"
    assert lines[3] == "  simp: depth=1 splits=1 leaves=2"
    text = out.read_text(encoding="utf-8")
    assert text.startswith("pamper-model v1 features=2 depth=5\n")
    loaded = load_model(str(out))
    assert set(loaded.trees) == {"auto", "simp"}


def test_train_max_depth_flag(tmp_path, db, capsys):
    out = tmp_path / "m.txt"
    assert main(["train", db, str(out), "--max-depth", "1"]) == 0
    assert "depth=1\n" in out.read_text(encoding="utf-8").splitlines()[0] + "\n"
    assert load_model(str(out)).max_depth == 1


def test_which_literal_golden(model, capsys):
    assert main(["which", model, "[1,0]"]) == 0
    assert capsys.readouterr().out == WHICH_BLOCK


def test_which_batch_file_and_k(tmp_path, model, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(VECTORS_TEXT, encoding="utf-8")
    assert main(["which", model, str(vectors), "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "Promising methods for this proof goal are:\n"
        "  simp with expectation of 1.000\n"
        "Promising methods for this proof goal are:\n"
        "  auto with expectation of 1.000\n"
    )


def _tied_model(rng) -> ModelSet:
    """Twelve methods whose leaves take four values, 0.0 and -0.0 among them."""
    trees = {f"m{i:02d}": random_tree(rng, 5, 3, (0.0, -0.0, 0.25, 0.5)) for i in range(10)}
    trees.update({"z.0": Leaf(0.0, 3), "z-": Leaf(-0.0, 3)})
    return ModelSet(5, trees, max_depth=3)


def _lines(text: str) -> list[str]:
    """``text`` as its lines with their endings, so a mismatch is reported by line."""
    return text.splitlines(keepends=True)


def _vector_file(path, rows) -> str:
    path.write_text("# queries\n" + "".join(f"[{','.join(map(str, row))}]\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("k", [None, 1, 4, 12, 40])
def test_batch_which_prints_the_per_row_answers(tmp_path, capsys, k):
    rng = np.random.default_rng(71)
    model = _tied_model(rng)
    save_model(model, str(tmp_path / "model.txt"))
    rows = rng.integers(0, 2, (2 * recommend._BLOCK_ROWS + 37, 5)).tolist()
    argv = ["which", str(tmp_path / "model.txt"), _vector_file(tmp_path / "v.txt", rows)]
    argv += [] if k is None else ["-k", str(k)]
    keep = 15 if k is None else k
    rankings = [ranking(model, row) for row in rows]
    for as_json in (False, True):
        assert main(argv + ["--json"] * as_json) == 0
        want = "".join(reference_which_text(r[:keep], 12, as_json) for r in rankings)
        assert _lines(capsys.readouterr().out) == _lines(want)
    # A k below 12 cuts through ties in some rows; a larger one prints both zeros.
    if keep < 12:
        assert any(r[keep - 1][1] == r[keep][1] for r in rankings)
    else:
        assert '"z-", "expectation": -0.0}' in want and '"z.0", "expectation": 0.0}' in want
    for row in rows[:: len(rows) // 40]:
        literal = str(row).replace(" ", "")
        assert main(["which", str(tmp_path / "model.txt"), literal] + argv[3:]) == 0
        want = render_recommendation(which_method(model, row, keep)) + "\n"
        assert capsys.readouterr().out == want


def test_batch_rank_prints_the_per_row_ranks(tmp_path, capsys):
    rng = np.random.default_rng(73)
    model = _tied_model(rng)
    save_model(model, str(tmp_path / "model.txt"))
    rows = rng.integers(0, 2, (recommend._BLOCK_ROWS + 5, 5)).tolist()
    vectors = _vector_file(tmp_path / "v.txt", rows)
    orders = [[name for name, _ in ranking(model, row)] for row in rows]
    for method in ("m03", "z-", "z.0"):
        ranks = [1 + order.index(method) for order in orders]
        assert main(["rank", str(tmp_path / "model.txt"), vectors, method]) == 0
        assert _lines(capsys.readouterr().out) == [f"{method} {r} out of 12\n" for r in ranks]
        assert main(["rank", str(tmp_path / "model.txt"), vectors, method, "--json"]) == 0
        assert _lines(capsys.readouterr().out) == [
            json.dumps({"method": method, "rank": r, "total": 12}) + "\n" for r in ranks
        ]
        assert ranks[:50] == [rank_method(model, row, method)[0] for row in rows[:50]]


def test_batch_why_prints_the_per_row_paths(tmp_path, capsys):
    rng = np.random.default_rng(79)
    trees = {f"m{i}": random_tree(rng, 3, 4) for i in range(4)}
    trees["base"] = Leaf(0.4119, 7)
    model = ModelSet(3, trees, max_depth=4)
    save_model(model, str(tmp_path / "model.txt"))
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("1\tthe goal is an equation\n", encoding="utf-8")
    described = model.with_catalog(FeatureCatalog({1: "the goal is an equation"}))
    assert 1 in used_features(model)
    rows = rng.integers(0, 2, (recommend._BLOCK_ROWS + 5, 3)).tolist()
    vectors = _vector_file(tmp_path / "v.txt", rows)
    for method in trees:
        argv = ["why", str(tmp_path / "model.txt"), vectors, method]
        paths = [reference_why(model, row, method) for row in rows]
        assert main(argv) == 0
        assert _lines(capsys.readouterr().out) == _lines(
            "".join(render_explanation(path) + "\n" for path in paths)
        )
        assert main(argv + ["--json"]) == 0
        assert _lines(capsys.readouterr().out) == [
            json.dumps({
                "method": method,
                "expectation": path.expectation,
                "steps": [
                    {"feature": step.feature, "value": step.value, "description": step.description}
                    for step in path.steps
                ],
            }) + "\n"
            for path in paths
        ]
        assert main(argv + ["--catalog", str(catalog)]) == 0
        assert _lines(capsys.readouterr().out) == _lines("".join(
            render_explanation(reference_why(described, row, method)) + "\n" for row in rows
        ))
    # The last method, "base", is one leaf.
    assert render_explanation(paths[0]) == "No branching features; baseline expectation 0.4119."


def test_parse_vectors_matches_stacked_literals():
    lines = [line for line in VECTORS_TEXT.splitlines() if line.startswith("[")]
    want = np.stack([parse_vector(line, 2) for line in lines])
    got = parse_vectors(VECTORS_TEXT, 2)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


def test_which_vector_file_errors_exit_2(tmp_path, model, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("[1,0]\n# wide\n[1,0,1]\n", encoding="utf-8")
    assert main(["which", model, str(vectors)]) == 2
    assert capsys.readouterr().err == "pamper: line 3: vector has 3 entries, model expects 2\n"
    vectors.write_text("# nothing here\n\n", encoding="utf-8")
    assert main(["which", model, str(vectors)]) == 2
    assert capsys.readouterr().err == f"pamper: no vectors found in {vectors}\n"


def test_which_json(model, capsys):
    assert main(["which", model, "[1,0]", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["total_methods"] == 2
    assert record["ranked"][0] == {"method": "simp", "expectation": 1.0}
    assert record["ranked"][1] == {"method": "auto", "expectation": 0.0}


def test_which_width_mismatch_exits_2(model, capsys):
    assert main(["which", model, "[1,0,1]"]) == 2
    assert capsys.readouterr().err == "pamper: vector has 3 entries, model expects 2\n"


def test_which_empty_vector_exits_2(model, capsys):
    assert main(["which", model, "[]"]) == 2
    assert capsys.readouterr().err == "pamper: line 1: feature flag must be 0 or 1, got ''\n"


def test_rank_golden_and_json(model, capsys):
    assert main(["rank", model, "[1,0]", "simp"]) == 0
    assert capsys.readouterr().out == "simp 1 out of 2\n"
    assert main(["rank", model, "[1,0]", "auto", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "method": "auto",
        "rank": 2,
        "total": 2,
    }


def test_unknown_method_exits_2(model, capsys):
    assert main(["rank", model, "[1,0]", "zap"]) == 2
    assert "unknown method: zap" in capsys.readouterr().err
    assert main(["why", model, "[1,0]", "zap"]) == 2
    assert "unknown method: zap" in capsys.readouterr().err


def test_why_with_and_without_catalog(tmp_path, model, capsys):
    assert main(["why", model, "[1,0]", "simp"]) == 0
    assert capsys.readouterr().out == "Because feature #0 holds.\n"
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n", encoding="utf-8")
    assert main(["why", model, "[1,0]", "simp", "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == "Because the goal is an equation.\n"
    assert main(["why", model, "[0,1]", "simp", "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == (
        "Because it is not true that the goal is an equation.\n"
    )


def test_why_json(model, capsys):
    assert main(["why", model, "[1,0]", "simp", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "simp"
    assert record["expectation"] == 1.0
    assert record["steps"] == [
        {"feature": 0, "value": True, "description": "feature #0 holds"}
    ]


def _evaluation_db(tmp_path, n=80):
    rng = np.random.default_rng(6)
    lines = []
    for _ in range(n):
        bits = rng.integers(0, 2, 3)
        name = "simp" if bits[0] else "auto"
        lines.append(f"{name}, [{bits[0]},{bits[1]},{bits[2]}]")
    path = tmp_path / "eval_db.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_evaluate_writes_reports(tmp_path, capsys):
    db_path = _evaluation_db(tmp_path)
    out_dir = tmp_path / "reports"
    code = main(
        ["evaluate", db_path, "--fraction", "0.3", "--seed", "1",
         "--top", "3", "--out-dir", str(out_dir)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    for name in ("report.txt", "report.csv", "fig2.csv", "fig3.csv"):
        assert (out_dir / name).is_file()
    table = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert printed == table + f"report files written to {out_dir}\n"
    assert table.splitlines()[0].startswith("proof method")
    assert "training points:" in table
    csv = (out_dir / "report.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == (
        "method,training,training_pct,evaluation,evaluation_pct,top1,top2,top3"
    )
    assert (out_dir / "fig2.csv").read_text(encoding="utf-8").splitlines()[0] == "rank,count"
    assert (out_dir / "fig3.csv").read_text(encoding="utf-8").splitlines()[0] == "k,ge25,ge50,ge75,ge90"


def test_evaluate_deterministic_reports(tmp_path, capsys):
    db_path = _evaluation_db(tmp_path)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["evaluate", db_path, "--seed", "4", "--out-dir", str(d)]) == 0
    capsys.readouterr()
    for name in ("report.txt", "report.csv", "fig2.csv", "fig3.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_evaluate_tiny_corpus(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("simp, [1]\nsimp, [0]\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(
        ["evaluate", str(path), "--fraction", "0.5", "--seed", "0",
         "--top", "1", "--out-dir", str(out_dir)]
    )
    assert code == 0
    table = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "training points: 1" in table
    assert "evaluation points: 1" in table
    capsys.readouterr()


GOLDEN_CONFIG = """\
features = 10
noise = 0.05
rule 0.3 : 0=1 -> simp:0.7, auto:0.3
rule 0.2 : 1=1, 2=0 -> induct:0.8, blast:0.2
rule 0.006 : 3=1 -> rare:1.0
rule 0.004 : 4=1 -> lone:1.0
fallback zipf 1.2 : auto simp blast force metis
"""
# sha256 of each output of the pipeline below; any byte drift in gen or evaluate fails here.
# The split leaves "rare" with no evaluation points and "lone" unlearned.
GOLDEN_DIGESTS = {
    "db.txt": "b85bc8116348645915a64f1f6b6f49a3aee550fdc635605a9591236d71fd7e1b",
    "stdout": "eefd0cbc74f224d0e2818334bd7cc0b62128445ec3df63e239519814d89e2b0b",
    "report.txt": "29cb11bd25bbbf9f16a0484423d7a7cc74b4fa6fe77142d749a1502af6e73b1d",
    "report.csv": "fa3e6ce02fe670d85d6db414bf58d6f9b4ce9bb16405c708465443db92a57949",
    "fig2.csv": "178c75d4e247fc5892769eb19b350444861a0236f605a4cb49d796ed21cf3b79",
    "fig3.csv": "5762980b5b173fdec395bb6443b43cc35173253976d8e66b8d39828fe000791d",
}


def test_gen_and_evaluate_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "planted.txt"
    config.write_text(GOLDEN_CONFIG, encoding="utf-8")
    db_path, out_dir = tmp_path / "db.txt", tmp_path / "reports"
    assert main(["gen", str(config), "800", "11", "-o", str(db_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(db_path), "--fraction", "0.25", "--seed", "3",
                 "--top", "4", "--out-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>").encode()
    outputs = {"db.txt": db_path.read_bytes(), "stdout": stdout}
    for name in ("report.txt", "report.csv", "fig2.csv", "fig3.csv"):
        outputs[name] = (out_dir / name).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == GOLDEN_DIGESTS


# sha256 of `pamper train`'s model file and stdout on the golden corpus, per flag set.
TRAIN_GOLDEN_DIGESTS = {
    (): {
        "model.txt": "80ac661a239e5f84fec3ca132f82f369b1d580eea577ee3dce39a46429774204",
        "stdout": "f745f5a984f90361aed8f07f218c1fdb4ac41bfbbbd73736b9ef584bdbf714ef",
    },
    ("--max-depth", "2", "--min-split", "40"): {
        "model.txt": "10c106dce5689295541c51c820703b1dbb17c450eeca7eda19d2ff091fff9f9d",
        "stdout": "8d10d21c9d6e3f81852c9d1c6c7d12fdb444527d2a7697e6801165689984b7ba",
    },
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags", list(TRAIN_GOLDEN_DIGESTS))
def test_train_bytes_are_pinned(tmp_path, capsys, monkeypatch, flags, threads):
    config = tmp_path / "planted.txt"
    config.write_text(GOLDEN_CONFIG, encoding="utf-8")
    db_path, model_path = tmp_path / "db.txt", tmp_path / "model.txt"
    assert main(["gen", str(config), "800", "11", "-o", str(db_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("PAMPER_THREADS", threads)
    assert main(["train", str(db_path), str(model_path), *flags]) == 0
    stdout = capsys.readouterr().out.replace(str(model_path), "<model>").encode()
    outputs = {"model.txt": model_path.read_bytes(), "stdout": stdout}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == TRAIN_GOLDEN_DIGESTS[flags]


# sha256 of each query command's stdout over QUERY_ROWS vectors, on the golden corpus's
# default model.
QUERY_ROWS = 2 * 1024 + 5
QUERY_GOLDEN_DIGESTS = {
    "which": "ce123f016eb775758862d9248e564517571f31fb02fcd59361647ce053f4db49",
    "which --json": "a88076f6dffb75100615276e137c69ef6732f5fb23ea942fc1778e33257305db",
    "rank simp": "33fd615b4465129e24d6f196dc56446d8b1c11e9603346bc818c5dbd5ddc2e8c",
    "rank simp --json": "3dcf5ffc569b3b72c5137a5d93c9351e032b61bf9b6c2f947568df5cd0591c0e",
    "why simp": "d9dc61d5d7681b8ccf200184507378647d295f941a768d4ae10303d0a0df0037",
    "why simp --json": "2bde0004ece7025c31580a31d481eb764cc0e395c6d6d196d6ac69a3422130bf",
    "why simp --catalog {catalog}": "2567fbd6cfded1475f4d8fc43bec5b250d3a77a23ad6db7741551fd28351c088",
}


def test_query_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "planted.txt"
    config.write_text(GOLDEN_CONFIG, encoding="utf-8")
    db_path, model_path = tmp_path / "db.txt", str(tmp_path / "model.txt")
    assert main(["gen", str(config), "800", "11", "-o", str(db_path)]) == 0
    assert main(["train", str(db_path), model_path]) == 0
    capsys.readouterr()
    rows = np.random.default_rng(17).integers(0, 2, (QUERY_ROWS, 10)).tolist()
    vectors = _vector_file(tmp_path / "v.txt", rows)
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n7\tthe goal has a quantifier\n")
    digests = {}
    for key in QUERY_GOLDEN_DIGESTS:
        command, *rest = [arg.format(catalog=catalog) for arg in key.split()]
        assert main([command, model_path, vectors, *rest]) == 0
        digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == QUERY_GOLDEN_DIGESTS


def test_prune_lists_used_features(tmp_path, model, capsys):
    assert main(["prune", model]) == 0
    assert capsys.readouterr().out == "0\n"
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n", encoding="utf-8")
    assert main(["prune", model, "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == "0\tthe goal is an equation\n"
    assert main(["inspect", model]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  auto: depth=1 splits=1 leaves=2",
        "  simp: depth=1 splits=1 leaves=2",
    ]
    saved = tmp_path / "saved.txt"
    save_model(load_model(model), str(saved))
    assert saved.read_bytes() == Path(model).read_bytes()


def test_prune_leaf_only_model_prints_nothing(tmp_path, capsys):
    db_path = tmp_path / "one.txt"
    db_path.write_text("simp, [1,0]\nsimp, [0,1]\n", encoding="utf-8")
    model_path = tmp_path / "leafy.txt"
    assert main(["train", str(db_path), str(model_path)]) == 0
    capsys.readouterr()
    assert main(["prune", str(model_path)]) == 0
    assert capsys.readouterr().out == ""


GEN_CONFIG = """\
features = 3
rule 0.6 : 0=1 -> simp:1.0
fallback : auto:1.0
"""


def test_gen_stats_train_pipeline(tmp_path, capsys):
    cfg = tmp_path / "planted.txt"
    cfg.write_text(GEN_CONFIG, encoding="utf-8")
    db_path = tmp_path / "gen_db.txt"
    assert main(["gen", str(cfg), "200", "5", "-o", str(db_path)]) == 0
    assert capsys.readouterr().out == f"200 points written to {db_path}\n"

    assert main(["stats", str(db_path)]) == 0
    stats_out = capsys.readouterr().out.splitlines()
    assert stats_out[0].split() == ["method", "count", "percent"]
    assert stats_out[-1] == "total points: 200"
    counts = [int(line.split()[1]) for line in stats_out[1:-1]]
    percents = [float(line.split()[2]) for line in stats_out[1:-1]]
    assert sum(counts) == 200
    assert round(sum(percents), 6) == 100.0

    model_path = tmp_path / "gen_model.txt"
    assert main(["train", str(db_path), str(model_path)]) == 0
    capsys.readouterr()
    assert main(["which", str(model_path), "[1,0,0]", "-k", "1"]) == 0
    assert "simp" in capsys.readouterr().out


def test_gen_to_stdout(tmp_path, capsysbinary):
    cfg = tmp_path / "planted.txt"
    cfg.write_text(GEN_CONFIG, encoding="utf-8")
    assert main(["gen", str(cfg), "5", "1"]) == 0
    corpus = parse_database(capsysbinary.readouterr().out)
    assert len(corpus) == 5
    # Both routes go through one block writer: 5000 rows are two blocks of it.
    out = tmp_path / "out.db"
    assert main(["gen", str(cfg), "5000", "1"]) == 0
    written = capsysbinary.readouterr().out
    assert main(["gen", str(cfg), "5000", "1", "-o", str(out)]) == 0
    assert capsysbinary.readouterr().out == f"5000 points written to {out}\n".encode()
    assert out.read_bytes() == written


def test_unreadable_paths_exit_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("pamper: ")
    assert main(["inspect", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "stats", "evaluate", "which"])
@pytest.mark.parametrize("kind", ["empty", "directory", "missing"])
def test_unreadable_input_paths_keep_their_message(tmp_path, model, command, kind):
    # Databases and vector files are parsed from an open handle; opening it fails as reading did.
    path = {"empty": "", "directory": str(tmp_path), "missing": str(tmp_path / "no.db")}[kind]
    argv = {
        "train": ["train", path, str(tmp_path / "model.txt")],
        "stats": ["stats", path],
        "evaluate": ["evaluate", path, "--out-dir", str(tmp_path / "out")],
        "which": ["which", model, path],
    }[command]
    reason = "[Errno 21] Is a directory" if kind == "directory" else "[Errno 2] No such file or directory"
    assert run_main(argv) == (2, "", f"pamper: {reason}: {path!r}\n")


def test_malformed_inputs_exit_2(tmp_path, model, capsys):
    bad_db = tmp_path / "bad.txt"
    bad_db.write_text("simp [1,0]\n", encoding="utf-8")
    assert main(["stats", str(bad_db)]) == 2
    assert "line 1" in capsys.readouterr().err
    bad_db.write_bytes(b"simp, [1,0]\nsimp, [\xff\xfe]\n")
    assert main(["stats", str(bad_db)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["which", model, "[1,2]"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind,argv",
    [
        ("model", ["inspect", "{bad}"]),
        ("model", ["which", "{bad}", "[1,0]"]),
        ("catalog", ["why", "{model}", "[1,0]", "simp", "--catalog", "{bad}"]),
        ("catalog", ["prune", "{model}", "--catalog", "{bad}"]),
        ("config", ["gen", "{bad}", "5", "1"]),
        ("vectors", ["which", "{model}", "{bad}"]),
        ("vectors", ["rank", "{model}", "{bad}", "simp"]),
    ],
)
def test_non_utf8_inputs_exit_2(tmp_path, model, capsys, kind, argv):
    # Line 1 of each file is valid; line 2 holds a byte that is not UTF-8.
    # test_malformed_inputs_exit_2 covers the database.
    first_line = {
        "model": b"pamper-model v1 features=2 depth=5\n",
        "catalog": b"0\tthe goal is an equation\n",
        "config": b"features = 2\n",
        "vectors": b"[1,0]\n",
    }[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(first_line + b"x\xff\n")
    assert main([arg.format(bad=bad, model=model) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pamper: line 2: not valid UTF-8 (byte 0xff)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["why", "{model}", "[1,0]", "simp", "--catalog", "{catalog}"],
        ["prune", "{model}", "--catalog", "{catalog}"],
    ],
)
def test_catalog_index_out_of_range_names_its_line(tmp_path, model, capsys, argv):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n5\tno such feature\n", encoding="utf-8")
    assert main([arg.format(model=model, catalog=catalog) for arg in argv]) == 2
    assert capsys.readouterr().err == (
        "pamper: line 2: catalog index 5 out of range for 2 features\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["why", "{model}", "[1,0]", "simp", "--catalog", "{catalog}"],
        ["prune", "{model}", "--catalog", "{catalog}"],
    ],
)
def test_catalog_duplicate_index_names_its_line(tmp_path, model, capsys, argv):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("1\tone\n# comment\n1\talso one\n", encoding="utf-8")
    assert main([arg.format(model=model, catalog=catalog) for arg in argv]) == 2
    assert capsys.readouterr().err == "pamper: line 3: duplicate feature index 1\n"


@pytest.mark.parametrize(
    "value,message",
    [
        ("x", "PAMPER_THREADS must be an integer, got 'x'"),
        ("-1", "PAMPER_THREADS must be nonnegative, got -1"),
    ],
)
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_pamper_threads_exits_2(tmp_path, db, capsys, monkeypatch, value, message, command):
    monkeypatch.setenv("PAMPER_THREADS", value)
    out = tmp_path / "out"
    argv = ["train", db, str(out)] if command == "train" else ["evaluate", db, "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"pamper: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config,line",
    [
        ("features = 3\nfallback : a:nan, b:1\n", 2),
        ("features = 3\nrule nan : 0=1 -> a:1\nfallback : a:1\n", 2),
        ("features = 3\nfallback zipf nan : a b\n", 2),
    ],
)
def test_gen_rejects_nan_in_config(tmp_path, capsys, config, line):
    cfg = tmp_path / "planted.txt"
    cfg.write_text(config, encoding="utf-8")
    assert main(["gen", str(cfg), "5", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pamper: line {line}: ")


@pytest.mark.parametrize(
    "config,message",
    [
        ("features = 0\nfallback : a:1\n", "line 1: feature count must be positive"),
        ("features = 3\nnoise = 2\nfallback : a:1\n", "line 2: noise must lie in [0, 1]"),
        (
            "features = 3\nfallback : a:1\nrule 0.5 : 5=1 -> b:1\n",
            "line 3: pattern index 5 out of range for 3 features",
        ),
        (
            "features = 3\nrule 0.6 : 0=1 -> a:1\nrule 0.6 : 1=1 -> b:1\nfallback : a:1\n",
            "line 3: rule weights sum past 1",
        ),
    ],
)
def test_gen_config_errors_name_their_line(tmp_path, config, message):
    cfg = tmp_path / "planted.txt"
    cfg.write_text(config, encoding="utf-8")
    assert run_main(["gen", str(cfg), "5", "1"]) == (2, "", f"pamper: {message}\n")


def _deep_model_text(depth: int) -> str:
    # One path of `depth` distinct features, each taken when its bit is clear.
    body = "".join(f"N({i}," for i in range(depth)) + "L(0.5,1)" + ",L(0.25,2))" * depth
    return f"pamper-model v1 features={depth} depth={depth}\nm\t{body}\nn\tL(0.75,3)\n"


def test_deep_model_commands_and_round_trip(tmp_path, capsys):
    depth = 3000
    text = _deep_model_text(depth)
    path = tmp_path / "deep.txt"
    path.write_text(text, encoding="utf-8")
    zeros = "[" + ",".join("0" * depth) + "]"
    first = "[1" + ",0" * (depth - 1) + "]"

    assert main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"  m: depth={depth} splits={depth} leaves={depth + 1}",
        "  n: depth=0 splits=0 leaves=1",
    ]
    assert main(["which", str(path), zeros]) == 0
    assert capsys.readouterr().out == (
        "Promising methods for this proof goal are:\n"
        "  n with expectation of 0.7500\n"
        "  m with expectation of 0.5000\n"
    )
    assert main(["which", str(path), first, "-k", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ranked"] == [{"method": "n", "expectation": 0.75}]
    assert main(["why", str(path), zeros, "m"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == depth
    assert lines[-1] == f"Because it is not true that feature #{depth - 1} holds."
    assert main(["prune", str(path)]) == 0
    assert capsys.readouterr().out == "".join(f"{i}\n" for i in range(depth))

    saved = tmp_path / "saved.txt"
    save_model(load_model(str(path)), str(saved))
    assert saved.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("command", [["inspect"], ["prune"], ["which", "[1,0]"]])
def test_model_wider_than_a_numpy_index_exits_2(tmp_path, command):
    # The node table indexes features as intp, and no query vector could be this wide.
    wide = np.iinfo(np.intp).max + 1
    path = tmp_path / "wide.txt"
    text = f"pamper-model v1 features={wide} depth=1\nm\tN({wide - 1},L(0.5,1),L(0,1))\n"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_main([command[0], str(path), *command[1:]])
    assert (code, out) == (2, "")
    assert err == f"pamper: line 1: feature_count must fit a numpy intp, got {wide}\n"


@pytest.mark.parametrize("declared,code", [(3001, 0), (5, 2)])
def test_deep_nesting_exits_0_or_2(tmp_path, capsys, declared, code):
    # 3000 nested N(0, on one line, under a header that allows or forbids it.
    body = "N(0," * 3000 + "L(0,1)" + ",L(1,1))" * 3000
    path = tmp_path / "deep.txt"
    path.write_text(f"pamper-model v1 features=1 depth={declared}\nm\t{body}\n", encoding="utf-8")
    assert main(["inspect", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err == "pamper: line 2: tree deeper than declared depth 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["which", "{model}", "[1,0]", "-k", "two"],
        ["train", "{db}", "{out}", "--catalog", "{db}"],
    ],
)
def test_bad_flag_syntax_exits_2(tmp_path, db, model, argv):
    paths = {"db": db, "model": model, "out": str(tmp_path / "out.txt")}
    code, _, err = run_main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert "error: " in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["which", "{model}", "[1,0]", "-k", "0"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--fraction", "1.5"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--fraction", "nan"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--top", "0"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--seed", "-1"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--min-split", "0"],
        ["train", "{db}", "{out}", "--max-depth", "0"],
        ["train", "{db}", "{out}", "--min-split", "0"],
        ["evaluate", "{db}", "--out-dir", "{out}", "--max-depth", "0"],
        ["gen", "{config}", "-1", "1", "-o", "{out}"],
        ["gen", "{config}", "5", "-1", "-o", "{out}"],
        ["gen", "{config}", "3", "1", "-o", ""],
        ["evaluate", "{db}", "--out-dir", ""],
        ["why", "{model}", "[1,0]", "simp", "--catalog", ""],
        ["prune", "{model}", "--catalog", ""],
    ],
)
def test_bad_flag_values_exit_2(tmp_path, db, model, argv, monkeypatch):
    # argparse only parses these; the library object that takes the value
    # rejects it, and an empty path is no path at all rather than "." or stdout.
    config = tmp_path / "planted.txt"
    config.write_text(GEN_CONFIG, encoding="utf-8")
    paths = {"db": db, "model": model, "config": config, "out": str(tmp_path / "out.txt")}
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_main([arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("pamper: ") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("top", [str(10**18), str(2**63)])
def test_evaluate_top_past_its_bound_exits_2(tmp_path, db, top):
    out = tmp_path / "out"
    code, _, err = run_main(["evaluate", db, "--top", top, "--out-dir", str(out)])
    assert code == 2
    assert err == f"pamper: top_n must be at most max(15, methods) = 15, got {top}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "out, error",
    [("{file}", "[Errno 17] File exists: '{file}'"),
     ("{file}/x", "[Errno 20] Not a directory: '{file}/x'")],
    ids=["file", "under-a-file"],
)
def test_evaluate_unusable_out_dir_exits_2_before_training(tmp_path, db, out, error, monkeypatch):
    # The out-dir is checked before the database is read, so nothing is trained.
    monkeypatch.setattr("pamper.evaluate.train", None)
    file = tmp_path / "file"
    file.write_text("a regular file\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    code, out_text, err = run_main(["evaluate", db, "--out-dir", out.format(file=file)])
    assert (code, out_text) == (2, "")
    assert err == f"pamper: {error.format(file=file)}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("name", ["report.txt", "report.csv", "fig2.csv", "fig3.csv"])
def test_evaluate_report_file_that_is_a_directory_exits_2_before_reading(
    tmp_path, db, name, monkeypatch
):
    # Checked before the database is read, so no report file is half written.
    monkeypatch.setattr("pamper.cli.parse_database", None)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code, out_text, err = run_main(["evaluate", db, "--out-dir", f"{out}/"])
    assert (code, out_text) == (2, "")
    assert err == f"pamper: [Errno 21] Is a directory: '{out / name}'\n"
    assert sorted(path.name for path in out.iterdir()) == [name]


def test_catalog_commands_build_no_tree_node(tmp_path, model, capsys, monkeypatch):
    # The model with the catalog shares the loaded node table; inspect and the
    # writer read the loaded rows.
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n", encoding="utf-8")

    def built(*args):
        raise AssertionError(f"a tree node was built: {args!r}")

    monkeypatch.setattr("pamper.trees.Leaf", built)
    monkeypatch.setattr("pamper.trees.Internal", built)
    assert main(["why", model, "[1,0]", "simp", "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == "Because the goal is an equation.\n"
    assert main(["prune", model, "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == "0\tthe goal is an equation\n"
    assert main(["inspect", model]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  auto: depth=1 splits=1 leaves=2",
        "  simp: depth=1 splits=1 leaves=2",
    ]
    saved = tmp_path / "saved.txt"
    save_model(load_model(model), str(saved))
    assert saved.read_bytes() == Path(model).read_bytes()


@pytest.mark.parametrize("n", [str(10**18), str(2**63)])
def test_gen_with_too_many_points_exits_2(tmp_path, n):
    config = tmp_path / "planted.txt"
    config.write_text(GEN_CONFIG, encoding="utf-8")
    code, out, err = run_main(["gen", str(config), n, "1"])
    assert (code, out) == (2, "")
    assert err == f"pamper: {n} points of 3 features do not fit in memory\n"
    output = tmp_path / "out.db"
    assert run_main(["gen", str(config), n, "1", "-o", str(output)]) == (2, "", err)
    assert not output.exists()  # generate fails before the output is opened


def test_inspect_summary(model, capsys):
    assert main(["inspect", model]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "methods: 2  features: 2  depth limit: 5"
    assert lines[1] == "  auto: depth=1 splits=1 leaves=2"


def test_internal_error_exits_1_from_the_command_bound_at_call_time(db, capsys, monkeypatch):
    assert main(["stats", db]) == 0  # the parser exists before the command is rebound

    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_stats", broken)
    capsys.readouterr()
    assert main(["stats", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("RuntimeError: broken command\n")


def _child_env() -> dict:
    """The environment of a child that imports the package this test imported, installed or not."""
    src = str(Path(pamper.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(tmp_path, db, model):
    proc = subprocess.run(
        [sys.executable, "-m", "pamper.cli", "which", model, "[1,0]"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == WHICH_BLOCK


def test_a_reader_closing_stdout_early_ends_the_command_with_141_and_no_message(tmp_path, model):
    # The answer (2000 blocks, about 200 KB) outgrows a 64 KB pipe buffer, so the child is
    # still writing when the reader takes one line and closes its end.
    vectors = _vector_file(tmp_path / "v.txt", [[1, 0]] * 2000)
    argv = [sys.executable, "-m", "pamper.cli", "which", model, vectors]
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with subprocess.Popen(argv, env=_child_env(), **pipes) as proc:
        assert proc.stdout.readline() == WHICH_BLOCK.splitlines(keepends=True)[0].encode()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def _commands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_argument_has_help():
    for name, parser in _commands().items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.help, (name, action.dest)
    # The query commands share one vector argument, so each prints the file form.
    helps = {
        name: next(a.help for a in _commands()[name]._actions if a.dest == "vector")
        for name in ("which", "why", "rank")
    }
    assert len(set(helps.values())) == 1, helps
    for name in helps:
        assert "file with one vector per line" in " ".join(_commands()[name].format_help().split())


_PARSES = [
    (["train", "db", "m"], dict(database="db", model="m", max_depth=5, min_split=2)),
    (
        ["train", "db", "m", "--max-depth", "3", "--min-split", "4"],
        dict(database="db", model="m", max_depth=3, min_split=4),
    ),
    (["which", "m", "[1]"], dict(model="m", vector="[1]", k=15, json=False)),
    (["which", "m", "v", "-k", "3", "--json"], dict(model="m", vector="v", k=3, json=True)),
    (["why", "m", "v", "simp"], dict(model="m", vector="v", method="simp", catalog=None, json=False)),
    (
        ["why", "m", "v", "simp", "--catalog", "c", "--json"],
        dict(model="m", vector="v", method="simp", catalog="c", json=True),
    ),
    (["rank", "m", "v", "simp"], dict(model="m", vector="v", method="simp", json=False)),
    (["rank", "m", "v", "simp", "--json"], dict(model="m", vector="v", method="simp", json=True)),
    (
        ["evaluate", "db"],
        dict(database="db", fraction=0.10, seed=0, top=15, out_dir=".", max_depth=5, min_split=2),
    ),
    (
        ["evaluate", "db", "--fraction", "0.25", "--seed", "7", "--top", "3", "--out-dir", "o",
         "--max-depth", "2", "--min-split", "9"],
        dict(database="db", fraction=0.25, seed=7, top=3, out_dir="o", max_depth=2, min_split=9),
    ),
    (["prune", "m"], dict(model="m", catalog=None)),
    (["prune", "m", "--catalog", "c"], dict(model="m", catalog="c")),
    (["gen", "cfg", "10", "3"], dict(config="cfg", n=10, seed=3, output=None)),
    (["gen", "cfg", "10", "3", "-o", "out"], dict(config="cfg", n=10, seed=3, output="out")),
    (["stats", "db"], dict(database="db")),
    (["inspect", "m"], dict(model="m")),
]


@pytest.mark.parametrize("argv, expected", _PARSES, ids=[" ".join(argv) for argv, _ in _PARSES])
def test_the_parser_parses_as_before(argv, expected):
    # Every dest, default and type of each command, so a shared parent cannot change one unseen.
    expected = {"command": argv[0], **expected}
    got = vars(cli._parser().parse_args(argv))
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}
