import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pamper
from pamper.cli import main
from pamper.corpus import parse_database, parse_vector, parse_vectors
from pamper.trees import load_model, save_model

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


def test_prune_lists_used_features(tmp_path, model, capsys):
    assert main(["prune", model]) == 0
    assert capsys.readouterr().out == "0\n"
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("0\tthe goal is an equation\n", encoding="utf-8")
    assert main(["prune", model, "--catalog", str(catalog)]) == 0
    assert capsys.readouterr().out == "0\tthe goal is an equation\n"


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


def test_gen_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "planted.txt"
    cfg.write_text(GEN_CONFIG, encoding="utf-8")
    assert main(["gen", str(cfg), "5", "1"]) == 0
    corpus = parse_database(capsys.readouterr().out)
    assert len(corpus) == 5


def test_unreadable_paths_exit_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("pamper: ")
    assert main(["inspect", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


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
        ("features = 3\nfallback : a:nan, b:1\n", None),
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
    assert captured.err.startswith("pamper: " if line is None else f"pamper: line {line}: ")


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
        ["which", "{model}", "[1,0]", "-k", "0"],
        ["which", "{model}", "[1,0]", "-k", "two"],
        ["evaluate", "{db}", "--fraction", "1.5"],
        ["evaluate", "{db}", "--fraction", "nan"],
        ["evaluate", "{db}", "--top", "0"],
        ["evaluate", "{db}", "--seed", "-1"],
        ["evaluate", "{db}", "--min-split", "0"],
        ["train", "{db}", "{out}", "--max-depth", "0"],
        ["train", "{db}", "{out}", "--min-split", "0"],
        ["train", "{db}", "{out}", "--catalog", "{db}"],
        ["gen", "{db}", "5", "-1"],
    ],
)
def test_bad_flag_values_exit_2(tmp_path, db, model, capsys, argv):
    paths = {"db": db, "model": model, "out": str(tmp_path / "out.txt")}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_inspect_summary(model, capsys):
    assert main(["inspect", model]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "methods: 2  features: 2  depth limit: 5"
    assert lines[1] == "  auto: depth=1 splits=1 leaves=2"


def test_module_entry_point(tmp_path, db, model):
    # The child imports the package this test imported, installed or not.
    src = str(Path(pamper.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pamper.cli", "which", model, "[1,0]"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == WHICH_BLOCK
