"""The benchmark's out-of-program tracer still fits the program.

``perfbench/spans.py`` wraps pamper's layer functions from outside, by
identity in every module namespace, and its ``finish`` calls
``trees.resolve_threads(None)`` and ``trees.tree_stats``. This runs tiny CLI
commands in-process under that tracer and checks that the spans behind the
benchmark's four exact counts (``kernels.node_counts.calls``,
``recommend.ModelArena.expectations.rows``, ``trees.nodes`` and
``trees.leaves``) and behind the per-query model load
(``trees.model_from_text``) are recorded, so a change that breaks the
tracer fails here in about a second rather than only in a traced
benchmark run.

On the benchmark's own seed-0 tiny train-scale and evaluate-planted inputs,
built here with ``perfbench/workloads.py``, those calls, nodes and leaves
must equal ``perfbench/pinned.json``, so a change that moves a pin fails
tier-1 and not only ``perfbench/smoke.py``.

The benchmark's reference checks in ``perfbench/workloads.py`` walk
``Leaf`` / ``Internal`` nodes themselves; they run here on a tiny trained
model too.
"""
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from pamper.cli import main
from pamper.trees import load_model, tree_stats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    """``perfbench/<name>.py`` as module ``name``, in ``sys.modules`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _tracer(monkeypatch):
    return _load("spans", monkeypatch).Tracer()


def _database(path: Path) -> None:
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(60):
        bits = rng.integers(0, 2, 4)
        name = ("simp", "auto", "blast")[int(bits[0] + bits[1])]
        lines.append(f"{name}, [{','.join(map(str, bits))}]")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _command_of(span, by_id) -> str:
    """Name of the ``cli.cmd_*`` span that a span runs under."""
    while not span[2].startswith("cli.cmd_"):
        span = by_id[span[1]]
    return span[2]


def test_tracer_records_the_spans_behind_the_exact_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAMPER_THREADS", "2")
    db, model = tmp_path / "db.txt", tmp_path / "model.txt"
    _database(db)
    vector = "[1,0,1,1]"
    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        assert main(["train", str(db), str(model)]) == 0
        assert main(["which", str(model), vector]) == 0
        assert main(["why", str(model), vector, "simp"]) == 0
        assert main(["rank", str(model), vector, "simp"]) == 0
        assert main(["evaluate", str(db), "--fraction", "0.25", "--out-dir", str(tmp_path)]) == 0
    finally:
        spans = tracer.finish()
    capsys.readouterr()
    by_id = {span[0]: span for span in spans}

    def named(name):
        return [span for span in spans if span[2] == name]

    trained = named("trees.train")
    assert len(trained) == 2
    stats = [tree_stats(tree) for tree in load_model(model).trees.values()]
    first = trained[0][6]
    assert first["nodes"] == sum(s.internal + s.leaves for s in stats)
    assert first["leaves"] == sum(s.leaves for s in stats)
    assert first["workers"] == 2
    assert all(span[6]["nodes"] > span[6]["leaves"] > 0 for span in trained)

    counts = named("_kernels.node_counts")
    assert counts and all(span[6]["rows"] >= 1 for span in counts)
    assert {_command_of(span, by_id) for span in counts} == {"cli.cmd_train", "cli.cmd_evaluate"}
    for name in ("_kernels.partition", "trees._choose_split", "trees.build_tree"):
        assert named(name), name

    expectations = named("recommend.ModelArena.expectations")
    rows = {}
    for span in expectations:
        command = _command_of(span, by_id)
        rows[command] = rows.get(command, 0) + span[6]["rows"]
    # rank and why step the model's node table themselves and never build an arena.
    assert rows == {"cli.cmd_which": 1, "cli.cmd_evaluate": 15}
    # pamper rank and pamper why answer their vectors, one or a file, in one library call.
    queries = ("batch_rank_method", "batch_why_method", "ModelArena.batch_rank")
    for name in (f"recommend.{query}" for query in queries):
        assert named(name), name
    # query-cli reports the model load of every request as trees.model_from_text.
    loads = {_command_of(span, by_id) for span in named("trees.model_from_text")}
    assert {"cli.cmd_which", "cli.cmd_why", "cli.cmd_rank"} <= loads


def test_benchmark_node_readers_accept_a_trained_model(tmp_path, capsys, monkeypatch):
    _load("spans", monkeypatch)  # workloads.py imports it as a sibling module
    workloads = _load("workloads", monkeypatch)
    model = str(tmp_path / "model.txt")
    _database(tmp_path / "corpus.db")
    assert main(["train", str(tmp_path / "corpus.db"), model]) == 0

    scale = workloads.TrainScale(tmp_path, 0, "tiny")
    scale.prepare()
    assert scale.check_model((tmp_path / "model.txt").read_bytes()) == ""
    query = workloads.ColdCli(tmp_path, 0, "tiny")
    query.load_reference()
    capsys.readouterr()
    for bits in itertools.product("01", repeat=4):
        vector = "[" + ",".join(bits) + "]"
        for argv in (
            ["which", model, vector],
            ["why", model, vector, "simp"],
            ["rank", model, vector, "auto"],
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out == query.expected(argv), argv


def test_training_meets_the_tiny_pinned_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAMPER_THREADS", "2")
    _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))
    seed = workloads.derive(pinned["seed"], "corpus")
    monkeypatch.chdir(tmp_path)
    runs = (
        ("train-scale", workloads.scale_config(), "scale_points", ["train", "train-scale.db", "model.txt"]),
        ("evaluate-planted", workloads.planted_config(), "planted_points",
         ["evaluate", "evaluate-planted.db", "--out-dir", "out"]),
    )
    for name, config, size, argv in runs:
        Path(f"{name}.cfg").write_text(config, encoding="utf-8")
        points = workloads.SIZES["tiny"][size]
        assert main(["gen", f"{name}.cfg", str(points), str(seed), "-o", f"{name}.db"]) == 0
        tracer = _tracer(monkeypatch)
        try:
            tracer.install()
            assert main(argv) == 0
        finally:
            spans = tracer.finish()
        trained = [span[6] for span in spans if span[2] == "trees.train"]
        got = {
            "kernels.node_counts.calls": sum(span[2] == "_kernels.node_counts" for span in spans),
            "trees.nodes": sum(attrs["nodes"] for attrs in trained),
            "trees.leaves": sum(attrs["leaves"] for attrs in trained),
        }
        assert got == {key: pinned["tiny"][name]["counts"][key] for key in got}, name
    capsys.readouterr()


def _expectation_rows(tracer, argv: list[str]) -> int:
    """Rows that ``main(argv)`` passes through ``ModelArena.expectations`` under the tracer."""
    try:
        tracer.install()
        assert main(argv) == 0
    finally:
        spans = tracer.finish()
    return sum(span[6]["rows"] for span in spans if span[2] == "recommend.ModelArena.expectations")


def test_batch_queries_pass_the_pinned_expectation_rows(tmp_path, capsys, monkeypatch):
    # query-cli pins recommend.ModelArena.expectations.rows at one row per
    # vector that which answers: its batch file plus its literal requests.
    db, model = tmp_path / "db.txt", tmp_path / "model.txt"
    _database(db)
    assert main(["train", str(db), str(model)]) == 0
    rows = 2 * 1024 + 5  # more than two recommend._BLOCK_ROWS blocks
    bits = np.random.default_rng(5).integers(0, 2, (rows, 4))
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"[{','.join(map(str, row))}]\n" for row in bits), encoding="utf-8")
    tracer = _tracer(monkeypatch)
    assert _expectation_rows(tracer, ["which", str(model), str(vectors)]) == rows
    json_argv = ["which", str(model), str(vectors), "--json", "-k", "1"]
    assert _expectation_rows(tracer, json_argv) == rows
    assert _expectation_rows(tracer, ["which", str(model), "[1,0,1,1]"]) == 1
    assert _expectation_rows(tracer, ["rank", str(model), str(vectors), "simp"]) == 0
    assert _expectation_rows(tracer, ["rank", str(model), str(vectors), "auto", "--json"]) == 0
    capsys.readouterr()
