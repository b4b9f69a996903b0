"""The benchmark's out-of-program tracer still fits the program.

``perfbench/spans.py`` wraps pamper's layer functions from outside, by
identity in every module namespace, and its ``finish`` calls
``trees.resolve_threads(None)`` and ``trees.tree_stats``. This runs tiny CLI
commands in-process under that tracer and checks that the spans behind the
benchmark's four exact counts (``kernels.node_counts.calls``,
``recommend.ModelArena.expectations.rows``, ``trees.nodes`` and
``trees.leaves``) are recorded, so a change that breaks the tracer fails
here in about a second rather than only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np

from pamper.cli import main
from pamper.trees import load_model, tree_stats

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


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
    tracer = _tracer()
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
    # rank and why walk the trees themselves and never reach the arena.
    assert rows == {"cli.cmd_which": 1, "cli.cmd_evaluate": 15}
    for name in ("recommend.rank_method", "recommend.why_method", "recommend.ModelArena.batch_rank"):
        assert named(name), name
