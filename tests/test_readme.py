"""README's walkthrough and library examples, run as written.

The planted config and the feature catalog are written from their ``text``
blocks, every ``$ pamper`` command of the walkthrough runs in-process, and
the printed output of ``gen``, ``which``, ``why``, ``rank`` and ``evaluate``
must match the text shown under it. Both ``python`` blocks of "Library use" then run in order, in
one namespace, against the same database.
"""
import contextlib
import io
import re
import shlex
from pathlib import Path

from cli_helpers import run_main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)
BLOCKS = FENCE.findall(README)
LIBRARY = [body for lang, body in FENCE.findall(README.partition("## Library use")[2])
           if lang == "python"]
CHECKED = {"gen", "which", "why", "rank", "evaluate"}  # train's shown output elides trees with "..."


def _commands(block: str) -> list[tuple[list[str], str]]:
    """Each ``$ ...`` line of an sh block with the output shown under it, up to the next ``$``."""
    runs = []
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, _, shown = chunk.partition("\n")
        runs.append((shlex.split(command), shown.rstrip("\n") + "\n"))
    return runs


def test_readme_walkthrough_and_library_examples_run_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("planted.txt", "catalog.txt"):
        body = next(body for lang, body in BLOCKS if body.startswith(f"# {name}\n"))
        Path(name).write_text(body, encoding="utf-8")
    printed = {}
    for argv, shown in (run for lang, body in BLOCKS if lang == "sh" for run in _commands(body)):
        if argv[0] != "pamper":
            continue
        code, out, err = run_main(argv[1:])
        assert (code, err) == (0, ""), argv
        if argv[1] in CHECKED:
            assert out == shown, argv
            printed[argv[1]] = out
    assert set(printed) == CHECKED

    assert len(LIBRARY) == 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for body in LIBRARY:
            exec(compile(body, "README.md", "exec"), namespace)
    # The library's which_method ranks what the walkthrough's CLI printed.
    ranked = re.findall(r"^  (\S+) with expectation", printed["which"], re.M)
    assert re.findall(r"\('([^']+)', ", out.getvalue()) == ranked == ["simp", "simp_all", "auto"]
    report = namespace["report"]
    assert f"training points: {report.total_train}\n" in printed["evaluate"]
    assert f"evaluation points: {report.total_eval}\n" in printed["evaluate"]
