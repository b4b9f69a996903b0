import ast
import os
import subprocess
import sys
from pathlib import Path

import pamper

REPO = Path(__file__).resolve().parents[1]


def _fresh_interpreter(code: str, *argv: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this test's pamper."""
    src = str(Path(pamper.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_exported_name_resolves():
    missing = [name for name in pamper.__all__ if not hasattr(pamper, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(pamper.__all__) == len(set(pamper.__all__))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pamper import *", namespace)
    assert {name: namespace[name] for name in pamper.__all__} == {
        name: getattr(pamper, name) for name in pamper.__all__
    }


def test_dir_lists_every_export_and_unknown_names_stay_missing():
    assert set(pamper.__all__) <= set(dir(pamper))
    assert not hasattr(pamper, "no_such_name")


def test_cli_import_leaves_out_the_modules_a_query_does_not_run():
    unused = ("concurrent.futures", "pamper.evaluate", "pamper.synth")
    code = f"import sys, pamper.cli; print([m for m in {unused!r} if m in sys.modules])"
    assert _fresh_interpreter(code) == "[]\n"


_DATABASE = "".join(f"{'ab'[i % 2]}, [{i % 2},{i % 3 % 2}]\n" for i in range(40))


def _loaded_after(argv: list[str], modules: tuple[str, ...]) -> str:
    """The ``modules`` in ``sys.modules`` after ``pamper.cli.main(argv)`` in a new interpreter."""
    code = (
        "import sys; from pamper.cli import main; code = main(sys.argv[1:]); "
        f"print('loaded:', [m for m in {modules!r} if m in sys.modules], code)"
    )
    return _fresh_interpreter(code, *argv).rpartition("loaded: ")[2]


def test_evaluate_leaves_out_numpy_random_and_hashlib(tmp_path):
    (tmp_path / "db.txt").write_text(_DATABASE, encoding="utf-8")
    argv = ["evaluate", str(tmp_path / "db.txt"), "--out-dir", str(tmp_path / "out"), "--fraction", "0.3"]
    modules = ("numpy.random", "hashlib", "pamper.evaluate", "pamper._pcg64")
    assert _loaded_after(argv, modules) == "['pamper.evaluate', 'pamper._pcg64'] 0\n"


def test_train_and_which_never_load_the_evaluation(tmp_path):
    (tmp_path / "db.txt").write_text(_DATABASE, encoding="utf-8")
    model = str(tmp_path / "model.txt")
    modules = ("pamper.evaluate", "pamper._pcg64")
    assert _loaded_after(["train", str(tmp_path / "db.txt"), model], modules) == "[] 0\n"
    assert _loaded_after(["which", model, "[1,0]"], modules) == "[] 0\n"


def test_submodule_resolves_after_a_bare_import():
    code = "import pamper; print(pamper.trees.train is pamper.train, pamper.trees.__name__)"
    assert _fresh_interpreter(code) == "True pamper.trees\n"


def test_every_module_parses_as_python_3_10():
    # The oldest supported Python is 3.10, and CI runs the package, the tests
    # and the benchmark under it. The grammar check is best-effort: it rejects
    # 3.11 forms such as ``except*``, not every newer construct.
    package = sorted(Path(pamper.__file__).parent.glob("*.py"))
    assert len(package) >= 11
    files = package + sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_a_failing_property_test_leaves_the_later_tests_running(tmp_path):
    # Hypothesis's failure report imports libcst, whose import of
    # mypy_extensions warns; under filterwarnings = ["error"] that warning
    # aborted the whole pytest run with INTERNALERROR, and no later test ran.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_a_failing_property(x):\n    assert x < 5\n\n\n"
        "def test_a_later_test():\n    pass\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
