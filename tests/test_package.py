import ast
from pathlib import Path

import pamper


def test_every_exported_name_resolves():
    missing = [name for name in pamper.__all__ if not hasattr(pamper, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(pamper.__all__) == len(set(pamper.__all__))


def test_every_module_parses_as_python_3_10():
    # The oldest supported Python is 3.10. The grammar check is best-effort:
    # it rejects 3.11 forms such as ``except*``, not every newer construct.
    files = sorted(Path(pamper.__file__).parent.glob("*.py"))
    assert len(files) >= 11
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
