import pamper


def test_every_exported_name_resolves():
    missing = [name for name in pamper.__all__ if not hasattr(pamper, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(pamper.__all__) == len(set(pamper.__all__))

