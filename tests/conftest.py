import pytest

from sixpoints import fatpoints, typeenum


def clear_catalog_caches():
    # table2 too: verify runs it on the types, which a changed catalog changes
    for cached in (typeenum.table_rows, typeenum.enumerate_types, typeenum._types_by_canon,
                   fatpoints.table2):
        cached.cache_clear()


@pytest.fixture
def serve_catalog(monkeypatch):
    """``serve(lines)`` makes ``typeenum.table1_text`` return the joined
    lines.  The caches of ``clear_catalog_caches`` are cleared before the
    test, by ``serve`` and after the test, so nothing built from one catalog
    is read under another (``_build_type`` is keyed by the row itself)."""

    def serve(lines):
        text = "".join(lines)
        monkeypatch.setattr(typeenum, "table1_text", lambda: text)
        clear_catalog_caches()

    clear_catalog_caches()
    yield serve
    clear_catalog_caches()

