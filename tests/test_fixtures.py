"""The shipped fixtures are exactly what scripts/make_fixtures.py writes."""

import pathlib

import make_fixtures  # scripts/, on the test path

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl11" / "fixtures"


def test_make_fixtures_reproduces_shipped_files(monkeypatch, tmp_path):
    monkeypatch.setattr(make_fixtures, "OUT", tmp_path)
    make_fixtures.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
