"""The shipped fixtures/ files are what scripts/make_fixtures.py writes."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_make_fixtures_regenerates_shipped_files(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "fixtures"
    monkeypatch.setattr(script, "OUT", out)
    script.main()
    written = sorted(p.name for p in out.iterdir())
    shipped = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert len(written) == 27
    assert written == shipped
    for name in written:
        assert (out / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
    assert capsys.readouterr().out.count("wrote ") == 27
