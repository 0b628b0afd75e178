import pytest

from diraclab import scenarios


@pytest.fixture
def shorten(tmp_path, monkeypatch):
    """``shorten(stem, (old, new), ...)`` copies the bundled config
    ``stem`` with each ``old`` replaced by ``new`` to
    ``tmp_path/short/<stem>.cfg``, under the same stem, and points the
    studies' config lookup at the copy; other names resolve as shipped."""
    short = tmp_path / "short"
    shipped = scenarios.bundled_config_path

    def lookup(name):
        path = short / f"{name}.cfg"
        return str(path) if path.exists() else shipped(name)

    def apply(stem, *cuts):
        with open(shipped(stem), encoding="utf-8") as fh:
            text = fh.read()
        for old, new in cuts:
            assert old in text, old
            text = text.replace(old, new)
        short.mkdir(exist_ok=True)
        (short / f"{stem}.cfg").write_text(text, encoding="utf-8")

    monkeypatch.setattr(scenarios, "bundled_config_path", lookup)
    return apply
