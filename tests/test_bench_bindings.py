"""The benchmark's span recorder still finds every binding it wraps."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_recorder_installs_and_restores(monkeypatch):
    """bench/spans.py wraps package functions by module and name, so
    install() raises AttributeError once one of them is renamed or
    deleted; uninstall() must put every original back."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    recorder = spans.Recorder()
    try:
        recorder.install()
        originals = list(recorder._saved)
        assert originals
    finally:
        recorder.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
