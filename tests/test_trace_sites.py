"""The benchmark's span trace wraps functions at the names its callers use
(perfbench/spans.py). Building the tracer and installing its wrappers once
fails as soon as one of those names is renamed or removed from the package,
instead of only when a traced benchmark run is made."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_still_there(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.active(0):
        pass
