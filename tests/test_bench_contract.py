"""The benchmark's span tracer wraps jurymech names by looking them up in the
modules and classes that own them; a refactor that removes or moves one of
those names breaks the traced benchmark run.  This pins the contract."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    targets = [(owner, attr) for owner, attr, _, _ in tracer._TARGETS]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if attr not in vars(owner)
    ]
    assert not missing, f"names the tracer wraps are gone: {missing}"

    originals = [vars(owner)[attr] for owner, attr in targets]
    traced = tracer.Tracer()
    traced.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in targets]
    finally:
        traced.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(vars(owner)[attr] is o for (owner, attr), o in zip(targets, originals))
