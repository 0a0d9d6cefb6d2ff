"""The traced benchmark wraps dynens entry points by attribute name; a
rename or a move to a base class would silently drop its spans."""

import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer
    return tracer


def test_every_layer_entry_point_is_defined_on_its_owner(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.LAYER_ENTRY_POINTS
               if attr not in vars(owner)]
    assert missing == []
