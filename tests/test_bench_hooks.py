"""The benchmark's hooks into dynens: the traced benchmark wraps entry
points by attribute name, where a rename or a move to a base class would
silently drop its spans, its workloads call the API by name, and its
self-check reproduces known defects through the resource layer."""

import os

import pytest

from dynens.app.functions import gen_random_batch, sim_norm
from dynens.history import History
from dynens.runtime import ExitCriteria, PersistentAlloc, RunConfig, run_ensemble

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer
    return tracer


@pytest.fixture
def selfcheck(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import selfcheck
    return selfcheck


def test_every_layer_entry_point_is_defined_on_its_owner(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.LAYER_ENTRY_POINTS
               if attr not in vars(owner)]
    assert missing == []


def test_resuming_alias_matches_the_constructor_on_a_resumed_run(tmp_path):
    """bench/workloads.py resumes every norm_stream episode through
    PersistentAlloc.resuming(H0.records); it must stay the constructor's
    alias."""
    assert callable(getattr(PersistentAlloc, "resuming", None))

    def go(sub, sim_max, alloc, H0=None):
        config = RunConfig(n_dims=2, nworkers=3, seed=3,
                           ensemble_dir=str(tmp_path / sub),
                           exit_criteria=ExitCriteria(sim_max=sim_max),
                           gen_params={"lb": [0.0, 0.0], "ub": [1.0, 1.0],
                                       "batch_size": 4})
        hist, flag = run_ensemble(config, gen_random_batch, sim_norm,
                                  alloc=alloc, H0=H0)
        assert flag == "sim_max"
        return [(r.sim_id, r.x.tolist(), r.f, r.returned) for r in hist]

    go("first", 12, PersistentAlloc())
    H0 = History.load(str(tmp_path / "first" / "history.tsv"))
    aliased = go("aliased", 24, PersistentAlloc.resuming(H0.records), H0)
    plain = go("plain", 24, PersistentAlloc(),
               History.load(str(tmp_path / "first" / "history.tsv")))
    assert aliased == plain
    assert len(plain) == 24


def test_selfcheck_split_gpu_reproduction_runs(selfcheck):
    """The self-check calls the scheduler and the executor directly; it must
    report the defect (a string) or its fix (None), never crash."""
    found = selfcheck.split_gpu_request_fails()
    assert found is None or isinstance(found, str)
