"""The GP generator runs its linear algebra on one OpenBLAS thread, and
only while it runs: every exit puts back the counts it found."""

import json
import multiprocessing as mp
import os

import numpy as np
import pytest

from dynens import surrogate
from dynens.gp_generator import gp_gen_loop
from dynens.runtime import ExitCriteria, PersistentAlloc, RunConfig, run_ensemble
from dynens.runtime.messages import RecordBatch
from loopback import LoopbackContext

PARAMS = {"lb": [-1.0, -1.0], "ub": [1.0, 1.0], "batch_size": 4,
          "points_per_dim": 8}


def norm_sim(records, params, ctx):
    return [float(np.linalg.norm(r.x)) for r in records]


def counts():
    return [get() for get, _ in surrogate.openblas_thread_calls()]


@pytest.fixture
def two_threads():
    """Every OpenBLAS this process has on two threads, so that a pin to one
    shows on any host; the counts found are put back afterwards."""
    calls = surrogate.openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS with a thread-count setter in this process")
    found = counts()
    for _, set_ in calls:
        set_(2)
    assert counts() == [2] * len(calls)
    yield [2] * len(calls)
    for (_, set_), n in zip(calls, found):
        set_(n)


class CountingContext:
    """A generator context that logs the OpenBLAS thread counts each time
    the generator sends or waits."""

    def __init__(self, ctx, log_path):
        self._ctx, self._log_path = ctx, log_path

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def _note(self):
        with open(self._log_path, "a") as f:
            f.write(json.dumps(counts()) + "\n")

    def send_recv(self, points):
        self._note()
        return self._ctx.send_recv(points)

    def recv(self):
        self._note()
        return self._ctx.recv()


def gp_run(tmp_path, sub, comms, gen=gp_gen_loop):
    cfg = RunConfig(n_dims=2, nworkers=3, comms=comms, seed=11,
                    ensemble_dir=str(tmp_path / sub), gen_params=dict(PARAMS),
                    exit_criteria=ExitCriteria(sim_max=24))
    hist, flag = run_ensemble(cfg, gen, norm_sim, alloc=PersistentAlloc())
    assert flag == "sim_max" and hist.returned_count() == 24
    return hist


@pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
def test_generator_runs_on_one_thread_and_restores(tmp_path, comms,
                                                   two_threads):
    log_path = tmp_path / "counts.jsonl"

    def counting_gen(history_in, params, ctx):
        return gp_gen_loop(history_in, params, CountingContext(ctx, log_path))

    gp_run(tmp_path, "ens", comms, counting_gen)
    seen = [json.loads(line) for line in log_path.read_text().splitlines()]
    # One bootstrap batch and five selected ones.
    assert len(seen) == 6
    assert all(c == [1] * len(two_threads) for c in seen)
    assert counts() == two_threads


def test_generator_that_raises_restores(two_threads):
    class Failing(LoopbackContext):
        def send_recv(self, points):
            self.seen = counts()
            raise RuntimeError("lost the manager")

    ctx = Failing(lambda x: float(np.sum(x ** 2)), seed=3, n_batches=4)
    with pytest.raises(RuntimeError, match="lost the manager"):
        gp_gen_loop(RecordBatch(), dict(PARAMS), ctx)
    assert ctx.seen == [1] * len(two_threads)
    assert counts() == two_threads


def test_pin_after_a_fork_starts_no_threads(two_threads):
    """A fork stops OpenBLAS's thread pool; pinning and restoring must not
    start it again, since its new threads would spin idle for tens of
    milliseconds."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    child = mp.get_context("fork").Process(target=int)
    child.start()
    child.join(timeout=10)
    assert child.exitcode == 0

    def threads():
        return len(os.listdir("/proc/self/task"))

    before = threads()
    with surrogate.one_blas_thread():
        assert counts() == [1] * len(two_threads)
        assert threads() <= before
    assert counts() == two_threads
    assert threads() <= before


def test_run_without_openblas_is_unchanged(tmp_path, monkeypatch):
    pinned = gp_run(tmp_path, "pinned", "gen_on_manager")
    before = counts()
    monkeypatch.setattr(surrogate, "_openblas", [])
    assert counts() == []
    bare = gp_run(tmp_path, "bare", "gen_on_manager")
    # Which sim worker took a record depends on timing; the points and
    # values do not.
    for a, b in zip(pinned, bare):
        np.testing.assert_array_equal(a.x, b.x)
        assert a.f == b.f
    monkeypatch.undo()
    assert counts() == before
