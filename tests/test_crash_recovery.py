"""A run killed at any moment leaves an ensemble directory that loads as a
prefix of the run and resumes to its end."""

import dataclasses
import math
import multiprocessing as mp
import os
import random
import signal
import time

import numpy as np

from dynens.app.functions import gen_random_batch, sim_norm
from dynens.history import GenPoint, History, histories_equal, records_equal
from dynens.runtime import ExitCriteria, PersistentAlloc, RunConfig, run_ensemble

PRIOR = 500  # records of the earlier run the killed one resumes
SIM_MAX = PRIOR + 200
SETTINGS = {"n_dims": 2, "nworkers": 3, "seed": 21, "dump_every": 10,
            "gen_params": {"lb": [-3.0, -2.0], "ub": [3.0, 2.0], "batch_size": 10}}
KILLS = 12


def prior_history() -> History:
    """A finished norm_stream-shaped run: batches of 10 from generator
    worker 1, each record returned by sim worker 2 or 3 with f = ||x||."""
    rng = np.random.default_rng(5)
    hist = History(2, start_time=0.0)
    X = rng.uniform([-3.0, -2.0], [3.0, 2.0], (PRIOR, 2))
    for start in range(0, PRIOR, 10):
        ids = hist.submit_points([GenPoint(x) for x in X[start:start + 10]], 1)
        for sid in ids:
            hist.mark_given([sid], 2 + sid % 2, 1e-3 * sid)
            hist.update_with_results([(sid, float(np.linalg.norm(X[sid])))],
                                     1e-3 * sid + 5e-4)
    return hist


def resume(ens_dir: str, H0: History) -> History:
    config = RunConfig(ensemble_dir=ens_dir, exit_criteria=ExitCriteria(sim_max=SIM_MAX),
                       **SETTINGS)
    hist, flag = run_ensemble(config, gen_random_batch, sim_norm,
                              alloc=PersistentAlloc(), H0=H0)
    assert flag == "sim_max"
    return hist


def killable_run(ens_dir: str, ready) -> None:
    """Resume the history in ens_dir in place, in a process group of its
    own so that one kill takes the workers with it; set ready just before
    the run starts."""
    os.setsid()
    H0 = History.load(os.path.join(ens_dir, "history.tsv"))
    ready.set()
    resume(ens_dir, H0)


def assert_prefix(loaded: History, run: History) -> None:
    """Every record of loaded is a record of run as it stood at some
    moment: equal in every field but the worker that ran it, the times
    and how far it got."""
    assert PRIOR <= len(loaded) <= len(run)
    for got in loaded:
        want = run.get(got.sim_id)
        progress = dict(sim_worker=got.sim_worker, given=got.given,
                        returned=got.returned, f=got.f)
        assert records_equal(got, dataclasses.replace(want, **progress)), got
        if got.returned:
            assert got.given and got.f == want.f, got
        else:
            assert math.isnan(got.f), got


def assert_same_run(a: History, b: History) -> None:
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert records_equal(ra, dataclasses.replace(rb, sim_worker=ra.sim_worker)), ra


def test_killed_run_reloads_as_a_prefix_and_resumes(tmp_path):
    """SIGKILL a resumed run (manager and workers) after seeded delays,
    drawn as fractions of how long the uninterrupted run took; each
    time its directory must load as a prefix of the uninterrupted run, and
    resuming it in place must finish that run record for record."""
    H0 = prior_history()
    t0 = time.monotonic()
    run = resume(str(tmp_path / "uninterrupted"), H0)
    run_s = time.monotonic() - t0
    assert len(run) == run.returned_count() == SIM_MAX

    ctx = mp.get_context("fork")
    delays = random.Random(2024)
    sizes = []  # records loaded after each kill
    for k in range(KILLS):
        ens_dir = tmp_path / f"killed{k}"
        ens_dir.mkdir()
        path = str(ens_dir / "history.tsv")
        H0.dump(path)
        ready = ctx.Event()
        child = ctx.Process(target=killable_run, args=(str(ens_dir), ready))
        child.start()
        try:
            assert ready.wait(timeout=30)
            time.sleep(delays.uniform(0.0, 1.5) * run_s)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.join(timeout=10)
        assert child.exitcode is not None

        loaded = History.load(path)
        assert_prefix(loaded, run)
        sizes.append(len(loaded))

        resumed = resume(str(ens_dir), loaded)
        assert len(resumed) == resumed.returned_count() == SIM_MAX
        assert_same_run(resumed, run)
        assert histories_equal(History.load(path), resumed, include_times=True)
        assert not os.path.exists(path + ".journal")
    # The delays must put some kills inside the run, or nothing was tested.
    assert min(sizes) < SIM_MAX, sizes
