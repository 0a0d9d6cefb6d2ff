"""Engine tests: allocators, exit criteria, the protocol trace checker,
the worker loop in isolation, and small live ensembles in both comms
modes."""

import logging
import math
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time

import numpy as np
import pytest

from dynens.history import GenPoint, History, histories_equal
from dynens.resources import Node, NodeInventory, ResourcePool
from dynens.runtime import (
    DefaultAlloc,
    EnsembleError,
    ExitCriteria,
    Forward,
    HistoryView,
    PersistentAlloc,
    PersistentGenContext,
    ProtocolError,
    RunConfig,
    STOP_TAGS,
    Tag,
    WorkerConfig,
    WorkerContext,
    WorkerState,
    WorkerStatus,
    check_exit,
    run_ensemble,
    validate_trace,
    worker_main,
)
from dynens.runtime.messages import (
    GenBatch,
    GenDone,
    KillMsg,
    ResultsMsg,
    SimDone,
    StopMsg,
    WorkMsg,
    Work,
)

# ---------------------------------------------------------------------------
# user functions for live runs (module level so forked workers resolve them)


def norm_sim(records, params, ctx):
    return [float(np.linalg.norm(r.x)) for r in records]


def sleep_sim(records, params, ctx):
    time.sleep(params.get("seconds", 0.2))
    return [0.0 for _ in records]


def failing_sim(records, params, ctx):
    raise RuntimeError("sim exploded")


def procs_sim(records, params, ctx):
    # Report the granted assignment size so tests can see scheduling happen.
    assert ctx.assignment is not None
    return [float(ctx.assignment.total_procs) for _ in records]


def dir_checking_sim(records, params, ctx):
    for rec in records:
        assert os.path.isdir(ctx.sim_dir(rec.sim_id))
    return [0.0 for _ in records]


def random_batch_gen(history_in, params, ctx):
    """Persistent uniform sampler; replays a prior history on restart."""
    lb = np.asarray(params["lb"], dtype=float)
    ub = np.asarray(params["ub"], dtype=float)
    b = int(params["batch_size"])
    n = len(lb)
    if len(history_in):
        ctx.rng.uniform(lb, ub, (len(history_in), n))
    if any(not r.returned for r in history_in):
        tag, _ = ctx.recv()
        if tag in STOP_TAGS:
            return tag
    tag = Tag.RESULT
    while tag not in STOP_TAGS:
        points = [GenPoint(x) for x in ctx.rng.uniform(lb, ub, (b, n))]
        tag, _ = ctx.send_recv(points)
    return tag


def counted_gen(history_in, params, ctx):
    """Persistent generator that stops itself after n_batches."""
    for _ in range(int(params["n_batches"])):
        points = [GenPoint(x) for x in ctx.rng.uniform(0, 1, (2, 2))]
        tag, _ = ctx.send_recv(points)
        if tag in STOP_TAGS:
            return tag
    return Tag.FINISHED_PERSISTENT_GEN


def oneshot_gen(history_in, params, ctx):
    return [GenPoint(x) for x in ctx.rng.uniform(0, 1, (3, 2))]


def crashing_gen(history_in, params, ctx):
    raise ValueError("generator exploded")


def requesting_gen(history_in, params, ctx):
    points = [GenPoint(x, num_procs=2)
              for x in ctx.rng.uniform(0, 1, (4, 2))]
    tag, _ = ctx.send_recv(points)
    return tag


def cancelling_gen(history_in, params, ctx):
    """Sends one batch, then cancels the stall point mid-flight."""
    points = [GenPoint(np.array([0.1, 0.1])), GenPoint(np.array([9.0, 9.0])),
              GenPoint(np.array([0.2, 0.2]))]
    ctx.send(points)
    time.sleep(0.6)
    ctx.request_cancel([1])
    got = 0
    while got < 3:
        tag, recs = ctx.recv()
        if tag in STOP_TAGS:
            return tag
        got += len(recs)
    tag, _ = ctx.recv()
    return tag


def dying_sim(records, params, ctx):
    """Kills its own worker process on sim 5."""
    if any(r.sim_id == 5 for r in records):
        os._exit(1)
    return norm_sim(records, params, ctx)


def unsendable_gen(history_in, params, ctx):
    """One-shot generator whose batch cannot be pickled."""
    return [GenPoint(np.zeros(2)), lambda: None]


def sleepy_gen(history_in, params, ctx):
    """Async persistent generator that sleeps after its first batch while
    that batch's results are forwarded to it; then sends one more point."""
    n, d = int(params["batch_size"]), len(params["lb"])
    ctx.send([GenPoint(x) for x in ctx.rng.uniform(0, 1, (n, d))])
    time.sleep(params["sleep"])
    got = 0
    while got < n:
        tag, recs = ctx.recv()
        if tag in STOP_TAGS:
            return tag
        got += len(recs)
    tag, _ = ctx.send_recv([GenPoint(x) for x in ctx.rng.uniform(0, 1, (1, d))])
    return tag


def stalling_sim(records, params, ctx):
    """Spins on x0 > 5 until a kill or stop signal lands."""
    out = []
    for rec in records:
        if rec.x[0] > 5:
            deadline = time.monotonic() + 8.0
            while time.monotonic() < deadline:
                stop = False
                for kind, sid in ctx.poll_signals():
                    if kind == "KILL" and sid in ctx.current_sim_ids:
                        ctx.killed.append(sid)
                        stop = True
                    elif kind == "STOP":
                        stop = True
                if stop:
                    break
                time.sleep(0.02)
            out.append(float("nan"))
        else:
            out.append(float(np.linalg.norm(rec.x)))
    return out


# ---------------------------------------------------------------------------
# helpers


def make_history(n_dims=2, points=0, **flags):
    h = History(n_dims, start_time=0.0)
    if points:
        xs = np.linspace(0.0, 1.0, points * n_dims).reshape(points, n_dims)
        h.submit_points([GenPoint(x) for x in xs], gen_worker=1)
    return h


def idle_workers(n, first=1):
    return {w: WorkerState(w) for w in range(first, first + n)}


def run_cfg(tmp_path, sub="ens", **kw):
    kw.setdefault("n_dims", 2)
    kw.setdefault("nworkers", 3)
    kw.setdefault("exit_criteria", ExitCriteria(sim_max=8))
    kw.setdefault("seed", 5)
    return RunConfig(ensemble_dir=str(tmp_path / sub), **kw)


GEN_BOX = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "batch_size": 4}
PIPE_BUFFER = 64 * 1024  # bytes an OS pipe holds before a write blocks


def assert_nothing_left_running(threads_before):
    """No worker process and no thread the run started is still alive."""
    assert mp.active_children() == []
    started = [t for t in threading.enumerate() if t not in threads_before]
    for t in started:
        # A dead worker's inbox feeder is not waited for; it ends on its own.
        t.join(timeout=2)
    assert not [t for t in started if t.is_alive()]


# ---------------------------------------------------------------------------
# default allocator


class TestDefaultAlloc:
    def test_all_idle_no_pending_one_gen_call(self):
        actions = DefaultAlloc()(HistoryView(make_history()), idle_workers(3), None)
        assert len(actions) == 1
        (work,) = actions
        assert work.tag is Tag.EVAL_GEN and work.target_worker == 1
        assert not work.persistent

    def test_pending_sims_win_over_generation(self):
        h = make_history(points=3)
        for i, pr in enumerate([1.0, 3.0, 2.0]):
            h.get(i).priority = pr
        actions = DefaultAlloc()(HistoryView(h), idle_workers(2), None)
        sims = [a for a in actions if a.tag is Tag.EVAL_SIM]
        # Two idle workers take the two highest-priority records.
        assert [a.record_ids for a in sims] == [(1,), (2,)]
        assert [a.target_worker for a in sims] == [1, 2]
        assert all(a.tag is Tag.EVAL_SIM for a in actions)

    def test_leftover_worker_gets_gen_call(self):
        h = make_history(points=1)
        actions = DefaultAlloc()(HistoryView(h), idle_workers(3), None)
        tags = [a.tag for a in actions]
        assert tags == [Tag.EVAL_SIM, Tag.EVAL_GEN]
        assert actions[1].target_worker == 2

    def test_no_second_gen_while_one_runs(self):
        workers = idle_workers(2)
        workers[2].status = WorkerStatus.BUSY_GEN
        actions = DefaultAlloc()(HistoryView(make_history()), workers, None)
        assert actions == []

    def test_busy_workers_get_nothing(self):
        h = make_history(points=2)
        workers = idle_workers(2)
        workers[1].status = WorkerStatus.BUSY_SIM
        workers[2].status = WorkerStatus.BUSY_SIM
        assert DefaultAlloc()(HistoryView(h), workers, None) == []

    def test_cancelled_pending_not_dispatched(self):
        h = make_history(points=2)
        h.mark_cancel([0])
        actions = DefaultAlloc()(HistoryView(h), idle_workers(1), None)
        assert actions[0].record_ids == (1,)

    def test_oversized_request_deferred_with_one_warning(self, caplog):
        h = make_history(points=2)
        h.get(0).num_procs = 99
        pool = ResourcePool(NodeInventory([Node("n0", 4)]), 2)
        alloc = DefaultAlloc()
        with caplog.at_level(logging.WARNING, logger="dynens.runtime.alloc"):
            actions = alloc(HistoryView(h), idle_workers(1), pool)
            alloc(HistoryView(h), idle_workers(1), pool)
        # The schedulable record is dispatched instead; one warning total.
        assert actions[0].tag is Tag.EVAL_SIM and actions[0].record_ids == (1,)
        assert sum("deferring sim 0" in r.message for r in caplog.records) == 1

    def test_plain_records_need_no_pool(self):
        h = make_history(points=1)
        (work,) = [a for a in DefaultAlloc()(HistoryView(h), idle_workers(1), None)
                   if a.tag is Tag.EVAL_SIM]
        assert work.assignment is None

    def test_requesting_record_gets_assignment(self):
        h = make_history(points=1)
        h.get(0).num_procs = 2
        pool = ResourcePool(NodeInventory([Node("n0", 4)]), 2)
        (work,) = DefaultAlloc()(HistoryView(h), idle_workers(1), pool)
        assert work.assignment is not None
        assert work.assignment.total_procs == 2


# ---------------------------------------------------------------------------
# persistent allocator


def persistent_states(n_sim=2, gen_status=WorkerStatus.PERSISTENT_GEN):
    states = idle_workers(n_sim + 1)
    states[1].status = gen_status
    return states


class TestPersistentAlloc:
    def test_startup_starts_gen_on_worker_one(self):
        alloc = PersistentAlloc()
        actions = alloc(HistoryView(make_history()), idle_workers(3), None)
        assert actions[0] == Work(target_worker=1, tag=Tag.EVAL_GEN,
                                  persistent=True)
        assert alloc.started

    def test_startup_requires_idle_gen_worker(self):
        workers = idle_workers(2)
        workers[1].status = WorkerStatus.BUSY_SIM
        with pytest.raises(RuntimeError, match="worker 1"):
            PersistentAlloc()(HistoryView(make_history()), workers, None)

    def test_incomplete_batch_not_forwarded(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=3)
        h.mark_given([0, 1, 2], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0), (2, 3.0)], returned_time=0.0)
        actions = alloc(HistoryView(h), persistent_states(), None)
        assert not any(isinstance(a, Forward) for a in actions)

    def test_complete_batch_forwarded_sorted_once(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=3)
        h.mark_given([0, 1, 2], sim_worker=2, given_time=0.0)
        h.update_with_results([(2, 3.0), (0, 1.0), (1, 2.0)], returned_time=0.0)
        actions = alloc(HistoryView(h), persistent_states(), None)
        assert actions == [Forward(1, (0, 1, 2))]
        # Second call: everything already forwarded.
        assert alloc(HistoryView(h), persistent_states(), None) == []

    def test_async_forwards_singles(self):
        alloc = PersistentAlloc(started=True, async_mode=True)
        h = make_history(points=3)
        h.mark_given([0, 1, 2], sim_worker=2, given_time=0.0)
        h.update_with_results([(1, 2.0)], returned_time=0.0)
        assert alloc(HistoryView(h), persistent_states(), None) == [Forward(1, (1,))]
        h.update_with_results([(0, 1.0)], returned_time=0.0)
        assert alloc(HistoryView(h), persistent_states(), None) == [Forward(1, (0,))]

    def test_resuming_skips_prior_results(self):
        h = make_history(points=4)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0), (1, 2.0)], returned_time=0.0)
        alloc = PersistentAlloc.resuming(h.records)
        alloc.started = True
        # Only the fresh pair counts as outstanding.
        h.mark_given([2, 3], sim_worker=2, given_time=0.0)
        h.update_with_results([(2, 1.0), (3, 2.0)], returned_time=0.0)
        actions = alloc(HistoryView(h), persistent_states(), None)
        assert actions == [Forward(1, (2, 3))]

    def test_finished_gen_stops_forwarding(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=2)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0), (1, 2.0)], returned_time=0.0)
        states = persistent_states(gen_status=WorkerStatus.IDLE)
        assert alloc(HistoryView(h), states, None) == []

    def test_sims_never_go_to_the_gen_worker(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=4)
        states = persistent_states(n_sim=2, gen_status=WorkerStatus.IDLE)
        actions = alloc(HistoryView(h), states, None)
        sims = [a for a in actions if isinstance(a, Work)]
        assert {a.target_worker for a in sims} == {2, 3}


# ---------------------------------------------------------------------------
# exit criteria


class TestCheckExit:
    def test_sim_max_counts_returned(self):
        h = make_history(points=3)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0), (1, 1.0)], returned_time=0.0)
        crit = ExitCriteria(sim_max=2)
        assert check_exit(h, 0.0, crit) == "sim_max"
        assert check_exit(h, 0.0, ExitCriteria(sim_max=3)) is None

    def test_sim_max_zero_fires_immediately(self):
        assert check_exit(make_history(), 0.0, ExitCriteria(sim_max=0)) == "sim_max"

    def test_gen_max_counts_generated(self):
        h = make_history(points=5)
        assert check_exit(h, 0.0, ExitCriteria(gen_max=5)) == "gen_max"
        assert check_exit(h, 0.0, ExitCriteria(gen_max=6)) is None

    def test_wallclock(self):
        crit = ExitCriteria(wallclock_max=10.0)
        assert check_exit(make_history(), 9.9, crit) is None
        assert check_exit(make_history(), 10.0, crit) == "wallclock_max"

    def test_stop_val_threshold(self):
        h = make_history(points=2)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 0.5), (1, 0.005)], returned_time=0.0)
        assert check_exit(h, 0.0, ExitCriteria(stop_val=("f", 0.01))) == "stop_val"
        assert check_exit(h, 0.0, ExitCriteria(stop_val=("f", 0.001))) is None

    def test_stop_val_ignores_nan_and_unreturned(self):
        h = make_history(points=2)
        h.mark_given([0], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, float("nan"))], returned_time=0.0)
        assert check_exit(h, 0.0, ExitCriteria(stop_val=("f", 0.01))) is None

    def test_stop_val_fires_at_or_below_threshold(self):
        h = make_history(points=3)
        h.mark_given([0, 1, 2], sim_worker=2, given_time=0.0)
        crit = ExitCriteria(stop_val=("f", 0.25))
        h.update_with_results([(0, 0.5)], returned_time=0.0)
        assert check_exit(h, 0.0, crit) is None
        h.update_with_results([(1, 0.25)], returned_time=0.0)
        assert check_exit(h, 0.0, crit) == "stop_val"
        # A later, larger value leaves the best one in place.
        h.update_with_results([(2, 0.75)], returned_time=0.0)
        assert check_exit(h, 0.0, crit) == "stop_val"

    def test_stop_val_never_fires_on_nan(self):
        crit = ExitCriteria(stop_val=("f", math.inf))
        h = make_history(points=2)
        assert check_exit(h, 0.0, crit) is None
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, math.nan), (1, math.nan)], returned_time=0.0)
        assert check_exit(h, 0.0, crit) is None

    def test_criteria_need_at_least_one(self):
        with pytest.raises(ValueError):
            ExitCriteria()

    def test_stop_val_field_must_be_f(self):
        with pytest.raises(ValueError):
            ExitCriteria(stop_val=("x", 0.1))


# ---------------------------------------------------------------------------
# trace validation


class TestValidateTrace:
    def test_sound_trace_passes(self):
        validate_trace([
            ("gen_submit", 0, 1), ("gen_submit", 1, 1),
            ("dispatch", 0, 2), ("dispatch", 1, 3),
            ("result", 0, 2), ("kill", 1, 3), ("result", 1, 3),
            ("forward", 0, 1), ("forward", 1, 1), ("stop", "sim_max"),
        ])

    def test_adopted_returned_records_can_forward(self):
        validate_trace([("adopt", 0, True), ("forward", 0, 1)])

    def test_adopted_pending_record_redispatches(self):
        validate_trace([("adopt", 0, False), ("dispatch", 0, 2),
                        ("result", 0, 2)])

    @pytest.mark.parametrize("events,complaint", [
        ([("dispatch", 0, 2)], "unknown sim"),
        ([("gen_submit", 0, 1), ("gen_submit", 0, 1)], "submitted twice"),
        ([("gen_submit", 0, 1), ("dispatch", 0, 2), ("dispatch", 0, 3)],
         "dispatched twice"),
        ([("gen_submit", 0, 1), ("result", 0, 2)], "undispatched"),
        ([("gen_submit", 0, 1), ("dispatch", 0, 2), ("result", 0, 3)],
         "dispatched to 2"),
        ([("gen_submit", 0, 1), ("dispatch", 0, 2), ("result", 0, 2),
          ("result", 0, 2)], "resulted twice"),
        ([("gen_submit", 0, 1), ("dispatch", 0, 2), ("forward", 0, 1)],
         "unreturned"),
        ([("adopt", 0, True), ("forward", 0, 1), ("forward", 0, 1)],
         "forwarded twice"),
        ([("gen_submit", 0, 1), ("kill", 0, 2)], "not in flight"),
        ([("bogus", 0)], "unknown event"),
    ])
    def test_violations_raise(self, events, complaint):
        with pytest.raises(ProtocolError, match=complaint):
            validate_trace(events)


# ---------------------------------------------------------------------------
# worker loop in isolation (threaded: a plain queue inbox, a result pipe)


class ResultPipe:
    """A worker's result pipe, read like a queue."""

    def __init__(self):
        self.reader, self.writer = mp.Pipe(duplex=False)

    def get(self, timeout):
        if not self.reader.poll(timeout):
            raise queue.Empty
        return self.reader.recv()


class ThreadedWorker:
    def __init__(self, worker_id=2, gen_fn=None, sim_fn=None, **cfg_kw):
        self.inbox = queue.Queue()
        self.results = ResultPipe()
        cfg = WorkerConfig(**cfg_kw)
        self.thread = threading.Thread(
            target=worker_main,
            args=(worker_id, cfg, self.inbox, self.results.writer,
                  gen_fn, sim_fn),
            daemon=True)
        self.thread.start()

    def stop(self):
        self.inbox.put(StopMsg())
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def sim_work(record_ids, assignment=None):
    return Work(target_worker=2, tag=Tag.EVAL_SIM, record_ids=record_ids,
                assignment=assignment)


class TestWorkerLoop:
    def test_stop_ends_the_loop(self):
        ThreadedWorker(sim_fn=norm_sim).stop()

    def test_sim_work_returns_results(self, tmp_path):
        w = ThreadedWorker(sim_fn=norm_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=2)
        w.inbox.put(WorkMsg(sim_work((0, 1)), [r.copy() for r in h.records]))
        done = w.results.get(timeout=5)
        assert isinstance(done, SimDone) and done.worker_id == 2
        assert [sid for sid, _ in done.results] == [0, 1]
        assert done.error is None and done.killed_ids == ()
        for sid, val in done.results:
            assert val == pytest.approx(np.linalg.norm(h.get(sid).x))
        # Working directories exist before the sim runs.
        assert (tmp_path / "worker2" / "sim0").is_dir()
        assert (tmp_path / "worker2" / "sim1").is_dir()
        w.stop()

    def test_sim_exception_reports_nan_and_traceback(self, tmp_path):
        w = ThreadedWorker(sim_fn=failing_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=1)
        w.inbox.put(WorkMsg(sim_work((0,)), [h.get(0).copy()]))
        done = w.results.get(timeout=5)
        assert math.isnan(done.results[0][1])
        assert "sim exploded" in done.error
        w.stop()

    def test_oneshot_gen_returns_batch(self, tmp_path):
        w = ThreadedWorker(gen_fn=oneshot_gen, ensemble_dir=str(tmp_path))
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN), []))
        batch = w.results.get(timeout=5)
        assert isinstance(batch, GenBatch) and len(batch.points) == 3
        w.stop()

    def test_gen_crash_reports_worker(self, tmp_path):
        w = ThreadedWorker(gen_fn=crashing_gen, ensemble_dir=str(tmp_path))
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN,
                                 persistent=True), []))
        crash = w.results.get(timeout=5)
        assert crash.worker_id == 2 and crash.where == "gen"
        assert "generator exploded" in crash.traceback_text
        w.stop()

    def test_persistent_gen_round_trip(self, tmp_path):
        w = ThreadedWorker(gen_fn=counted_gen, ensemble_dir=str(tmp_path),
                           gen_params={"n_batches": 2})
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN,
                                 persistent=True), []))
        for _ in range(2):
            batch = w.results.get(timeout=5)
            assert isinstance(batch, GenBatch) and len(batch.points) == 2
            w.inbox.put(ResultsMsg([]))
        done = w.results.get(timeout=5)
        assert isinstance(done, GenDone)
        w.stop()

    def test_rng_stream_spans_calls(self, tmp_path):
        seen = []

        def peeking_sim(records, params, ctx):
            seen.append(float(ctx.rng.uniform()))
            return [0.0 for _ in records]

        w = ThreadedWorker(sim_fn=peeking_sim, ensemble_dir=str(tmp_path),
                           base_seed=17)
        h = make_history(points=2)
        for sid in (0, 1):
            w.inbox.put(WorkMsg(sim_work((sid,)), [h.get(sid).copy()]))
            w.results.get(timeout=5)
        w.stop()
        expected = np.random.default_rng(17 + 2).uniform(size=2)
        assert seen == pytest.approx(list(expected))

    def test_stop_seen_mid_sim_ends_the_loop_after_results(self, tmp_path):
        seen = []

        def waiting_sim(records, params, ctx):
            deadline = time.monotonic() + 5
            while not seen and time.monotonic() < deadline:
                seen.extend(ctx.poll_signals())
                time.sleep(0.01)
            return [0.0 for _ in records]

        w = ThreadedWorker(sim_fn=waiting_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=1)
        w.inbox.put(WorkMsg(sim_work((0,)), [h.get(0).copy()]))
        w.inbox.put(StopMsg())
        assert isinstance(w.results.get(timeout=5), SimDone)
        w.thread.join(timeout=5)
        assert not w.thread.is_alive()
        assert seen == [("STOP", None)]

    def test_kill_after_the_sim_returned_is_skipped(self, tmp_path, caplog):
        w = ThreadedWorker(sim_fn=norm_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=2)
        w.inbox.put(WorkMsg(sim_work((0,)), [h.get(0).copy()]))
        w.results.get(timeout=5)
        w.inbox.put(KillMsg((0,)))
        w.inbox.put(WorkMsg(sim_work((1,)), [h.get(1).copy()]))
        done = w.results.get(timeout=5)
        assert [sid for sid, _ in done.results] == [1]
        assert done.killed_ids == ()
        assert "unexpected" not in caplog.text
        w.stop()


class TestWorkerContext:
    def test_poll_signals_drains_in_order(self):
        inbox = queue.Queue()
        ctx = WorkerContext(3, WorkerConfig(), inbox)
        inbox.put(KillMsg((4, 5)))
        inbox.put(StopMsg())
        assert ctx.poll_signals() == [("KILL", 4), ("KILL", 5), ("STOP", None)]
        assert ctx.poll_signals() == []

    def test_executor_needs_a_platform(self):
        ctx = WorkerContext(2, WorkerConfig(), queue.Queue())
        with pytest.raises(ProtocolError, match="platform"):
            ctx.executor

    def test_gen_context_rejects_stray_messages(self):
        inbox, results = queue.Queue(), queue.Queue()
        ctx = WorkerContext(1, WorkerConfig(), queue.Queue())
        pctx = PersistentGenContext(ctx, inbox, results)
        inbox.put(WorkMsg(Work(target_worker=1, tag=Tag.EVAL_GEN), []))
        with pytest.raises(ProtocolError):
            pctx.recv()

    def test_gen_context_maps_stops(self):
        inbox, results = queue.Queue(), queue.Queue()
        ctx = WorkerContext(1, WorkerConfig(), queue.Queue())
        pctx = PersistentGenContext(ctx, inbox, results)
        inbox.put(StopMsg(Tag.PERSIS_STOP))
        assert pctx.recv() == (Tag.PERSIS_STOP, [])


# ---------------------------------------------------------------------------
# live ensembles


class TestRunEnsemble:
    def test_persistent_run_hits_sim_max_exactly(self, tmp_path):
        trace = []
        cfg = run_cfg(tmp_path, nworkers=3, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=12))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc(), trace=trace)
        assert flag == "sim_max"
        assert len(hist) == 12 and hist.returned_count() == 12
        for rec in hist:
            assert rec.gen_worker == 1 and rec.sim_worker in (2, 3)
            assert rec.f == pytest.approx(np.linalg.norm(rec.x))
        validate_trace(trace)

    def test_history_dumped_on_completion(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        run_ensemble(cfg, random_batch_gen, norm_sim, alloc=PersistentAlloc())
        loaded = History.load(str(tmp_path / "ens" / "history.tsv"))
        assert len(loaded) == 4 and loaded.returned_count() == 4

    def test_sim_max_zero_stops_before_any_work(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=0))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max" and len(hist) == 0

    def test_gen_max_counts_submissions(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(gen_max=6))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc())
        assert flag == "gen_max"
        assert len(hist) == 8  # two whole batches submitted

    def test_wallclock_ends_a_slow_run(self, tmp_path):
        cfg = run_cfg(tmp_path, nworkers=2, gen_params=dict(GEN_BOX),
                      sim_params={"seconds": 0.3},
                      exit_criteria=ExitCriteria(wallclock_max=0.8))
        t0 = time.monotonic()
        _, flag = run_ensemble(cfg, random_batch_gen, sleep_sim,
                               alloc=PersistentAlloc())
        assert flag == "wallclock_max"
        assert time.monotonic() - t0 < 8

    def test_stop_val_ends_on_good_objective(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=10_000,
                                                 stop_val=("f", 1.0)))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc())
        assert flag == "stop_val"
        assert any(r.returned and r.f <= 1.0 for r in hist)

    def test_gen_finished_flag_when_generator_returns(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params={"n_batches": 3},
                      exit_criteria=ExitCriteria(sim_max=10_000))
        hist, flag = run_ensemble(cfg, counted_gen, norm_sim,
                                  alloc=PersistentAlloc())
        assert flag == "gen_finished"
        assert len(hist) == 6 and hist.returned_count() == 6

    def test_default_alloc_round_robin(self, tmp_path):
        trace = []
        cfg = run_cfg(tmp_path, nworkers=2,
                      exit_criteria=ExitCriteria(sim_max=6))
        hist, flag = run_ensemble(cfg, oneshot_gen, norm_sim, trace=trace)
        assert flag == "sim_max" and hist.returned_count() >= 6
        # The batch of 3 forces at least two generator rounds.
        assert len(hist) >= 6
        validate_trace(trace)

    def test_sim_error_nan_policy_records_and_continues(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        hist, flag = run_ensemble(cfg, random_batch_gen, failing_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max"
        assert all(math.isnan(r.f) and r.returned for r in hist)

    def test_sim_error_abort_policy_raises_with_worker(self, tmp_path):
        cfg = run_cfg(tmp_path, sim_error="abort", gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        with pytest.raises(EnsembleError, match=r"worker \d sim function"):
            run_ensemble(cfg, random_batch_gen, failing_sim,
                         alloc=PersistentAlloc())
        # Aborting still leaves a history dump behind.
        assert (tmp_path / "ens" / "history.tsv").exists()

    def test_gen_crash_aborts(self, tmp_path):
        cfg = run_cfg(tmp_path, exit_criteria=ExitCriteria(sim_max=4))
        with pytest.raises(EnsembleError, match="generator exploded"):
            run_ensemble(cfg, crashing_gen, norm_sim, alloc=PersistentAlloc())

    def test_seeded_runs_repeat_exactly(self, tmp_path):
        runs = []
        for sub in ("a", "b"):
            cfg = run_cfg(tmp_path, sub=sub, nworkers=5,
                          gen_params=dict(GEN_BOX),
                          exit_criteria=ExitCriteria(sim_max=16))
            hist, _ = run_ensemble(cfg, random_batch_gen, norm_sim,
                                   alloc=PersistentAlloc())
            runs.append(hist)
        assert histories_equal(*runs)

    def test_restart_matches_uninterrupted_run(self, tmp_path):
        def go(sub, sim_max, alloc, H0=None):
            cfg = run_cfg(tmp_path, sub=sub, nworkers=5,
                          gen_params=dict(GEN_BOX),
                          exit_criteria=ExitCriteria(sim_max=sim_max))
            return run_ensemble(cfg, random_batch_gen, norm_sim,
                                alloc=alloc, H0=H0)

        ref, _ = go("ref", 16, PersistentAlloc())
        go("s1", 8, PersistentAlloc())
        H0 = History.load(str(tmp_path / "s1" / "history.tsv"))
        assert H0.returned_count() == 8
        resumed, _ = go("s2", 16, PersistentAlloc.resuming(H0.records), H0)
        assert histories_equal(ref, resumed)

    def test_restart_rdispatches_interrupted_sims(self, tmp_path):
        cfg = run_cfg(tmp_path, sub="s1", gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=8))
        hist, _ = run_ensemble(cfg, random_batch_gen, norm_sim,
                               alloc=PersistentAlloc())
        # Fabricate an interruption: one more batch given but unanswered.
        rng = np.random.default_rng(99)
        ids = hist.submit_points([GenPoint(x) for x in rng.uniform(0, 1, (4, 2))],
                                 gen_worker=1)
        hist.mark_given(ids, sim_worker=2, given_time=9.0)
        trace = []
        cfg2 = run_cfg(tmp_path, sub="s2", gen_params=dict(GEN_BOX),
                       exit_criteria=ExitCriteria(sim_max=16))
        out, _ = run_ensemble(cfg2, random_batch_gen, norm_sim,
                              alloc=PersistentAlloc.resuming(hist.records),
                              H0=hist, trace=trace)
        for sid in ids:
            rec = out.get(sid)
            assert rec.returned and rec.sim_worker is not None
            assert rec.f == pytest.approx(np.linalg.norm(rec.x))
        validate_trace(trace)

    def test_stop_val_in_H0_fires_at_first_check(self, tmp_path):
        H0 = make_history(points=4)
        H0.mark_given([0, 1], sim_worker=2, given_time=0.0)
        H0.update_with_results([(0, 0.9), (1, 0.1)], returned_time=0.0)
        trace = []
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(stop_val=("f", 0.1)))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc.resuming(H0.records),
                                  H0=H0, trace=trace)
        assert flag == "stop_val"
        assert [ev[0] for ev in trace] == ["adopt"] * 4 + ["stop"]
        assert len(hist) == 4 and hist.returned_count() == 2

    def test_resumed_run_stays_linear_in_history_size(self, tmp_path,
                                                       monkeypatch):
        """Counts, not timings: on a 2000-record resume each dump formats
        only the rows that changed since the one before, and the allocator
        reads each record's gen_worker at most once."""
        import dynens.history

        rng = np.random.default_rng(3)
        H0 = History(2, start_time=0.0)
        X = rng.uniform(0.0, 1.0, (2000, 2))
        for start in range(0, 2000, 4):
            ids = H0.submit_points([GenPoint(x) for x in X[start:start + 4]],
                                   gen_worker=1)
            H0.mark_given(ids, sim_worker=2, given_time=0.0)
            H0.update_with_results(
                [(sid, float(np.linalg.norm(X[sid]))) for sid in ids], 0.0)

        formatted = [0]
        real_format = dynens.history._format_row

        def counting_format(rec):
            formatted[0] += 1
            return real_format(rec)

        dumps = []  # (rows formatted, lines written) per dump
        real_dump = History.dump

        def recording_dump(self, path):
            before = formatted[0]
            real_dump(self, path)
            with open(path) as fh:
                dumps.append((formatted[0] - before, fh.read().splitlines()))

        scans = []  # (start, history length) per gen_record_ids call
        real_scan = HistoryView.gen_record_ids

        def recording_scan(self, worker, start=0):
            scans.append((start, len(self)))
            return real_scan(self, worker, start)

        monkeypatch.setattr(dynens.history, "_format_row", counting_format)
        monkeypatch.setattr(History, "dump", recording_dump)
        monkeypatch.setattr(HistoryView, "gen_record_ids", recording_scan)

        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX, batch_size=10),
                      exit_criteria=ExitCriteria(sim_max=2120), dump_every=20)
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc.resuming(H0.records),
                                  H0=H0)
        assert flag == "sim_max" and len(hist) >= 2120

        # The first dump formats every adopted row; each later one only
        # the rows that differ from the dump before it.
        assert len(dumps) >= 6
        assert dumps[0][0] == len(dumps[0][1]) - 1
        for (_, prev), (n_formatted, lines) in zip(dumps, dumps[1:]):
            changed = sum(1 for i, line in enumerate(lines)
                          if i >= len(prev) or line != prev[i])
            assert n_formatted == changed < 100

        read = set()
        for start, end in scans:
            span = set(range(start, end))
            assert not span & read, "a record's gen_worker was read twice"
            read |= span
        assert len(read) <= len(hist)

    def test_batch_forwarding_tests_each_id_until_it_returns(self, tmp_path,
                                                             monkeypatch):
        """Counts, not timings: on a 2000-record resume the allocator asks
        whether a record has returned at most once per new record plus
        once per cycle, and forwards only returned records, in batches."""
        rng = np.random.default_rng(4)
        H0 = History(2, start_time=0.0)
        X = rng.uniform(0.0, 1.0, (2000, 2))
        for start in range(0, 2000, 10):
            ids = H0.submit_points([GenPoint(x) for x in X[start:start + 10]],
                                   gen_worker=1)
            H0.mark_given(ids, sim_worker=2, given_time=0.0)
            H0.update_with_results(
                [(sid, float(np.linalg.norm(X[sid]))) for sid in ids], 0.0)

        tested = []
        real_is_returned = HistoryView.is_returned

        def counting_is_returned(self, sim_id):
            tested.append(sim_id)
            return real_is_returned(self, sim_id)

        cycles = [0]
        real_call = PersistentAlloc.__call__

        def counting_call(self, view, workers, pool):
            cycles[0] += 1
            return real_call(self, view, workers, pool)

        monkeypatch.setattr(HistoryView, "is_returned", counting_is_returned)
        monkeypatch.setattr(PersistentAlloc, "__call__", counting_call)

        alloc = PersistentAlloc.resuming(H0.records)
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX, batch_size=10),
                      exit_criteria=ExitCriteria(sim_max=2300))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=alloc, H0=H0)
        assert flag == "sim_max" and len(hist) >= 2300

        new = len(hist) - len(H0)
        assert len(tested) <= new + cycles[0]
        assert min(tested) >= len(H0)
        forwarded = sorted(alloc.forwarded)
        assert forwarded[:len(H0)] == list(range(len(H0)))
        assert all(hist.get(sid).returned for sid in forwarded)
        assert (len(forwarded) - len(H0)) % 10 == 0

    def test_mode_equivalence(self, tmp_path):
        runs = []
        for comms in ("local", "gen_on_manager"):
            cfg = run_cfg(tmp_path, sub=comms, comms=comms, nworkers=5,
                          gen_params=dict(GEN_BOX),
                          exit_criteria=ExitCriteria(sim_max=16))
            hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                      alloc=PersistentAlloc())
            assert flag == "sim_max"
            runs.append(hist)
        assert histories_equal(*runs)

    def test_resource_requests_flow_to_workers(self, tmp_path):
        cfg = run_cfg(tmp_path, nworkers=3,
                      inventory=NodeInventory([Node("n0", 4)]),
                      exit_criteria=ExitCriteria(sim_max=4))
        hist, flag = run_ensemble(cfg, requesting_gen, procs_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max"
        # Two rsets of 2 cores each; every sim saw its 2-proc assignment.
        assert [r.f for r in hist] == [2.0] * 4

    def test_sim_directories_created_before_sims(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        hist, _ = run_ensemble(cfg, random_batch_gen, dir_checking_sim,
                               alloc=PersistentAlloc())
        assert all(r.returned and r.f == 0.0 for r in hist)

    def test_cancel_kills_running_sim(self, tmp_path):
        trace = []
        cfg = run_cfg(tmp_path, nworkers=3,
                      exit_criteria=ExitCriteria(sim_max=3))
        hist, _ = run_ensemble(cfg, cancelling_gen, stalling_sim,
                               alloc=PersistentAlloc(async_mode=True),
                               trace=trace)
        rec = hist.get(1)
        assert rec.cancel_requested and rec.kill_sent
        assert rec.returned and math.isnan(rec.f)
        # The other two ran to completion untouched.
        for sid in (0, 2):
            other = hist.get(sid)
            assert not other.cancel_requested
            assert other.f == pytest.approx(np.linalg.norm(other.x))
        validate_trace(trace)

    def test_work_for_a_busy_worker_is_refused(self, tmp_path):
        def double_booking_alloc(view, workers, pool):
            return [Work(target_worker=2, tag=Tag.EVAL_GEN)] * 2

        cfg = run_cfg(tmp_path, exit_criteria=ExitCriteria(gen_max=6))
        with pytest.raises(EnsembleError, match="busy worker 2"):
            run_ensemble(cfg, oneshot_gen, norm_sim, alloc=double_booking_alloc)

    def test_dead_worker_ends_the_run_and_can_be_resumed(self, tmp_path):
        threads_before = set(threading.enumerate())
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=20, wallclock_max=20))
        t0 = time.monotonic()
        with pytest.raises(EnsembleError, match="exited unexpectedly") as err:
            run_ensemble(cfg, random_batch_gen, dying_sim,
                         alloc=PersistentAlloc())
        assert time.monotonic() - t0 < 5
        assert_nothing_left_running(threads_before)

        H0 = History.load(str(tmp_path / "ens" / "history.tsv"))
        lost = H0.get(5)
        assert lost.given and not lost.returned
        assert f"worker {lost.sim_worker} exited" in str(err.value)
        # Passed back as H0, the lost record is pending again and runs.
        cfg2 = run_cfg(tmp_path, sub="resumed", gen_params=dict(GEN_BOX),
                       exit_criteria=ExitCriteria(sim_max=20))
        hist, flag = run_ensemble(cfg2, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc.resuming(H0.records),
                                  H0=H0)
        assert flag == "sim_max"
        rec = hist.get(5)
        assert rec.returned and rec.f == pytest.approx(np.linalg.norm(rec.x))

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_that_cannot_send_ends_the_run(self, tmp_path, comms):
        cfg = run_cfg(tmp_path, comms=comms,
                      exit_criteria=ExitCriteria(sim_max=4, wallclock_max=20))
        t0 = time.monotonic()
        with pytest.raises(EnsembleError, match="worker 1 exited unexpectedly"):
            run_ensemble(cfg, unsendable_gen, norm_sim)
        assert time.monotonic() - t0 < 5

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_busy_generator_never_stalls_dispatch(self, tmp_path, comms):
        n, d = 400, 16
        box = {"lb": [0.0] * d, "ub": [1.0] * d, "batch_size": n, "sleep": 2.0}
        cfg = run_cfg(tmp_path, comms=comms, n_dims=d, gen_params=box,
                      exit_criteria=ExitCriteria(sim_max=n + 1))
        hist, flag = run_ensemble(cfg, sleepy_gen, norm_sim,
                                  alloc=PersistentAlloc(async_mode=True))
        assert flag == "sim_max" and len(hist) == n + 1
        first = hist.records[:n]
        # More than a pipe buffer's worth was forwarded to the sleeper...
        assert len(pickle.dumps(ResultsMsg(first))) > PIPE_BUFFER
        # ...whose next point came only after its 2 s sleep, which began
        # before the first sim was dispatched...
        start = min(r.given_time for r in first)
        assert hist.get(n).given_time - start > 1.5
        # ...yet every sim of the first batch was dispatched and returned
        # well within that sleep.
        assert max(r.returned_time for r in first) - start < 1.5

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_batches_and_forwards_larger_than_a_pipe_buffer(self, tmp_path,
                                                            comms):
        threads_before = set(threading.enumerate())
        n, d = 500, 16
        box = {"lb": [0.0] * d, "ub": [1.0] * d, "batch_size": n}
        cfg = run_cfg(tmp_path, comms=comms, n_dims=d, gen_params=box,
                      exit_criteria=ExitCriteria(sim_max=2 * n))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max" and hist.returned_count() == 2 * n
        batch = hist.records[:n]
        assert len(pickle.dumps(GenBatch(1, [GenPoint(r.x) for r in batch]))) \
            > PIPE_BUFFER
        assert len(pickle.dumps(ResultsMsg(batch))) > PIPE_BUFFER
        assert_nothing_left_running(threads_before)

    def test_nworkers_validation(self, tmp_path):
        with pytest.raises(ValueError, match="nworkers"):
            run_cfg(tmp_path, nworkers=0)

    def test_unknown_comms_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="comms"):
            run_cfg(tmp_path, comms="tcp")
