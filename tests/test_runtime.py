"""Engine tests: allocators, exit criteria, the protocol trace checker,
the worker loop in isolation, and small live ensembles in both comms
modes."""

import dataclasses
import heapq
import logging
import math
import multiprocessing as mp
import os
import pickle
import queue
import signal
import threading
import time

import numpy as np
import pytest

from dynens.gp_generator import gp_gen_loop
from dynens.history import GenPoint, History, histories_equal, records_equal
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
    WorkerContext,
    WorkerState,
    WorkerStatus,
    check_exit,
    run_ensemble,
    validate_trace,
    worker_main,
)
from dynens.runtime.manager import _Inbox, _Manager
from dynens.runtime.messages import (
    GenBatch,
    GenDone,
    KillMsg,
    RecordBatch,
    ResultsMsg,
    SimDone,
    StopMsg,
    WorkMsg,
    Work,
)
from dynens.runtime.worker import _run_sim

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


def dir_twice_sim(records, params, ctx):
    """1.0 where asking twice for a record's directory gave one path
    that exists."""
    out = []
    for rec in records:
        first, second = ctx.sim_dir(rec.sim_id), ctx.sim_dir(rec.sim_id)
        out.append(float(first == second and os.path.isdir(first)))
    return out


def random_batch_gen(history_in, params, ctx):
    """Persistent uniform sampler; replays a prior history on restart."""
    lb = np.asarray(params["lb"], dtype=float)
    ub = np.asarray(params["ub"], dtype=float)
    b = int(params["batch_size"])
    n = len(lb)
    if len(history_in):
        ctx.rng.uniform(lb, ub, (len(history_in), n))
    if not history_in.returned.all():
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
        tag, batch = ctx.recv()
        if tag in STOP_TAGS:
            return tag
        got += len(batch)
    tag, _ = ctx.recv()
    return tag


def withdrawing_gen(history_in, params, ctx):
    """Sends three points, at once cancels the last, which cannot have
    been given yet, and saves the sim_ids of the batch it gets back."""
    ctx.send([GenPoint(x) for x in ctx.rng.uniform(0, 1, (3, 2))])
    ctx.request_cancel([2])
    tag, batch = ctx.recv()
    with open(os.path.join(ctx.ensemble_dir, "received.pkl"), "wb") as fh:
        pickle.dump((tag, batch.sim_ids.tolist()), fh)


def dying_sim(records, params, ctx):
    """Kills its own worker process on sim 5."""
    if any(r.sim_id == 5 for r in records):
        os._exit(1)
    return norm_sim(records, params, ctx)


def note_pid(params):
    """Leave a file named after this process's pid in params["pid_dir"]."""
    open(os.path.join(params["pid_dir"], str(os.getpid())), "w").close()


def pid_noting_gen(history_in, params, ctx):
    note_pid(params)
    return random_batch_gen(history_in, params, ctx)


def pid_noting_sim(records, params, ctx):
    note_pid(params)
    time.sleep(0.01)
    return norm_sim(records, params, ctx)


def process_alive(pid):
    """Whether pid runs: it exists and is not a zombie waiting to be
    reaped by a parent other than this process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


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
        tag, batch = ctx.recv()
        if tag in STOP_TAGS:
            return tag
        got += len(batch)
    tag, _ = ctx.send_recv([GenPoint(x) for x in ctx.rng.uniform(0, 1, (1, d))])
    return tag


def starved_gen(history_in, params, ctx):
    """Persistent generator that sends one batch, sleeps while its
    results are forwarded to it unread, then kills its own process."""
    n, d = int(params["batch_size"]), len(params["lb"])
    ctx.send([GenPoint(x) for x in ctx.rng.uniform(0, 1, (n, d))])
    time.sleep(params["sleep"])
    os._exit(1)


def recording_gen(history_in, params, ctx):
    """Persistent generator that saves (sim_id, x, f, returned) of the
    records it was handed, then returns."""
    rows = list(zip(history_in.sim_ids.tolist(), history_in.x.tolist(),
                    history_in.f.tolist(), history_in.returned.tolist()))
    with open(os.path.join(ctx.ensemble_dir, "history_in.pkl"), "wb") as fh:
        pickle.dump(rows, fh)


def scribbling_gen(history_in, params, ctx):
    """Persistent generator that writes into every x it receives."""
    history_in.x[:] = -1.0
    tag, batch = ctx.send_recv([GenPoint(np.full(2, 0.5))])
    batch.x[:] = -1.0
    return tag


def stamping_sim(records, params, ctx):
    """norm_sim that writes its wall-clock entry and exit times into
    each record's sim directory."""
    t_in = time.time()
    out = norm_sim(records, params, ctx)
    t_out = time.time()
    for rec in records:
        with open(os.path.join(ctx.sim_dir(rec.sim_id), "wall.txt"), "w") as fh:
            fh.write(f"{t_in!r} {t_out!r}")
    return out


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


def costed_sim(records, params, ctx):
    """Sleeps x0 seconds per record."""
    for rec in records:
        time.sleep(rec.x[0])
    return [0.0 for _ in records]


UNEVEN_COSTS = [0.2] * 4 + [0.02] * 4


def uneven_gen(history_in, params, ctx):
    """Sends UNEVEN_COSTS as one batch of costed_sim records, then the
    reverse order, and saves each batch's send_recv round trip."""
    rtts = []
    for costs in (UNEVEN_COSTS, UNEVEN_COSTS[::-1]):
        t0 = time.perf_counter()
        tag, _ = ctx.send_recv([GenPoint([c, 0.0]) for c in costs])
        rtts.append(time.perf_counter() - t0)
        if tag in STOP_TAGS:
            return tag
    with open(os.path.join(ctx.ensemble_dir, "rtts.pkl"), "wb") as fh:
        pickle.dump(rtts, fh)


def entering_sim(records, params, ctx):
    """Leaves an `entered<sim_id>` file in the ensemble directory per
    record, then sleeps `seconds`; with `poll` it drains signals while it
    sleeps, as a sim that watches for its own kill does."""
    seconds = params.get("seconds", 0.2)
    for rec in records:
        open(os.path.join(ctx.ensemble_dir, f"entered{rec.sim_id}"), "w").close()
        deadline = time.monotonic() + seconds
        while params.get("poll") and time.monotonic() < deadline:
            ctx.poll_signals()  # a kill for another record is not its own
            time.sleep(0.01)
        time.sleep(max(0.0, deadline - time.monotonic()))
    return [0.0 for _ in records]


def entered_ids(ens_dir):
    return {int(p.name[len("entered"):]) for p in ens_dir.glob("entered*")}


def pack_cancelling_gen(history_in, params, ctx):
    """Sends four points, cancels sim 1 once sim 0 has started, and saves
    the sim_ids of the batch it gets back."""
    ctx.send([GenPoint(x) for x in ctx.rng.uniform(0, 1, (4, 2))])
    deadline = time.monotonic() + 5
    while (not os.path.exists(os.path.join(ctx.ensemble_dir, "entered0"))
           and time.monotonic() < deadline):
        time.sleep(0.005)
    ctx.request_cancel([1])
    tag, batch = ctx.recv()
    with open(os.path.join(ctx.ensemble_dir, "received.pkl"), "wb") as fh:
        pickle.dump((tag, batch.sim_ids.tolist()), fh)


def first_fails_sim(records, params, ctx):
    """Leaves an `entered<sim_id>` file in the ensemble directory per
    record; raises on sim 0 and sleeps 0.5 s on every other."""
    for rec in records:
        open(os.path.join(ctx.ensemble_dir, f"entered{rec.sim_id}"), "w").close()
        if rec.sim_id == 0:
            raise RuntimeError("sim 0 exploded")
        time.sleep(0.5)
    return [0.0 for _ in records]


def picky_sim(records, params, ctx):
    """norm_sim that raises on sim 1."""
    if any(r.sim_id == 1 for r in records):
        raise RuntimeError("sim 1 exploded")
    return norm_sim(records, params, ctx)


def contract_sim(records, params, ctx):
    """Saves what it sees of the one-record list bench/'s simulators read
    (records[0].sim_id, rec.sim_id, rec.x), then writes into its x."""
    rec = records[0]
    seen = {"list": type(records) is list, "len": len(records),
            "sim_id": rec.sim_id, "int_id": type(rec.sim_id) is int,
            "running": set(ctx.current_sim_ids), "x": rec.x.tolist(),
            "dtype": rec.x.dtype, "shape": rec.x.shape,
            "requests": (rec.num_procs, rec.num_gpus), "f": rec.f}
    with open(os.path.join(ctx.sim_dir(rec.sim_id), "seen.pkl"), "wb") as fh:
        pickle.dump(seen, fh)
    rec.x[:] = -1.0
    return [0.0]


def assert_sim_saw_its_record(ens_dir, worker, rec):
    """contract_sim's call for rec received a list of one record, with
    rec's sim_id and a float64 copy of its x, which no earlier write
    into a pack-mate's x had changed."""
    with open(os.path.join(ens_dir, f"worker{worker}", f"sim{rec.sim_id}",
                           "seen.pkl"), "rb") as fh:
        seen = pickle.load(fh)
    assert seen["list"] and seen["len"] == 1
    assert seen["sim_id"] == rec.sim_id and seen["int_id"]
    assert seen["running"] == {rec.sim_id}
    assert seen["dtype"] == np.float64 and seen["shape"] == rec.x.shape
    assert seen["x"] == rec.x.tolist()
    # The fields the record does not carry keep their defaults.
    assert seen["requests"] == (0, 0) and math.isnan(seen["f"])


# ---------------------------------------------------------------------------
# helpers


def make_history(n_dims=2, points=0, **flags):
    h = History(n_dims, start_time=0.0)
    if points:
        xs = np.linspace(0.0, 1.0, points * n_dims).reshape(points, n_dims)
        h.submit_points([GenPoint(x) for x in xs], gen_worker=1)
    return h


def worker_cfg(**kw):
    """The RunConfig a worker driven by hand carries; the run-level
    fields only satisfy its checks."""
    return RunConfig(n_dims=2, nworkers=1,
                     exit_criteria=ExitCriteria(sim_max=1), **kw)


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
        h = make_history()
        xs = np.linspace(0.0, 1.0, 3 * 2).reshape(3, 2)
        h.submit_points([GenPoint(x, priority=pr)
                         for x, pr in zip(xs, [1.0, 3.0, 2.0])], gen_worker=1)
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
        h = make_history()
        xs = np.linspace(0.0, 1.0, 2 * 2).reshape(2, 2)
        h.submit_points([GenPoint(xs[0], num_procs=99), GenPoint(xs[1])],
                        gen_worker=1)
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
        h = make_history()
        h.submit_points([GenPoint(np.linspace(0.0, 1.0, 2), num_procs=2)],
                        gen_worker=1)
        pool = ResourcePool(NodeInventory([Node("n0", 4)]), 2)
        (work,) = DefaultAlloc()(HistoryView(h), idle_workers(1), pool)
        assert work.assignment is not None
        assert work.assignment.total_procs == 2

    def test_packs_are_factored_in_priority_order(self):
        h = make_history()
        xs = np.linspace(0.0, 1.0, 9 * 2).reshape(9, 2)
        h.submit_points([GenPoint(x, priority=float(sid % 3))
                         for sid, x in enumerate(xs)], gen_worker=1)
        order = [r.sim_id for r in h.pending_sims()]
        actions = DefaultAlloc()(HistoryView(h), idle_workers(2), None)
        # ceil(9 / (2 * 2 workers)) = 3 consecutive records each.
        assert [a.record_ids for a in actions] == [tuple(order[:3]),
                                                   tuple(order[3:6])]
        assert [a.target_worker for a in actions] == [1, 2]

    def test_with_a_pool_each_record_goes_alone(self):
        h = make_history(points=8)
        pool = ResourcePool(NodeInventory([Node("n0", 4)]), 2)
        actions = DefaultAlloc()(HistoryView(h), idle_workers(2), pool)
        assert [a.record_ids for a in actions] == [(0,), (1,)]
        assert all(a.assignment is not None for a in actions)


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

    def test_batch_forwarded_without_a_record_cancelled_before_given(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=3)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.mark_cancel([2])
        assert alloc(HistoryView(h), persistent_states(), None) == []
        h.update_with_results([(0, 1.0), (1, 2.0)], returned_time=0.0)
        actions = alloc(HistoryView(h), persistent_states(), None)
        assert actions == [Forward(1, (0, 1))]
        assert alloc(HistoryView(h), persistent_states(), None) == []

    def test_cancelled_running_record_still_awaited(self):
        # Given before the cancel, it comes back (killed, as NaN).
        alloc = PersistentAlloc(started=True)
        h = make_history(points=2)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.mark_cancel([1])
        h.update_with_results([(0, 1.0)], returned_time=0.0)
        assert alloc(HistoryView(h), persistent_states(), None) == []
        h.update_with_results([(1, float("nan"))], returned_time=0.0)
        actions = alloc(HistoryView(h), persistent_states(), None)
        assert actions == [Forward(1, (0, 1))]

    def test_async_drops_a_record_cancelled_before_given(self):
        alloc = PersistentAlloc(started=True, async_mode=True)
        h = make_history(points=2)
        h.mark_cancel([0])
        h.mark_given([1], sim_worker=2, given_time=0.0)
        assert alloc(HistoryView(h), persistent_states(), None) == []
        h.update_with_results([(1, 2.0)], returned_time=0.0)
        assert alloc(HistoryView(h), persistent_states(), None) == [Forward(1, (1,))]
        # Nothing is left to test on later calls.
        assert alloc._outstanding == []

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
        alloc = PersistentAlloc()
        # The start message carries the returned pair; only the
        # unreturned pair counts as outstanding.
        actions = alloc(HistoryView(h), idle_workers(3), None)
        assert actions[0] == Work(target_worker=1, tag=Tag.EVAL_GEN,
                                  persistent=True)
        assert not any(isinstance(a, Forward) for a in actions)
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

    def test_packs_count_only_sim_workers(self):
        alloc = PersistentAlloc(started=True)
        h = make_history(points=50)
        actions = alloc(HistoryView(h), persistent_states(n_sim=2), None)
        # ceil(50 / (2 * 2 sim workers)) = 13 records per idle sim worker.
        assert [a.record_ids for a in actions] == [tuple(range(13)),
                                                   tuple(range(13, 26))]
        assert [a.target_worker for a in actions] == [2, 3]

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
# worker loop in isolation (threaded: an inbox pipe, a result pipe)


class PipeInbox:
    """A worker's inbox pipe: the worker reads `reader`; put writes to
    the other end as the manager does."""

    def __init__(self):
        self.reader, self.writer = mp.Pipe(duplex=False)

    def put(self, msg):
        self.writer.send(msg)


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
        self.inbox = PipeInbox()
        self.results = ResultPipe()
        cfg = worker_cfg(**cfg_kw)
        self.thread = threading.Thread(
            target=worker_main,
            args=(worker_id, cfg, self.inbox.reader, self.results.writer,
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
        w.inbox.put(WorkMsg(sim_work((0, 1)), RecordBatch.of_history(h, range(len(h)))))
        done = w.results.get(timeout=5)
        assert isinstance(done, SimDone) and done.worker_id == 2
        assert [sid for sid, _ in done.results] == [0, 1]
        assert done.error is None and done.killed_ids == ()
        for sid, val in done.results:
            assert val == pytest.approx(np.linalg.norm(h.get(sid).x))
        # norm_sim never asks for a directory, so none is made.
        assert not (tmp_path / "worker2" / "sim0").exists()
        assert not (tmp_path / "worker2" / "sim1").exists()
        w.stop()

    def test_sim_exception_reports_nan_and_traceback(self, tmp_path):
        w = ThreadedWorker(sim_fn=failing_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=1)
        w.inbox.put(WorkMsg(sim_work((0,)), RecordBatch.of_history(h, [0])))
        done = w.results.get(timeout=5)
        assert math.isnan(done.results[0][1])
        assert "sim exploded" in done.error
        w.stop()

    def test_oneshot_gen_returns_batch(self, tmp_path):
        w = ThreadedWorker(gen_fn=oneshot_gen, ensemble_dir=str(tmp_path))
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN),
                             RecordBatch()))
        batch = w.results.get(timeout=5)
        assert isinstance(batch, GenBatch) and len(batch.points) == 3
        w.stop()

    def test_gen_crash_reports_worker(self, tmp_path):
        w = ThreadedWorker(gen_fn=crashing_gen, ensemble_dir=str(tmp_path))
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN,
                                 persistent=True), RecordBatch()))
        crash = w.results.get(timeout=5)
        assert crash.worker_id == 2
        assert "generator exploded" in crash.traceback_text
        w.stop()

    def test_persistent_gen_round_trip(self, tmp_path):
        w = ThreadedWorker(gen_fn=counted_gen, ensemble_dir=str(tmp_path),
                           gen_params={"n_batches": 2})
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN,
                                 persistent=True), RecordBatch()))
        for _ in range(2):
            batch = w.results.get(timeout=5)
            assert isinstance(batch, GenBatch) and len(batch.points) == 2
            w.inbox.put(ResultsMsg(RecordBatch()))
        done = w.results.get(timeout=5)
        assert isinstance(done, GenDone)
        w.stop()

    def test_rng_stream_spans_calls(self, tmp_path):
        seen = []

        def peeking_sim(records, params, ctx):
            seen.append(float(ctx.rng.uniform()))
            return [0.0 for _ in records]

        w = ThreadedWorker(sim_fn=peeking_sim, ensemble_dir=str(tmp_path),
                           seed=17)
        h = make_history(points=2)
        for sid in (0, 1):
            w.inbox.put(WorkMsg(sim_work((sid,)), RecordBatch.of_history(h, [sid])))
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
        w.inbox.put(WorkMsg(sim_work((0,)), RecordBatch.of_history(h, [0])))
        w.inbox.put(StopMsg())
        assert isinstance(w.results.get(timeout=5), SimDone)
        w.thread.join(timeout=5)
        assert not w.thread.is_alive()
        assert seen == [("STOP", None)]

    def test_kill_after_the_sim_returned_is_skipped(self, tmp_path, caplog):
        w = ThreadedWorker(sim_fn=norm_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=2)
        w.inbox.put(WorkMsg(sim_work((0,)), RecordBatch.of_history(h, [0])))
        w.results.get(timeout=5)
        w.inbox.put(KillMsg((0,)))
        w.inbox.put(WorkMsg(sim_work((1,)), RecordBatch.of_history(h, [1])))
        done = w.results.get(timeout=5)
        assert [sid for sid, _ in done.results] == [1]
        assert done.killed_ids == ()
        assert "unexpected" not in caplog.text
        w.stop()

    def test_error_in_a_pack_makes_only_its_record_nan(self, tmp_path):
        w = ThreadedWorker(sim_fn=picky_sim, ensemble_dir=str(tmp_path))
        h = make_history(points=3)
        w.inbox.put(WorkMsg(sim_work((0, 1, 2)), RecordBatch.of_history(h, range(3))))
        done = w.results.get(timeout=5)
        assert [sid for sid, _ in done.results] == [0, 1, 2]
        assert math.isnan(done.results[1][1])
        for sid, val in (done.results[0], done.results[2]):
            assert val == pytest.approx(np.linalg.norm(h.get(sid).x))
        assert "sim 1 exploded" in done.error and done.unstarted == ()
        w.stop()

    def test_error_under_abort_leaves_the_rest_of_the_pack(self, tmp_path):
        w = ThreadedWorker(sim_fn=picky_sim, ensemble_dir=str(tmp_path),
                           sim_error="abort")
        h = make_history(points=3)
        w.inbox.put(WorkMsg(sim_work((0, 1, 2)), RecordBatch.of_history(h, range(3))))
        done = w.results.get(timeout=5)
        assert [sid for sid, _ in done.results] == [0, 1]
        assert math.isnan(done.results[1][1])
        assert "sim 1 exploded" in done.error and done.unstarted == (2,)
        w.stop()

    def test_stop_read_by_a_generator_ends_the_loop(self, tmp_path):
        """PERSIS_STOP, read through recv, is the worker's only stop."""
        w = ThreadedWorker(gen_fn=counted_gen, ensemble_dir=str(tmp_path),
                           gen_params={"n_batches": 5})
        w.inbox.put(WorkMsg(Work(target_worker=2, tag=Tag.EVAL_GEN,
                                 persistent=True), RecordBatch()))
        assert isinstance(w.results.get(timeout=5), GenBatch)
        w.inbox.put(StopMsg(Tag.PERSIS_STOP))
        assert isinstance(w.results.get(timeout=5), GenDone)
        w.thread.join(timeout=5)
        assert not w.thread.is_alive()


class SentList(list):
    """An outbox that keeps what was sent."""

    send = list.append


class TestPackedWork:
    """_run_sim on one Work of three records, with signals queued before
    it starts, so the drain between records always finds them."""

    def run_pack(self, *signals):
        inbox = PipeInbox()
        for msg in signals:
            inbox.put(msg)
        ctx = WorkerContext(2, worker_cfg(), inbox.reader)
        entered, outbox = [], SentList()

        def sim(records, params, ctx):
            assert ctx.current_sim_ids == {records[0].sim_id}
            entered.extend(r.sim_id for r in records)
            return [float(r.sim_id) for r in records]

        h = make_history(points=3)
        _run_sim(ctx, WorkMsg(sim_work((0, 1, 2)), RecordBatch.of_history(h, range(3))),
                 outbox, sim)
        (done,) = outbox
        return ctx, entered, done

    def test_one_call_per_record(self):
        ctx, entered, done = self.run_pack()
        assert entered == [0, 1, 2] and done.unstarted == ()
        assert done.results == [(0, 0.0), (1, 1.0), (2, 2.0)]
        assert ctx.current_sim_ids == set()

    def test_kill_withdraws_a_later_record(self):
        ctx, entered, done = self.run_pack(KillMsg((1,)))
        assert entered == [0, 2]
        assert done.results == [(0, 0.0), (2, 2.0)] and done.unstarted == (1,)
        assert not ctx.stopping

    def test_each_call_gets_its_own_record_to_write(self, tmp_path):
        inbox = PipeInbox()
        ctx = WorkerContext(2, worker_cfg(ensemble_dir=str(tmp_path)), inbox.reader)
        h = make_history(points=3)
        outbox = SentList()
        _run_sim(ctx, WorkMsg(sim_work((0, 1, 2)), RecordBatch.of_history(h, range(3))),
                 outbox, contract_sim)
        assert [sid for sid, _ in outbox[0].results] == [0, 1, 2]
        for rec in h:
            assert_sim_saw_its_record(str(tmp_path), 2, rec)
        # The sims' writes reached neither the history nor a later record.
        assert np.array_equal(h.columns("x")[0], make_history(points=3).columns("x")[0])

    def test_stop_leaves_the_rest_unstarted(self):
        ctx, entered, done = self.run_pack(StopMsg())
        assert entered == [0]
        assert done.results == [(0, 0.0)] and done.unstarted == (1, 2)
        assert ctx.stopping


class TestWorkerContext:
    def test_poll_signals_drains_in_order(self):
        inbox = PipeInbox()
        ctx = WorkerContext(3, worker_cfg(), inbox.reader)
        inbox.put(KillMsg((4, 5)))
        inbox.put(StopMsg())
        assert ctx.poll_signals() == [("KILL", 4), ("KILL", 5), ("STOP", None)]
        assert ctx.poll_signals() == []

    def test_poll_signals_reads_an_ended_inbox_as_one_stop(self):
        """A manager killed mid-pack leaves the inbox ended; the drain
        between records must end too, or the orphan spins for ever."""
        inbox = PipeInbox()
        ctx = WorkerContext(3, worker_cfg(), inbox.reader)
        inbox.put(KillMsg((4,)))
        inbox.writer.close()
        seen = []
        drain = threading.Thread(target=lambda: seen.append(ctx.poll_signals()),
                                 daemon=True)
        drain.start()
        drain.join(timeout=5)
        assert seen == [[("KILL", 4), ("STOP", None)]]
        assert ctx.stopping

    def test_executor_needs_a_platform(self):
        ctx = WorkerContext(2, worker_cfg(), PipeInbox().reader)
        with pytest.raises(ProtocolError, match="platform"):
            ctx.executor

    def test_gen_context_rejects_stray_messages(self):
        inbox, results = PipeInbox(), SentList()
        ctx = WorkerContext(1, worker_cfg(), inbox.reader)
        pctx = PersistentGenContext(ctx, results)
        inbox.put(WorkMsg(Work(target_worker=1, tag=Tag.EVAL_GEN)))
        with pytest.raises(ProtocolError):
            pctx.recv()

    def test_gen_context_maps_stops(self):
        inbox, results = PipeInbox(), SentList()
        ctx = WorkerContext(1, worker_cfg(), inbox.reader)
        pctx = PersistentGenContext(ctx, results)
        inbox.put(StopMsg(Tag.PERSIS_STOP))
        assert not ctx.stopping
        tag, batch = pctx.recv()
        assert tag == Tag.PERSIS_STOP
        assert isinstance(batch, RecordBatch) and len(batch) == 0
        assert ctx.stopping


# ---------------------------------------------------------------------------
# record batches


def batch_history(n_dims, requests=True):
    """Five records: returned with a value, returned NaN, given and
    unreturned, and two never given; with resource requests unless
    told otherwise."""
    h = History(n_dims, start_time=0.0)
    xs = np.arange(5 * n_dims, dtype=float).reshape(5, n_dims) / 7.0
    k = 1 if requests else 0
    h.submit_points([GenPoint(x, num_procs=k * i, num_gpus=k * (i % 2),
                              priority=i)
                     for i, x in enumerate(xs)], gen_worker=1)
    h.mark_given([0, 1, 2], sim_worker=2, given_time=0.5)
    h.update_with_results([(0, 0.25), (1, float("nan"))], returned_time=1.0)
    return h


class TestRecordBatch:
    @pytest.mark.parametrize("n_dims", [1, 3])
    def test_round_trip_keeps_the_sent_fields(self, n_dims):
        h = batch_history(n_dims)
        batch = pickle.loads(pickle.dumps(RecordBatch.of_history(h, range(len(h)))))
        assert len(batch) == 5
        assert batch.sim_ids.dtype == np.int64 and batch.sim_ids.tolist() == [0, 1, 2, 3, 4]
        assert batch.x.dtype == np.float64 and batch.x.shape == (5, n_dims)
        assert np.array_equal(batch.x, [r.x for r in h.records])
        assert batch.f.dtype == np.float64 and batch.f.shape == (5,)
        assert batch.f[0] == 0.25 and np.isnan(batch.f[1:]).all()
        assert batch.returned.dtype == np.bool_
        assert batch.returned.tolist() == [True, True, False, False, False]

    def test_columns_follow_the_ids_asked_for(self):
        h = batch_history(2)
        batch = pickle.loads(pickle.dumps(RecordBatch.of_history(h, (3, 0))))
        assert batch.sim_ids.tolist() == [3, 0]
        assert np.array_equal(batch.x, [h.get(3).x, h.get(0).x])
        assert batch.f[1] == 0.25 and batch.returned.tolist() == [False, True]

    def test_empty_round_trip(self):
        for empty in (RecordBatch.of_history(batch_history(2), []), RecordBatch()):
            batch = pickle.loads(pickle.dumps(empty))
            assert len(batch) == 0 and batch.x.shape == (0, 0)
            for col, dtype in ((batch.sim_ids, np.int64), (batch.f, np.float64),
                               (batch.returned, np.bool_)):
                assert col.shape == (0,) and col.dtype == dtype

    def test_received_records_are_writable_copies(self):
        h = batch_history(2)
        sent = RecordBatch.of_history(h, range(len(h)))
        got = pickle.loads(pickle.dumps(sent))
        for col in (got.sim_ids, got.x, got.f, got.returned):
            assert col.flags.writeable
            col[:] = 0
        assert np.array_equal(h.get(0).x, np.array([0.0, 1.0]) / 7.0)
        again = pickle.loads(pickle.dumps(sent))
        assert np.array_equal(again.x, [r.x for r in h.records])
        assert again.sim_ids.tolist() == [0, 1, 2, 3, 4]
        assert again.returned.tolist() == [True, True, False, False, False]

    def test_batch_is_a_snapshot(self):
        h = batch_history(2)
        sent = RecordBatch.of_history(h, range(len(h)))
        h.update_with_results([(2, 9.0)], returned_time=2.0)
        got = pickle.loads(pickle.dumps(sent))
        assert np.isnan(got.f[2]) and not got.returned[2]

    def test_generator_message_is_a_third_the_size_of_records(self):
        rng = np.random.default_rng(0)
        h = History(2, start_time=0.0)
        ids = h.submit_points([GenPoint(x) for x in rng.uniform(0, 1, (5000, 2))],
                              gen_worker=1)
        h.mark_given(ids, sim_worker=2, given_time=0.5)
        h.update_with_results([(sid, 0.5) for sid in ids], returned_time=1.0)
        work = Work(target_worker=1, tag=Tag.EVAL_GEN, persistent=True)
        as_columns = len(pickle.dumps(WorkMsg(work, RecordBatch.of_history(h, ids))))
        as_records = len(pickle.dumps((work, list(h.records))))
        assert 3 * as_columns <= as_records


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

    def test_seeded_batch_runs_differ_only_in_sim_worker_and_times(self, tmp_path):
        """Two seeded batch-mode runs agree on every field of every record
        except sim_worker and the two time columns: a sim goes to whichever
        worker is idle when the allocator runs."""
        runs = []
        for sub in ("first", "second"):
            cfg = run_cfg(tmp_path, sub=sub, nworkers=4, seed=11,
                          gen_params=dict(GEN_BOX, batch_size=6),
                          exit_criteria=ExitCriteria(sim_max=120))
            hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                      alloc=PersistentAlloc())
            assert flag == "sim_max" and len(hist) == hist.returned_count() == 120
            runs.append(hist)
        for a, b in zip(*runs):
            assert records_equal(a, dataclasses.replace(b, sim_worker=a.sim_worker))

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
        resumed, _ = go("s2", 16, PersistentAlloc(), H0)
        assert histories_equal(ref, resumed)

    def test_gp_restart_matches_uninterrupted_run(self, tmp_path):
        """gp_gen_loop resumed with a plain PersistentAlloc() continues
        record for record, from a whole dump and from one whose last
        batch had returned only 3 of its 8 records when it was written."""
        params = {"lb": [-1.0, -1.0], "ub": [1.0, 1.0], "batch_size": 8,
                  "points_per_dim": 12}

        def go(sub, sim_max, H0=None):
            cfg = run_cfg(tmp_path, sub=sub, seed=7, gen_params=params,
                          exit_criteria=ExitCriteria(sim_max=sim_max))
            hist, flag = run_ensemble(cfg, gp_gen_loop, norm_sim,
                                      alloc=PersistentAlloc(), H0=H0)
            assert flag == "sim_max"
            return hist

        straight = go("straight", 96)
        go("first", 48)
        whole = History.load(str(tmp_path / "first" / "history.tsv"))
        assert len(whole) == whole.returned_count() == 48
        # The dump a crash leaves when sims 43-47 were still running.
        torn = History(2, start_time=whole.start_time)
        for rec in whole:
            rec = rec.copy()
            if rec.sim_id >= 43:
                rec.f, rec.returned, rec.returned_time = math.nan, False, None
            torn.append(rec)

        for sub, H0 in (("whole", whole), ("torn", torn)):
            resumed = go(sub, 96, H0)
            assert len(resumed) == len(straight) == 96, sub
            for a, b in zip(straight, resumed):
                np.testing.assert_array_equal(a.x, b.x, err_msg=sub)
                assert a.f == b.f, (sub, a.sim_id)

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
                              alloc=PersistentAlloc(),
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
                                  alloc=PersistentAlloc(),
                                  H0=H0, trace=trace)
        assert flag == "stop_val"
        assert [ev[0] for ev in trace] == ["adopt"] * 4 + ["stop"]
        assert len(hist) == 4 and hist.returned_count() == 2

    def test_resumed_run_stays_linear_in_history_size(self, tmp_path,
                                                       monkeypatch):
        """Counts, not timings: on a 2000-record resume each mid-run dump
        formats and appends to the journal only the rows that changed since
        the one before, the table is written only by the first and the
        final dump, and the allocator reads each record's gen_worker at
        most once."""
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
        real_format = dynens.history._format_rows

        def counting_format(history, ids):
            formatted[0] += len(ids)
            return real_format(history, ids)

        written = []  # paths replaced through a temp file
        real_write = dynens.history._write_replace

        def recording_write(path, text, stale=None):
            written.append(path)
            real_write(path, text, stale)

        def contents(path):
            if not os.path.exists(path):
                return ""
            with open(path) as fh:
                return fh.read()

        # (rows formatted, journal lines appended, table written, every
        # record's line after the dump) per dump
        dumps = []
        real_dump = History.dump

        def recording_dump(self, path, journal=False):
            before, n_written = formatted[0], len(written)
            old = contents(path + ".journal")
            real_dump(self, path, journal)
            new = contents(path + ".journal")
            appended = new[len(old):].splitlines() if new.startswith(old) else None
            dumps.append((formatted[0] - before, appended,
                          path in written[n_written:],
                          real_format(self, range(len(self)))))

        scans = []  # (start, history length) per gen_record_ids call
        real_scan = HistoryView.gen_record_ids

        def recording_scan(self, worker, start=0):
            scans.append((start, len(self)))
            return real_scan(self, worker, start)

        monkeypatch.setattr(dynens.history, "_format_rows", counting_format)
        monkeypatch.setattr(dynens.history, "_write_replace", recording_write)
        monkeypatch.setattr(History, "dump", recording_dump)
        monkeypatch.setattr(HistoryView, "gen_record_ids", recording_scan)

        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX, batch_size=10),
                      exit_criteria=ExitCriteria(sim_max=2120), dump_every=20)
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc(),
                                  H0=H0)
        assert flag == "sim_max" and len(hist) >= 2120

        # The first dump writes the table with every adopted row; each
        # mid-run one appends exactly the rows that differ from the dump
        # before it; the final one writes the table again.
        assert len(dumps) >= 6
        n_formatted, appended, table, lines = dumps[0]
        assert table and appended == [] and n_formatted == len(lines)
        for (*_, prev), (n_formatted, appended, table, lines) in zip(dumps, dumps[1:-1]):
            changed = [line for i, line in enumerate(lines)
                       if i >= len(prev) or line != prev[i]]
            assert not table
            assert n_formatted == len(changed) < 100
            assert sorted(appended) == sorted(changed)
        assert dumps[-1][2]
        path = os.path.join(cfg.ensemble_dir, "history.tsv")
        assert not os.path.exists(path + ".journal")
        header = "\t".join(hist._header())
        assert contents(path) == "\n".join([header, *dumps[-1][3]]) + "\n"

        read = set()
        for start, end in scans:
            span = set(range(start, end))
            assert not span & read, "a record's gen_worker was read twice"
            read |= span
        assert len(read) <= len(hist)

    def test_batch_forwarding_tests_each_id_until_it_returns(self, tmp_path,
                                                             monkeypatch):
        """Counts, not timings: on a 2000-record resume the allocator asks
        whether a record has settled at most once per new record plus
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
        real_is_settled = HistoryView.is_settled

        def counting_is_settled(self, sim_id):
            tested.append(sim_id)
            return real_is_settled(self, sim_id)

        cycles = [0]
        forwarded = []
        real_call = PersistentAlloc.__call__

        def counting_call(self, view, workers, pool):
            cycles[0] += 1
            actions = real_call(self, view, workers, pool)
            forwarded.extend(sid for a in actions if isinstance(a, Forward)
                             for sid in a.record_ids)
            return actions

        monkeypatch.setattr(HistoryView, "is_settled", counting_is_settled)
        monkeypatch.setattr(PersistentAlloc, "__call__", counting_call)

        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX, batch_size=10),
                      exit_criteria=ExitCriteria(sim_max=2300))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc(), H0=H0)
        assert flag == "sim_max" and len(hist) >= 2300

        new = len(hist) - len(H0)
        assert len(tested) <= new + cycles[0]
        assert min(tested) >= len(H0)
        # H0's records went out with the start message, never forwarded.
        assert forwarded == sorted(set(forwarded))
        assert min(forwarded) >= len(H0)
        assert all(hist.get(sid).returned for sid in forwarded)
        assert len(forwarded) % 10 == 0

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

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_sim_directories_only_on_request(self, tmp_path, comms):
        cfg = run_cfg(tmp_path, sub="quiet", comms=comms,
                      gen_params=dict(GEN_BOX))
        hist, _ = run_ensemble(cfg, random_batch_gen, norm_sim,
                               alloc=PersistentAlloc())
        assert all(r.returned for r in hist)
        assert not list((tmp_path / "quiet").glob("worker*"))

        cfg = run_cfg(tmp_path, sub="asks", comms=comms,
                      gen_params=dict(GEN_BOX))
        hist, _ = run_ensemble(cfg, random_batch_gen, dir_twice_sim,
                               alloc=PersistentAlloc())
        assert [r.f for r in hist] == [1.0] * len(hist)
        made = {p.relative_to(tmp_path / "asks").as_posix()
                for p in (tmp_path / "asks").glob("worker*/sim*")}
        assert made == {f"worker{r.sim_worker}/sim{r.sim_id}" for r in hist}

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

    def test_cancel_before_dispatch_does_not_stall_the_batch(self, tmp_path):
        cfg = run_cfg(tmp_path, nworkers=2, sim_params={"seconds": 0.2},
                      exit_criteria=ExitCriteria(sim_max=3, wallclock_max=10))
        t0 = time.monotonic()
        hist, flag = run_ensemble(cfg, withdrawing_gen, sleep_sim,
                                  alloc=PersistentAlloc())
        assert time.monotonic() - t0 < 3
        assert flag == "gen_finished"
        with open(tmp_path / "ens" / "received.pkl", "rb") as fh:
            assert pickle.load(fh) == (Tag.RESULT, [0, 1])
        rec = hist.get(2)
        assert rec.cancel_requested and not rec.given and not rec.returned

    @pytest.mark.parametrize("poll", [False, True])
    def test_cancel_inside_a_pack_withdraws_the_record(self, tmp_path, poll):
        """One sim worker takes sims 0 and 1 as one pack; sim 1, cancelled
        while sim 0 runs, never starts and settles like a record cancelled
        before it was given. With `poll`, sim 0's own poll_signals drains
        the KILL."""
        trace = []
        cfg = run_cfg(tmp_path, nworkers=2, sim_params={"poll": poll},
                      exit_criteria=ExitCriteria(sim_max=4, wallclock_max=10))
        t0 = time.monotonic()
        hist, flag = run_ensemble(cfg, pack_cancelling_gen, entering_sim,
                                  alloc=PersistentAlloc(), trace=trace)
        assert time.monotonic() - t0 < 3
        assert flag == "gen_finished"
        ens = tmp_path / "ens"
        assert entered_ids(ens) == {0, 2, 3}
        with open(ens / "received.pkl", "rb") as fh:
            assert pickle.load(fh) == (Tag.RESULT, [0, 2, 3])
        rec = hist.get(1)
        assert HistoryView(hist).is_settled(1)
        assert rec.cancel_requested and not rec.given and not rec.returned
        assert hist.returned_count() == 3
        assert not [ev for ev in trace if ev[0] == "forward" and ev[1] == 1]
        validate_trace(trace)

    def test_uneven_costs_keep_the_batch_makespan(self, tmp_path):
        """Packs of records costing 0.2 s and 0.02 s, in either order, end
        a batch at most one longest sim after one record per Work would."""

        def one_per_work(costs, workers):
            free = [0.0] * workers  # a heap of the times workers free up
            for c in costs:
                heapq.heapreplace(free, free[0] + c)
            return max(free)

        cfg = run_cfg(tmp_path, nworkers=3,
                      exit_criteria=ExitCriteria(sim_max=100, wallclock_max=20))
        _, flag = run_ensemble(cfg, uneven_gen, costed_sim,
                               alloc=PersistentAlloc())
        assert flag == "gen_finished"
        with open(tmp_path / "ens" / "rtts.pkl", "rb") as fh:
            rtts = pickle.load(fh)
        for costs, rtt in zip((UNEVEN_COSTS, UNEVEN_COSTS[::-1]), rtts,
                              strict=True):
            assert rtt <= one_per_work(costs, 2) + max(costs), (costs, rtt)

    def test_error_in_a_pack_spares_its_pack_mates(self, tmp_path):
        cfg = run_cfg(tmp_path, nworkers=2, gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        hist, flag = run_ensemble(cfg, random_batch_gen, picky_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max"
        # One Work carried sims 0 and 1: one given stamp.
        assert hist.get(0).given_time == hist.get(1).given_time
        assert math.isnan(hist.get(1).f)
        for rec in hist.records[:4]:
            if rec.sim_id != 1:
                assert rec.f == pytest.approx(np.linalg.norm(rec.x))

        cfg = run_cfg(tmp_path, sub="abort", nworkers=2, sim_error="abort",
                      gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=4))
        with pytest.raises(EnsembleError,
                           match="worker 2 sim function failed") as err:
            run_ensemble(cfg, random_batch_gen, picky_sim,
                         alloc=PersistentAlloc())
        assert "sim 1 exploded" in str(err.value)
        dumped = History.load(str(tmp_path / "abort" / "history.tsv"))
        assert math.isnan(dumped.get(1).f)
        assert dumped.get(0).f == pytest.approx(np.linalg.norm(dumped.get(0).x))

    def test_stop_during_a_pack_leaves_the_rest_to_resume(self, tmp_path):
        """A run that ends mid-pack returns once the running sim is done;
        the pack's unstarted records stay given and unreturned, and a
        resume continues record for record."""
        box = dict(GEN_BOX, batch_size=16)  # one pack of 8 0.5 s sims
        cfg = run_cfg(tmp_path, sub="stopped", nworkers=2, gen_params=box,
                      sim_params={"seconds": 0.5},
                      exit_criteria=ExitCriteria(wallclock_max=1))
        t0 = time.monotonic()
        _, flag = run_ensemble(cfg, random_batch_gen, entering_sim,
                               alloc=PersistentAlloc())
        assert flag == "wallclock_max"
        assert time.monotonic() - t0 < 1 + 0.5 + 1
        entered = entered_ids(tmp_path / "stopped")
        H0 = History.load(str(tmp_path / "stopped" / "history.tsv"))
        assert all(H0.get(sid).returned for sid in entered)
        unstarted = [r.sim_id for r in H0 if r.given and r.sim_id not in entered]
        assert unstarted
        assert not any(H0.get(sid).returned for sid in unstarted)

        def go(sub, H0=None):
            cfg = run_cfg(tmp_path, sub=sub, nworkers=2, gen_params=box,
                          sim_params={"seconds": 0.0},
                          exit_criteria=ExitCriteria(sim_max=32))
            hist, flag = run_ensemble(cfg, random_batch_gen, entering_sim,
                                      alloc=PersistentAlloc(), H0=H0)
            assert flag == "sim_max"
            return hist

        assert histories_equal(go("resumed", H0), go("straight"))

    def test_abort_ends_the_pack_at_the_error(self, tmp_path):
        """Under sim_error abort, a sim's error ends the run at once: the
        rest of its pack never starts, stays given, and runs on resume."""
        box = dict(GEN_BOX, batch_size=8)  # one sim worker: a pack of 4
        cfg = run_cfg(tmp_path, sub="aborted", nworkers=2, sim_error="abort",
                      gen_params=box, exit_criteria=ExitCriteria(sim_max=8))
        t0 = time.monotonic()
        with pytest.raises(EnsembleError, match="worker 2 sim function failed"):
            run_ensemble(cfg, random_batch_gen, first_fails_sim,
                         alloc=PersistentAlloc())
        assert time.monotonic() - t0 < 0.5
        assert entered_ids(tmp_path / "aborted") == {0}
        H0 = History.load(str(tmp_path / "aborted" / "history.tsv"))
        assert H0.get(0).returned and math.isnan(H0.get(0).f)
        for sid in (1, 2, 3):
            assert H0.get(sid).given and not H0.get(sid).returned

        cfg = run_cfg(tmp_path, sub="resumed", nworkers=2, gen_params=box,
                      exit_criteria=ExitCriteria(sim_max=8))
        hist, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                                  alloc=PersistentAlloc(), H0=H0)
        assert flag == "sim_max"
        assert all(r.returned for r in hist.records[:8])
        for rec in hist.records[1:8]:
            assert rec.f == pytest.approx(np.linalg.norm(rec.x))

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_each_worker_gets_one_stop(self, tmp_path, comms, monkeypatch):
        class PutRecorder:
            """A worker's inbox, seen from the manager, that keeps what
            was put."""

            def __init__(self, inbox):
                self.inbox, self.sent = inbox, []

            def put(self, msg):
                self.sent.append(msg)
                self.inbox.put(msg)

            def __getattr__(self, name):
                return getattr(self.inbox, name)

        recorders = {}
        real_start = _Manager._start_workers

        def recording_start(self):
            real_start(self)
            for wid, inbox in self.inboxes.items():
                recorders[wid] = self.inboxes[wid] = PutRecorder(inbox)

        monkeypatch.setattr(_Manager, "_start_workers", recording_start)
        threads_before = set(threading.enumerate())
        cfg = run_cfg(tmp_path, comms=comms, gen_params=dict(GEN_BOX))
        t0 = time.monotonic()
        _, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                               alloc=PersistentAlloc())
        assert flag == "sim_max"
        # Each worker ended on its one stop, long before the shutdown
        # timeout would have given up on it.
        assert time.monotonic() - t0 < 5
        stops = {wid: [m.tag for m in rec.sent if isinstance(m, StopMsg)]
                 for wid, rec in recorders.items()}
        assert stops == {1: [Tag.PERSIS_STOP], 2: [Tag.STOP], 3: [Tag.STOP]}
        assert_nothing_left_running(threads_before)

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
                                  alloc=PersistentAlloc(),
                                  H0=H0)
        assert flag == "sim_max"
        rec = hist.get(5)
        assert rec.returned and rec.f == pytest.approx(np.linalg.norm(rec.x))

    def test_workers_end_when_the_manager_is_killed(self, tmp_path):
        """A manager that dies without its finally (SIGKILL) takes its
        workers with it: each sees the end of its inbox and exits."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        cfg = run_cfg(tmp_path, nworkers=3,
                      gen_params=dict(GEN_BOX, pid_dir=str(pid_dir)),
                      sim_params={"pid_dir": str(pid_dir)},
                      exit_criteria=ExitCriteria(wallclock_max=60))
        manager = mp.get_context("fork").Process(
            target=run_ensemble, args=(cfg, pid_noting_gen, pid_noting_sim),
            kwargs={"alloc": PersistentAlloc()})
        manager.start()
        workers, alive = set(), []
        try:
            deadline = time.monotonic() + 20
            while len(workers) < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = {int(p.name) for p in pid_dir.iterdir()}
            assert len(workers) == 3
            os.kill(manager.pid, signal.SIGKILL)
            manager.join(timeout=10)
            deadline = time.monotonic() + 5
            while ((alive := [w for w in workers if process_alive(w)])
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert alive == []
        finally:
            for pid in alive:
                os.kill(pid, signal.SIGKILL)
            if manager.is_alive():
                manager.kill()
                manager.join(timeout=10)

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_resumed_generator_receives_H0(self, tmp_path, comms):
        H0 = batch_history(2, requests=False)
        cfg = run_cfg(tmp_path, comms=comms,
                      exit_criteria=ExitCriteria(sim_max=50))
        hist, flag = run_ensemble(cfg, recording_gen, norm_sim,
                                  alloc=PersistentAlloc(),
                                  H0=H0)
        assert flag == "gen_finished" and hist.returned_count() == 5
        with open(tmp_path / "ens" / "history_in.pkl", "rb") as fh:
            rows = pickle.load(fh)
        expected = [(r.sim_id, r.x.tolist(), r.f, r.returned) for r in H0]
        assert len(rows) == len(expected) == 5
        for got, want in zip(rows, expected):
            assert got[:2] == want[:2] and got[3] is want[3]
            assert got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))

    def test_sims_get_the_one_record_list_bench_reads(self, tmp_path):
        cfg = run_cfg(tmp_path, gen_params=dict(GEN_BOX, batch_size=8),
                      exit_criteria=ExitCriteria(sim_max=16))
        hist, flag = run_ensemble(cfg, random_batch_gen, contract_sim,
                                  alloc=PersistentAlloc())
        assert flag == "sim_max" and hist.returned_count() >= 16
        for rec in hist:
            if rec.returned:
                assert_sim_saw_its_record(cfg.ensemble_dir, rec.sim_worker, rec)
                assert not np.any(rec.x == -1.0)

    def test_generator_writing_into_x_leaves_the_history_alone(self, tmp_path):
        H0 = make_history(points=4)
        H0.mark_given(range(4), sim_worker=2, given_time=0.0)
        H0.update_with_results([(sid, 1.0) for sid in range(4)], 0.0)
        cfg = run_cfg(tmp_path, comms="gen_on_manager",
                      exit_criteria=ExitCriteria(sim_max=5))
        hist, _ = run_ensemble(cfg, scribbling_gen, norm_sim,
                               alloc=PersistentAlloc(),
                               H0=H0)
        assert len(hist) == 5 and hist.returned_count() == 5
        for sid in range(4):
            assert np.array_equal(hist.get(sid).x, H0.get(sid).x)
        assert np.array_equal(hist.get(4).x, np.full(2, 0.5))

    def test_resumed_run_keeps_one_clock(self, tmp_path, monkeypatch):
        """A record's wall times (start_time plus its run-relative
        stamps) bracket what its simulator saw, even when adopting H0
        takes a while."""
        cfg = run_cfg(tmp_path, sub="s1", gen_params=dict(GEN_BOX),
                      exit_criteria=ExitCriteria(sim_max=8))
        H0, _ = run_ensemble(cfg, random_batch_gen, norm_sim,
                             alloc=PersistentAlloc())
        real_adopt = _Manager._adopt

        def slow_adopt(self, H0):
            real_adopt(self, H0)
            time.sleep(0.3)

        monkeypatch.setattr(_Manager, "_adopt", slow_adopt)
        cfg2 = run_cfg(tmp_path, sub="s2", gen_params=dict(GEN_BOX),
                       exit_criteria=ExitCriteria(sim_max=12))
        t_before = time.time()
        hist, _ = run_ensemble(cfg2, random_batch_gen, stamping_sim,
                               alloc=PersistentAlloc(),
                               H0=H0)
        first = hist.get(len(H0))
        wall = tmp_path / "s2" / f"worker{first.sim_worker}" / f"sim{first.sim_id}"
        sim_in, sim_out = map(float, (wall / "wall.txt").read_text().split())
        assert t_before <= hist.start_time + first.given_time <= sim_in
        assert sim_out <= hist.start_time + first.returned_time

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_worker_that_cannot_send_ends_the_run(self, tmp_path, comms):
        threads_before = set(threading.enumerate())
        cfg = run_cfg(tmp_path, comms=comms,
                      exit_criteria=ExitCriteria(sim_max=4, wallclock_max=20))
        t0 = time.monotonic()
        with pytest.raises(EnsembleError, match="worker 1 gen function") as err:
            run_ensemble(cfg, unsendable_gen, norm_sim)
        assert time.monotonic() - t0 < 5
        # The error names the cause: the batch's lambda would not pickle.
        assert "Can't pickle" in str(err.value)
        assert "lambda" in str(err.value)
        assert_nothing_left_running(threads_before)

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_busy_generator_never_stalls_dispatch(self, tmp_path, comms):
        n, d = 400, 24
        box = {"lb": [0.0] * d, "ub": [1.0] * d, "batch_size": n, "sleep": 2.0}
        cfg = run_cfg(tmp_path, comms=comms, n_dims=d, gen_params=box,
                      exit_criteria=ExitCriteria(sim_max=n + 1))
        hist, flag = run_ensemble(cfg, sleepy_gen, norm_sim,
                                  alloc=PersistentAlloc(async_mode=True))
        assert flag == "sim_max" and len(hist) == n + 1
        first = hist.records[:n]
        # More than a pipe buffer's worth was forwarded to the sleeper...
        assert len(pickle.dumps(ResultsMsg(
            RecordBatch.of_history(hist, range(n))))) > PIPE_BUFFER
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
        assert len(pickle.dumps(ResultsMsg(
            RecordBatch.of_history(hist, range(n))))) > PIPE_BUFFER
        assert_nothing_left_running(threads_before)

    def test_dead_generator_with_forwards_unsent_ends_the_run(self, tmp_path,
                                                              monkeypatch):
        """Forwards its pipe cannot take wait in the manager while the
        generator sleeps; once its process dies they are dropped and the
        run ends at once, its history dumped."""
        peak_unsent = [0]
        real_put = _Inbox.put

        def noting_put(self, msg):
            real_put(self, msg)
            peak_unsent[0] = max(peak_unsent[0], self.unsent)

        monkeypatch.setattr(_Inbox, "put", noting_put)
        threads_before = set(threading.enumerate())
        n, d = 400, 24
        box = {"lb": [0.0] * d, "ub": [1.0] * d, "batch_size": n, "sleep": 1.0}
        cfg = run_cfg(tmp_path, n_dims=d, gen_params=box,
                      exit_criteria=ExitCriteria(sim_max=n + 1,
                                                 wallclock_max=20))
        t0 = time.monotonic()
        with pytest.raises(EnsembleError,
                           match="worker 1 exited unexpectedly"):
            run_ensemble(cfg, starved_gen, norm_sim,
                         alloc=PersistentAlloc(async_mode=True))
        assert time.monotonic() - t0 < 5
        assert_nothing_left_running(threads_before)
        hist = History.load(str(tmp_path / "ens" / "history.tsv"))
        assert len(hist) == hist.returned_count() == n
        # More than a pipe buffer's worth was forwarded to the sleeper,
        # and some of it waited in the manager, unsent.
        assert len(pickle.dumps(ResultsMsg(
            RecordBatch.of_history(hist, range(len(hist)))))) \
            > PIPE_BUFFER
        assert peak_unsent[0] > 0

    @pytest.mark.parametrize("comms, threads", [("local", 0),
                                                ("gen_on_manager", 1)])
    def test_only_a_threaded_generator_starts_a_thread(self, tmp_path,
                                                        monkeypatch, comms,
                                                        threads):
        """The manager sends to its workers without helper threads: a
        local run starts none, a gen_on_manager run only worker 1's."""
        started = []
        real_start = threading.Thread.start

        def counting_start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        cfg = run_cfg(tmp_path, comms=comms, gen_params=dict(GEN_BOX))
        _, flag = run_ensemble(cfg, random_batch_gen, norm_sim,
                               alloc=PersistentAlloc())
        assert flag == "sim_max"
        assert len(started) == threads

    def test_nworkers_validation(self, tmp_path):
        with pytest.raises(ValueError, match="nworkers"):
            run_cfg(tmp_path, nworkers=0)

    def test_unknown_comms_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="comms"):
            run_cfg(tmp_path, comms="tcp")
