"""The manager: a single sequential event loop that owns the history.

Each cycle runs exit check, allocation, dispatch, receive, ingest. All
mutation of the history and the resource pool happens here; workers only
ever see message copies. That centralization is what makes runs
replayable: under fixed seeds and a deterministic allocator in batch
mode, two runs produce identical histories.

Two comms modes share this loop. "local" starts one process per worker.
"gen_on_manager" runs worker 1 as a thread inside the manager process
(the usual home of a persistent generator) and processes for the rest,
so worker numbering and histories match across modes.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..history import History
from ..resources import NodeInventory, PlatformSpec, ResourcePool
from .alloc import DefaultAlloc, Forward
from .messages import (
    ExitCriteria,
    GenBatch,
    GenDone,
    KillMsg,
    ResultsMsg,
    SimDone,
    StopMsg,
    Tag,
    WorkerCrash,
    WorkerState,
    WorkerStatus,
    WorkMsg,
)
from .worker import ProtocolError, WorkerConfig, worker_main

log = logging.getLogger(__name__)

RECV_TIMEOUT = 0.25
DUMP_EVERY = 50
SHUTDOWN_TIMEOUT = 10.0
HISTORY_FILENAME = "history.tsv"


class EnsembleError(Exception):
    """Fatal ensemble failure. The history is dumped before this is raised."""


@dataclass
class RunConfig:
    """Everything run_ensemble needs beyond the user functions."""

    n_dims: int
    nworkers: int
    exit_criteria: ExitCriteria
    comms: str = "local"
    ensemble_dir: str = "ensemble"
    seed: int = 0
    sim_params: dict = field(default_factory=dict)
    gen_params: dict = field(default_factory=dict)
    platform: PlatformSpec | None = None
    inventory: NodeInventory | None = None
    dedicated_gen: bool = True
    sim_error: str = "nan"
    dump_every: int = DUMP_EVERY
    dry_run: bool = False

    def __post_init__(self):
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")
        if self.comms not in ("local", "gen_on_manager"):
            raise ValueError(f"unknown comms mode {self.comms!r}")
        if self.sim_error not in ("nan", "abort"):
            raise ValueError(
                f"sim_error must be 'nan' or 'abort', got {self.sim_error!r}")


class HistoryView:
    """Read-only face of the history for allocators."""

    def __init__(self, history: History):
        self._h = history

    def __len__(self) -> int:
        return len(self._h)

    def pending_sims(self):
        return self._h.pending_sims()

    def returned_count(self) -> int:
        return self._h.returned_count()

    def is_returned(self, sim_id: int) -> bool:
        return self._h.get(sim_id).returned

    def gen_record_ids(self, worker: int, start: int = 0) -> list[int]:
        """Ids of the records from sim_id `start` on that `worker` generated."""
        return [r.sim_id for r in self._h.records[start:] if r.gen_worker == worker]


def check_exit(history: History, elapsed: float,
               criteria: ExitCriteria) -> str | None:
    """First exit criterion that has fired, or None.

    sim_max counts returned records, gen_max all generated records,
    wallclock_max the seconds since the run started; stop_val fires when
    any returned objective value is at or below the threshold.
    """
    if criteria.sim_max is not None and history.returned_count() >= criteria.sim_max:
        return "sim_max"
    if criteria.gen_max is not None and len(history) >= criteria.gen_max:
        return "gen_max"
    if criteria.wallclock_max is not None and elapsed >= criteria.wallclock_max:
        return "wallclock_max"
    if criteria.stop_val is not None and history.best_f() <= criteria.stop_val[1]:
        return "stop_val"
    return None


def validate_trace(events) -> None:
    """Check protocol soundness of a recorded event stream.

    Rules: a sim_id is submitted once, dispatched at most once and only
    after submission, resulted at most once and only by the worker that
    got the dispatch, forwarded at most once and only after its result;
    kills refer to in-flight sims. Raises ProtocolError on the first
    batch of violations.
    """
    submitted: set[int] = set()
    dispatched: dict[int, int | None] = {}
    resulted: set[int] = set()
    forwarded: set[int] = set()
    problems: list[str] = []
    for i, ev in enumerate(events):
        kind = ev[0]
        if kind == "adopt":
            _, sid, returned = ev
            if sid in submitted:
                problems.append(f"[{i}] adopt of known sim {sid}")
            submitted.add(sid)
            if returned:
                dispatched[sid] = None
                resulted.add(sid)
        elif kind == "gen_submit":
            _, sid, _worker = ev
            if sid in submitted:
                problems.append(f"[{i}] sim {sid} submitted twice")
            submitted.add(sid)
        elif kind == "dispatch":
            _, sid, worker = ev
            if sid not in submitted:
                problems.append(f"[{i}] dispatch of unknown sim {sid}")
            if sid in dispatched:
                problems.append(f"[{i}] sim {sid} dispatched twice")
            dispatched[sid] = worker
        elif kind == "result":
            _, sid, worker = ev
            if sid not in dispatched:
                problems.append(f"[{i}] result for undispatched sim {sid}")
            elif dispatched[sid] != worker:
                problems.append(
                    f"[{i}] result for sim {sid} from worker {worker}, "
                    f"dispatched to {dispatched[sid]}")
            if sid in resulted:
                problems.append(f"[{i}] sim {sid} resulted twice")
            resulted.add(sid)
        elif kind == "forward":
            _, sid, _worker = ev
            if sid not in resulted:
                problems.append(f"[{i}] forward of unreturned sim {sid}")
            if sid in forwarded:
                problems.append(f"[{i}] sim {sid} forwarded twice")
            forwarded.add(sid)
        elif kind == "kill":
            _, sid, _worker = ev
            if sid not in dispatched or sid in resulted:
                problems.append(f"[{i}] kill for sim {sid} not in flight")
        elif kind != "stop":
            problems.append(f"[{i}] unknown event {ev!r}")
    if problems:
        raise ProtocolError("trace violations:\n" + "\n".join(problems))


class _Channels:
    def __init__(self, inbox, control):
        self.inbox = inbox
        self.control = control


class _Manager:
    def __init__(self, config: RunConfig, gen_fn, sim_fn, alloc, H0, trace):
        self.config = config
        self.gen_fn = gen_fn
        self.sim_fn = sim_fn
        self.alloc = alloc
        self.trace = trace
        self.criteria = config.exit_criteria

        self.history = History(config.n_dims)
        if H0 is not None:
            self._adopt(H0)

        self.pool = None
        if config.inventory is not None:
            match_slots = (config.platform.scheduler_match_slots
                           if config.platform is not None else True)
            self.pool = ResourcePool(config.inventory, config.nworkers,
                                     dedicated_gen=config.dedicated_gen,
                                     match_slots=match_slots)

        self.states = {w: WorkerState(w) for w in range(1, config.nworkers + 1)}
        self.channels: dict[int, _Channels] = {}
        self.procs: dict[int, object] = {}
        self.assignments: dict[int, object] = {}
        self.gen_done = False
        self._last_dump = 0
        self.t0 = time.monotonic()

    # -- setup -----------------------------------------------------------

    def _adopt(self, H0: History) -> None:
        """Seed the history from a previous run.

        Records given but never returned lost their worker when that run
        ended; they rejoin the pending queue and run again.
        """
        if H0.n_dims != self.history.n_dims:
            raise EnsembleError(
                f"H0 has {H0.n_dims} dims, run configured for "
                f"{self.history.n_dims}")
        for pos, rec in enumerate(H0):
            r = rec.copy()
            if r.sim_id != pos:
                raise EnsembleError(f"H0 sim_ids not dense at {r.sim_id}")
            if r.given and not r.returned:
                r.given = False
                r.sim_worker = None
                r.given_time = None
            self.history.append(r)
            if self.trace is not None:
                self.trace.append(("adopt", r.sim_id, r.returned))

    def _trace(self, kind: str, sim_ids, worker: int) -> None:
        """Record one protocol event per sim, when a trace was asked for."""
        if self.trace is not None:
            self.trace.extend((kind, sid, worker) for sid in sim_ids)

    def _start_workers(self) -> None:
        os.makedirs(self.config.ensemble_dir, exist_ok=True)
        wcfg = WorkerConfig(
            base_seed=self.config.seed,
            ensemble_dir=self.config.ensemble_dir,
            sim_params=self.config.sim_params,
            gen_params=self.config.gen_params,
            platform=self.config.platform,
            dry_run=self.config.dry_run,
        )
        # fork keeps user functions usable without pickling them.
        ctx = mp.get_context("fork")
        self.results_q = ctx.Queue()
        threads = []
        for wid in self.states:
            threaded = wid == 1 and self.config.comms == "gen_on_manager"
            if threaded:
                chan = _Channels(queue.Queue(), queue.Queue())
                runner = threading.Thread(
                    target=worker_main,
                    args=(wid, wcfg, chan.inbox, chan.control, self.results_q,
                          self.gen_fn, self.sim_fn),
                    daemon=True)
                threads.append(runner)
            else:
                chan = _Channels(ctx.Queue(), ctx.Queue())
                runner = ctx.Process(
                    target=worker_main,
                    args=(wid, wcfg, chan.inbox, chan.control, self.results_q,
                          self.gen_fn, self.sim_fn),
                    daemon=True)
                runner.start()
            self.channels[wid] = chan
            self.procs[wid] = runner
        # Threads only after every fork: a forked child must never inherit
        # a lock some sibling thread happened to hold.
        for runner in threads:
            runner.start()

    # -- cycle pieces ----------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self.t0

    def _finished(self) -> bool:
        if not self.gen_done:
            return False
        if any(s.status is WorkerStatus.BUSY_SIM for s in self.states.values()):
            return False
        return not self.history.pending_sims()

    def _execute(self, action) -> None:
        if isinstance(action, Forward):
            records = [self.history.get(sid).copy()
                       for sid in action.record_ids]
            self.channels[action.target_worker].inbox.put(ResultsMsg(records))
            self._trace("forward", action.record_ids, action.target_worker)
            return
        state = self.states[action.target_worker]
        if action.tag is Tag.EVAL_SIM:
            self.history.mark_given(action.record_ids, action.target_worker,
                                    self._now())
            records = [self.history.get(sid).copy()
                       for sid in action.record_ids]
            state.status = WorkerStatus.BUSY_SIM
            if action.assignment is not None:
                self.assignments[action.target_worker] = action.assignment
            self._trace("dispatch", action.record_ids, action.target_worker)
        else:
            # Generators read the whole history so far.
            records = [r.copy() for r in self.history]
            state.status = (WorkerStatus.PERSISTENT_GEN if action.persistent
                            else WorkerStatus.BUSY_GEN)
        self.channels[action.target_worker].inbox.put(WorkMsg(action, records))

    def _receive(self) -> None:
        try:
            msg = self.results_q.get(timeout=RECV_TIMEOUT)
        except queue.Empty:
            return
        self._process(msg)
        while True:
            try:
                msg = self.results_q.get_nowait()
            except queue.Empty:
                return
            self._process(msg)

    def _process(self, msg, post_exit: bool = False) -> None:
        if isinstance(msg, SimDone):
            self._process_sim_done(msg, post_exit)
        elif isinstance(msg, GenBatch):
            self._process_gen_batch(msg, post_exit)
        elif isinstance(msg, GenDone):
            self.gen_done = True
            self.states[msg.worker_id].status = WorkerStatus.IDLE
        elif isinstance(msg, WorkerCrash):
            self.states[msg.worker_id].status = WorkerStatus.IDLE
            if post_exit:
                log.warning("worker %d crashed during shutdown:\n%s",
                            msg.worker_id, msg.traceback_text)
                return
            raise EnsembleError(
                f"worker {msg.worker_id} {msg.where} function crashed:\n"
                f"{msg.traceback_text}")
        else:
            log.warning("manager: unexpected message %r", msg)

    def _process_sim_done(self, msg: SimDone, post_exit: bool) -> None:
        state = self.states[msg.worker_id]
        # Kill flags first, while the records still count as running.
        if msg.killed_ids:
            running = self.history.mark_cancel(msg.killed_ids)
            self.history.mark_kill_sent(running)
            self._trace("kill", msg.killed_ids, msg.worker_id)
        self.history.update_with_results(msg.results, self._now())
        self._trace("result", (sid for sid, _ in msg.results), msg.worker_id)
        assignment = self.assignments.pop(msg.worker_id, None)
        if assignment is not None and self.pool is not None:
            self.pool.release(assignment)
        state.status = WorkerStatus.IDLE
        if msg.error is not None:
            if self.config.sim_error == "abort" and not post_exit:
                raise EnsembleError(
                    f"worker {msg.worker_id} sim function failed:\n{msg.error}")
            log.warning("worker %d sim failed, recording NaN:\n%s",
                        msg.worker_id, msg.error)
        if (self.history.returned_count() - self._last_dump
                >= self.config.dump_every):
            self._dump()

    def _process_gen_batch(self, msg: GenBatch, post_exit: bool) -> None:
        state = self.states[msg.worker_id]
        if state.status is WorkerStatus.BUSY_GEN:
            state.status = WorkerStatus.IDLE
        if post_exit:
            # The run is over; a batch that raced the stop is dropped.
            log.debug("dropping post-exit batch from worker %d", msg.worker_id)
            return
        if msg.cancel_ids:
            self._cancel(msg.cancel_ids)
        if msg.points:
            ids = self.history.submit_points(msg.points,
                                             gen_worker=msg.worker_id)
            self._trace("gen_submit", ids, msg.worker_id)

    def _cancel(self, sim_ids) -> None:
        running = self.history.mark_cancel(sim_ids)
        by_worker: dict[int, list[int]] = {}
        for sid in running:
            worker = self.history.get(sid).sim_worker
            by_worker.setdefault(worker, []).append(sid)
        for worker, ids in by_worker.items():
            self.channels[worker].control.put(KillMsg(tuple(ids)))
            self.history.mark_kill_sent(ids)
            self._trace("kill", ids, worker)

    def _dump(self) -> None:
        path = os.path.join(self.config.ensemble_dir, HISTORY_FILENAME)
        self.history.dump(path)
        self._last_dump = self.history.returned_count()

    # -- run and shutdown ------------------------------------------------

    def run(self) -> tuple[History, str]:
        self._start_workers()
        flag = None
        try:
            while True:
                flag = check_exit(self.history, self._now(), self.criteria)
                if flag is None and self._finished():
                    flag = "gen_finished"
                if flag is not None:
                    break
                for action in self.alloc(HistoryView(self.history),
                                         self.states, self.pool):
                    self._execute(action)
                self._receive()
        except BaseException:
            self._shutdown()
            self._dump()
            raise
        if self.trace is not None:
            self.trace.append(("stop", flag))
        self._shutdown()
        self._dump()
        return self.history, flag

    def _shutdown(self) -> None:
        # Unblock a waiting persistent generator before the plain stops.
        for wid, state in self.states.items():
            if state.status is WorkerStatus.PERSISTENT_GEN:
                self.channels[wid].inbox.put(StopMsg(Tag.PERSIS_STOP))
        for chan in self.channels.values():
            chan.control.put(StopMsg())
        for chan in self.channels.values():
            chan.inbox.put(StopMsg())

        # Late results still land in the history; late batches do not.
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while any(s.status is not WorkerStatus.IDLE
                  for s in self.states.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                busy = [w for w, s in self.states.items()
                        if s.status is not WorkerStatus.IDLE]
                log.warning("shutdown timed out waiting on workers %s", busy)
                break
            try:
                msg = self.results_q.get(timeout=min(RECV_TIMEOUT, remaining))
            except queue.Empty:
                continue
            try:
                self._process(msg, post_exit=True)
            except Exception:
                log.exception("error processing a shutdown message")

        for assignment in self.assignments.values():
            if self.pool is not None:
                self.pool.release(assignment)
        self.assignments.clear()

        for runner in self.procs.values():
            runner.join(timeout=max(0.0, deadline - time.monotonic()) + 2.0)
            if runner.is_alive() and hasattr(runner, "terminate"):
                runner.terminate()
                runner.join(1.0)
        self.results_q.cancel_join_thread()
        self.results_q.close()


def run_ensemble(
    config: RunConfig,
    gen_fn: Callable,
    sim_fn: Callable,
    alloc=None,
    H0: History | None = None,
    trace: list | None = None,
) -> tuple[History, str]:
    """Run one ensemble to completion; returns (history, completion flag).

    The flag names what ended the run: an exit criterion ("sim_max",
    "gen_max", "wallclock_max", "stop_val") or "gen_finished" when a
    persistent generator returned with all work drained. Pass the
    history of a previous run as H0 to continue it; pass a list as
    trace to capture protocol events for validate_trace.
    """
    if alloc is None:
        alloc = DefaultAlloc()
    return _Manager(config, gen_fn, sim_fn, alloc, H0, trace).run()
