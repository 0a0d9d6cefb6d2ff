"""The manager: a single sequential event loop that owns the history.

Each cycle runs exit check, allocation, dispatch, receive, ingest. All
mutation of the history and the resource pool happens here; workers only
ever see message copies. That centralization is what makes runs
replayable: under fixed seeds and a deterministic allocator in batch
mode, two runs produce the same records in every field except
sim_worker and the two time columns. Those depend on timing: a sim goes
to whichever worker is idle when the allocator runs, in a pack whose
size follows from how many records were pending then.

Two comms modes share this loop. "local" starts one process per worker.
"gen_on_manager" runs worker 1 as a thread inside the manager process
(the usual home of a persistent generator) and processes for the rest,
so worker numbering and histories match across modes.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import selectors
import struct
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.reduction import ForkingPickler
from typing import Callable

import numpy as np

from ..history import History
from ..resources import NodeInventory, PlatformSpec, ResourcePool
from .alloc import GEN_WORKER, DefaultAlloc, Forward
from .messages import (
    ExitCriteria,
    GenBatch,
    GenDone,
    KillMsg,
    RecordBatch,
    ResultsMsg,
    SimDone,
    StopMsg,
    Tag,
    WorkerCrash,
    WorkerState,
    WorkerStatus,
    WorkMsg,
)
from .worker import ProtocolError, worker_main

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
    sim_error: str = "nan"
    dump_every: int = DUMP_EVERY
    dry_run: bool = False

    def __post_init__(self):
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")
        if self.seed < 0:
            # Worker rngs are seeded with seed + worker id; numpy refuses < 0.
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    def pending_ids(self) -> list[int]:
        return self._h.pending_ids()

    def resources(self, sim_id: int) -> tuple[int, int]:
        """The (num_procs, num_gpus) that record sim_id requests."""
        return (self._h.field(sim_id, "num_procs"),
                self._h.field(sim_id, "num_gpus"))

    def is_returned(self, sim_id: int) -> bool:
        return self._h.field(sim_id, "returned")

    def is_settled(self, sim_id: int) -> bool:
        """Returned, or cancelled before it was given or withdrawn from
        its pack, so it never returns."""
        h = self._h
        return h.field(sim_id, "returned") or (
            h.field(sim_id, "cancel_requested") and not h.field(sim_id, "given"))

    def gen_record_ids(self, worker: int, start: int = 0) -> list[int]:
        """Ids of the records from sim_id `start` on that `worker` generated."""
        if start >= len(self._h):
            return []
        (gen,) = self._h.columns("gen_worker", ids=range(start, len(self._h)))
        return [sid for sid, w in enumerate(gen.tolist(), start) if w == worker]

    def unreturned_gen_ids(self, worker: int) -> list[int]:
        """Ids of the unreturned records that `worker` generated."""
        gen, returned = self._h.columns("gen_worker", "returned")
        return [sid for sid, (w, ret) in enumerate(zip(gen.tolist(), returned.tolist()))
                if w == worker and not ret]


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


class _Inbox:
    """The manager's end of one worker's inbox: the write end of a one-way
    pipe, set non-blocking.

    put frames each message as multiprocessing.Connection.send does, so
    the worker reads it with recv, and writes what the pipe takes now.
    The rest waits in a buffer, and the pipe is registered with the
    manager's selector until the buffer has been written, so a worker
    that is not reading never blocks the manager. A write that finds
    the worker gone (BrokenPipeError) drops what it would have written;
    the worker's closed result pipe ends the run.
    """

    def __init__(self, conn, selector: selectors.BaseSelector):
        self._conn = conn
        self._selector = selector
        self._unsent = bytearray()
        os.set_blocking(conn.fileno(), False)

    @property
    def unsent(self) -> int:
        """Bytes put but not yet written to the pipe."""
        return len(self._unsent)

    def put(self, msg) -> None:
        payload = ForkingPickler.dumps(msg)
        n = len(payload)
        frame = (struct.pack("!i", n) if n <= 0x7FFFFFFF
                 else struct.pack("!iQ", -1, n)) + payload
        if self._unsent:  # behind bytes that still wait
            self._unsent += frame
            return
        sent = self._write(frame)
        if sent < len(frame):
            self._unsent += frame[sent:]
            self._selector.register(self._conn, selectors.EVENT_WRITE,
                                    self.flush)

    def flush(self) -> None:
        """Write what the pipe takes now of the waiting bytes."""
        del self._unsent[:self._write(self._unsent)]
        if not self._unsent:
            self._selector.unregister(self._conn)

    def _write(self, data) -> int:
        try:
            return os.write(self._conn.fileno(), data)
        except BlockingIOError:
            return 0
        except BrokenPipeError:
            return len(data)

    def close(self) -> None:
        self._conn.close()


def _forked_worker(manager_ends, *args) -> None:
    """A worker process's body: close the manager's pipe ends the fork
    copied, so the manager's death reads as the end of the inbox and
    breaks the result pipe, then run the worker."""
    for conn in manager_ends:
        conn.close()
    worker_main(*args)


class _Manager:
    def __init__(self, config: RunConfig, gen_fn, sim_fn, alloc, H0, trace):
        self.config = config
        self.gen_fn = gen_fn
        self.sim_fn = sim_fn
        self.alloc = alloc
        self.trace = trace
        self.criteria = config.exit_criteria

        # One clock: the history's wall-clock start and the monotonic t0
        # that given_time and returned_time count from are stamped
        # together, before H0 is adopted, so adopting is part of the run.
        self.t0 = time.monotonic()
        self.history = History(config.n_dims, start_time=time.time())
        if H0 is not None:
            self._adopt(H0)

        self.pool = None
        if config.inventory is not None:
            # GPU ids named through an environment variable are one list
            # for every node of a launch, so placements must match slots.
            match_slots = (config.platform is None
                           or bool(config.platform.gpu_env_var))
            self.pool = ResourcePool(config.inventory, config.nworkers,
                                     dedicated_gen=True,
                                     match_slots=match_slots)

        self.states = {w: WorkerState(w) for w in range(1, config.nworkers + 1)}
        # One selector for the run: every result pipe for reading, and an
        # inbox for writing while it holds bytes its pipe did not take.
        self.selector = selectors.DefaultSelector()
        self.inboxes: dict[int, _Inbox] = {}
        self.conns: dict[object, int] = {}  # result pipe read end -> worker
        self.procs: dict[int, object] = {}
        self.assignments: dict[int, object] = {}
        self.gen_done = False
        self.stopping = False
        self._last_dump = 0

    # -- setup -----------------------------------------------------------

    def _adopt(self, H0: History) -> None:
        """Seed the history from a previous run, copied column by column.

        Records given but never returned lost their worker when that run
        ended; they rejoin the pending queue and run again.
        """
        if H0.n_dims != self.history.n_dims:
            raise EnsembleError(
                f"H0 has {H0.n_dims} dims, run configured for "
                f"{self.history.n_dims}")
        self.history.adopt(H0)
        given, returned = self.history.columns("given", "returned")
        self.history.withdraw(np.flatnonzero(given & ~returned).tolist())
        if self.trace is not None:
            self.trace.extend(("adopt", sid, ret)
                              for sid, ret in enumerate(returned.tolist()))

    def _trace(self, kind: str, sim_ids, worker: int) -> None:
        """Record one protocol event per sim, when a trace was asked for."""
        if self.trace is not None:
            self.trace.extend((kind, sid, worker) for sid in sim_ids)

    def _start_workers(self) -> None:
        os.makedirs(self.config.ensemble_dir, exist_ok=True)
        # fork keeps user functions usable without pickling them.
        ctx = mp.get_context("fork")
        threaded = ({GEN_WORKER} if self.config.comms == "gen_on_manager"
                    else set())
        # Processes first: a forked child must never inherit a lock some
        # thread holds, nor an end of a thread's pipes.
        manager_ends = []
        for wid in sorted(self.states, key=lambda w: w in threaded):
            inbox, inbox_writer = ctx.Pipe(duplex=False)
            reader, writer = ctx.Pipe(duplex=False)
            manager_ends += (inbox_writer, reader)
            args = (wid, self.config, inbox, writer, self.gen_fn, self.sim_fn)
            if wid in threaded:
                runner = threading.Thread(target=worker_main, args=args,
                                          daemon=True)
            else:
                runner = ctx.Process(target=_forked_worker, daemon=True,
                                     args=(tuple(manager_ends), *args))
            runner.start()
            if wid not in threaded:
                # With the child holding the only read end of its inbox
                # and the only write end of its result pipe, its death
                # breaks the one and reads as EOF on the other; later
                # forks must not inherit them either.
                inbox.close()
                writer.close()
            self.inboxes[wid] = _Inbox(inbox_writer, self.selector)
            self.conns[reader] = wid
            self.selector.register(reader, selectors.EVENT_READ,
                                   partial(self._recv_from, reader))
            self.procs[wid] = runner

    # -- cycle pieces ----------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self.t0

    def _finished(self) -> bool:
        if not self.gen_done:
            return False
        if any(s.status is WorkerStatus.BUSY_SIM for s in self.states.values()):
            return False
        return not self.history.pending_ids()

    def _execute(self, action) -> None:
        if isinstance(action, Forward):
            batch = RecordBatch.of_history(self.history, action.record_ids)
            self.inboxes[action.target_worker].put(ResultsMsg(batch))
            self._trace("forward", action.record_ids, action.target_worker)
            return
        state = self.states[action.target_worker]
        if not state.idle:  # it would drain the work as a signal and drop it
            raise EnsembleError(f"allocator sent work to busy worker "
                                f"{action.target_worker} ({state.status.value})")
        if action.tag is Tag.EVAL_SIM:
            self.history.mark_given(action.record_ids, action.target_worker,
                                    self._now())
            batch = RecordBatch.of_history(self.history, action.record_ids)
            state.status = WorkerStatus.BUSY_SIM
            if action.assignment is not None:
                self.assignments[action.target_worker] = action.assignment
            self._trace("dispatch", action.record_ids, action.target_worker)
        else:
            # Generators read the whole history so far.
            batch = RecordBatch.of_history(self.history, range(len(self.history)))
            state.status = (WorkerStatus.PERSISTENT_GEN if action.persistent
                            else WorkerStatus.BUSY_GEN)
        self.inboxes[action.target_worker].put(WorkMsg(action, batch))

    def _receive(self, timeout: float = RECV_TIMEOUT) -> None:
        """Write what each inbox that was full can now take, and process
        one message from each worker that has sent one."""
        for key, _ in self.selector.select(timeout):
            key.data()

    def _recv_from(self, conn) -> None:
        try:
            msg = conn.recv()
        except EOFError:  # the worker ended; only an idle, stopped one may
            self.selector.unregister(conn)
            conn.close()
            wid = self.conns.pop(conn)
            was_idle = self.states[wid].idle
            self.states[wid].status = WorkerStatus.IDLE
            if not self.stopping:
                raise EnsembleError(f"worker {wid} exited unexpectedly")
            if not was_idle:
                log.warning("worker %d died during shutdown", wid)
        else:
            self._process(msg)

    def _process(self, msg) -> None:
        if isinstance(msg, SimDone):
            self._process_sim_done(msg)
        elif isinstance(msg, GenBatch):
            self._process_gen_batch(msg)
        elif isinstance(msg, GenDone):
            self.gen_done = True
            self.states[msg.worker_id].status = WorkerStatus.IDLE
        elif isinstance(msg, WorkerCrash):
            self.states[msg.worker_id].status = WorkerStatus.IDLE
            if self.stopping:
                log.warning("worker %d crashed during shutdown:\n%s",
                            msg.worker_id, msg.traceback_text)
                return
            raise EnsembleError(
                f"worker {msg.worker_id} gen function crashed:\n"
                f"{msg.traceback_text}")
        else:
            log.warning("manager: unexpected message %r", msg)

    def _process_sim_done(self, msg: SimDone) -> None:
        state = self.states[msg.worker_id]
        # Kill flags first, while the records still count as running.
        if msg.killed_ids:
            running = self.history.mark_cancel(msg.killed_ids)
            self.history.mark_kill_sent(running)
            self._trace("kill", msg.killed_ids, msg.worker_id)
        self.history.update_with_results(msg.results, self._now())
        self._trace("result", (sid for sid, _ in msg.results), msg.worker_id)
        # A record withdrawn from its pack by a cancel settles as if never
        # given; one a STOP left unstarted stays given and reruns on resume.
        self.history.withdraw([sid for sid in msg.unstarted
                               if self.history.field(sid, "cancel_requested")])
        assignment = self.assignments.pop(msg.worker_id, None)
        if assignment is not None and self.pool is not None:
            self.pool.release(assignment)
        state.status = WorkerStatus.IDLE
        if msg.error is not None:
            if self.config.sim_error == "abort" and not self.stopping:
                raise EnsembleError(
                    f"worker {msg.worker_id} sim function failed:\n{msg.error}")
            log.warning("worker %d sim failed, recording NaN:\n%s",
                        msg.worker_id, msg.error)
        if (self.history.returned_count() - self._last_dump
                >= self.config.dump_every):
            self._dump()

    def _process_gen_batch(self, msg: GenBatch) -> None:
        state = self.states[msg.worker_id]
        if state.status is WorkerStatus.BUSY_GEN:
            state.status = WorkerStatus.IDLE
        if self.stopping:
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
            worker = self.history.field(sid, "sim_worker")
            by_worker.setdefault(worker, []).append(sid)
        for worker, ids in by_worker.items():
            self.inboxes[worker].put(KillMsg(tuple(ids)))
            self.history.mark_kill_sent(ids)
            self._trace("kill", ids, worker)

    def _dump(self, final: bool = False) -> None:
        """Dump the history: mid-run as a journal of the rows that changed,
        at the run's end as the full table."""
        path = os.path.join(self.config.ensemble_dir, HISTORY_FILENAME)
        self.history.dump(path, journal=not final)
        self._last_dump = self.history.returned_count()

    # -- run and shutdown ------------------------------------------------

    def run(self) -> tuple[History, str]:
        """Cycle until the run ends, then shut down and dump, however it ends."""
        self._start_workers()
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
            if self.trace is not None:
                self.trace.append(("stop", flag))
        finally:
            self._shutdown()
            self._dump(final=True)
        return self.history, flag

    def _shutdown(self) -> None:
        """Send each worker its one stop and wait for the workers to end.

        A running persistent generator gets PERSIS_STOP, every other
        worker STOP. Once `stopping` is set, late results still land in
        the history, late batches are dropped, and a sim error, a crash
        or a worker's exit is only logged. Receiving goes on until every
        worker is idle and every inbox has been written to its pipe (a
        gone worker's inbox drops what it holds), or the timeout.
        """
        self.stopping = True
        for wid, inbox in self.inboxes.items():
            persistent = self.states[wid].status is WorkerStatus.PERSISTENT_GEN
            inbox.put(StopMsg(Tag.PERSIS_STOP if persistent else Tag.STOP))

        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while waiting := [w for w, s in self.states.items()
                          if not s.idle or self.inboxes[w].unsent]:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                log.warning("shutdown timed out waiting on workers %s", waiting)
                break
            try:
                self._receive(min(RECV_TIMEOUT, remaining))
            except Exception:
                log.exception("error processing a shutdown message")

        for runner in self.procs.values():
            runner.join(timeout=max(0.0, deadline - time.monotonic()) + 2.0)
            if not isinstance(runner, threading.Thread) and runner.is_alive():
                runner.terminate()
                runner.join(1.0)
        for inbox in self.inboxes.values():
            inbox.close()
        for conn in self.conns:
            conn.close()
        self.selector.close()


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
