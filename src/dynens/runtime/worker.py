"""Worker side of the engine: the loop a worker runs and the contexts
handed to user functions.

A worker is a plain loop over an inbox, the read end of a one-way pipe
that the manager writes without blocking, finishing partial writes from
its selector. It carries the run's own
RunConfig, nothing copied out of it. Simulator calls receive a
WorkerContext (rng stream, directories, resource assignment, kill
polling); a persistent generator additionally gets the send/recv surface
it streams batches through. The loop, a sim's poll_signals and a
generator's recv all read the inbox through WorkerContext._read, which
notes the one stop the manager sends, and the worker ends once it has
read it. A manager that died without sending it leaves the inbox
ended, which reads as the stop. The same loop body, with the same inbox type, runs as a
separate process (local comms) or as a thread inside the manager
(gen_on_manager).
"""

from __future__ import annotations

import logging
import os
import traceback
from typing import TYPE_CHECKING

import numpy as np

from ..executor import Executor
from ..history import EnsembleRecord
from .messages import (
    GenBatch,
    GenDone,
    KillMsg,
    RecordBatch,
    ResultsMsg,
    SimDone,
    StopMsg,
    Tag,
    WorkerCrash,
    WorkMsg,
)

if TYPE_CHECKING:
    from .manager import RunConfig

log = logging.getLogger(__name__)


class ProtocolError(Exception):
    """A message arrived that the protocol does not allow here."""


class WorkerContext:
    """State a worker keeps across user-function calls.

    One context lives for the whole worker: the rng stream in particular
    must advance across calls, never restart. config is the run's
    RunConfig; the rng is seeded with its seed plus the worker id.
    current_sim_ids (the one record of the simulation call in progress),
    assignment and killed describe the Work in progress; simulator
    functions append to `killed` when they end a run early (kill signal
    or timeout) so the manager can flag those records. `kills_seen` holds
    every sim_id a KILL named during the Work, so a later record of its
    pack is withdrawn unstarted. `stopping` is set when _read, the
    worker's one reader of its inbox, takes the worker's stop.
    """

    def __init__(self, worker_id: int, config: RunConfig, inbox):
        self.worker_id = worker_id
        self.config = config
        self.seed = config.seed + worker_id
        self.rng = np.random.default_rng(self.seed)
        self.ensemble_dir = config.ensemble_dir
        self.current_sim_ids: set[int] = set()
        self.assignment = None
        self.killed: list[int] = []
        self.kills_seen: set[int] = set()
        self.stopping = False
        self._inbox = inbox
        self._executor = None

    @property
    def executor(self) -> Executor:
        # Built on first use; most workloads never launch an application.
        if self._executor is None:
            if self.config.platform is None:
                raise ProtocolError(
                    "no platform configured, cannot launch applications")
            self._executor = Executor(self.config.platform,
                                      dry_run=self.config.dry_run)
        return self._executor

    def sim_dir(self, sim_id: int) -> str:
        """This worker's directory for sim_id, made on the call.

        A sim that never asks for its directory leaves nothing on disk.
        """
        path = os.path.join(self.ensemble_dir, f"worker{self.worker_id}",
                            f"sim{sim_id}")
        os.makedirs(path, exist_ok=True)
        return path

    def _read(self, block: bool):
        """The next inbox message; None if block is False and the inbox
        is empty. A stop sets `stopping` and a KILL's ids join
        `kills_seen` as they are read. The end of the inbox, which only
        a manager that died unstopped leaves, reads as a STOP."""
        if not block and not self._inbox.poll():
            return None
        try:
            msg = self._inbox.recv()
        except EOFError:
            msg = StopMsg()
        if isinstance(msg, StopMsg):
            self.stopping = True
        elif isinstance(msg, KillMsg):
            self.kills_seen.update(msg.sim_ids)
        return msg

    def poll_signals(self) -> list[tuple[str, int | None]]:
        """Drain the inbox, which mid-simulation holds only KILL and STOP.

        Returns ("KILL", sim_id) and ("STOP", None) tuples in arrival
        order; kills for sims this worker is not running are still
        reported and filtered by the caller. As it is read, a KILL also
        joins `kills_seen` and a STOP sets `stopping`, so the worker exits
        once the simulation has returned. The drain ends at a stop: an
        ended inbox reads as one at every read.
        """
        signals: list[tuple[str, int | None]] = []
        while (msg := self._read(block=False)) is not None:
            if isinstance(msg, KillMsg):
                signals.extend(("KILL", sid) for sid in msg.sim_ids)
            elif isinstance(msg, StopMsg):
                signals.append(("STOP", None))
                break
            else:
                log.warning("worker %d: unexpected message mid-simulation %r",
                            self.worker_id, msg)
        return signals


class PersistentGenContext:
    """Streaming surface for a persistent generator.

    send writes to the result pipe, which the manager always reads; recv
    takes from the inbox, where results forwarded while the generator was
    busy wait, through the worker context's reader, which notes the stop.
    Attribute access (rng, seed, directories) is shared with that context
    so generator streams stay continuous. It is not a WorkerContext: a
    generator has no poll_signals to drain its forwarded results through.
    """

    def __init__(self, worker_ctx: WorkerContext, outbox):
        self._worker_ctx = worker_ctx
        self._outbox = outbox
        self.worker_id = worker_ctx.worker_id
        self.seed = worker_ctx.seed
        self.rng = worker_ctx.rng
        self.ensemble_dir = worker_ctx.ensemble_dir

    def send(self, points) -> None:
        """Hand new points to the manager; request_cancel withdraws old ones."""
        self._outbox.send(GenBatch(self.worker_id, list(points)))

    def recv(self) -> tuple[Tag, RecordBatch]:
        """(RESULT, the forwarded batch), or (a stop tag, an empty one)."""
        msg = self._worker_ctx._read(block=True)
        if isinstance(msg, StopMsg):
            return msg.tag, RecordBatch()
        if isinstance(msg, ResultsMsg):
            return Tag.RESULT, msg.batch
        raise ProtocolError(
            f"unexpected message for a persistent generator: {msg!r}")

    def send_recv(self, points) -> tuple[Tag, RecordBatch]:
        self.send(points)
        return self.recv()

    def request_cancel(self, sim_ids) -> None:
        """Ask the manager to cancel these sims, killing any already running."""
        self._outbox.send(GenBatch(self.worker_id, [], tuple(sim_ids)))


def _run_sim(ctx: WorkerContext, msg: WorkMsg, outbox, sim_fn) -> None:
    """Run a Work's records in order, one sim_fn call each on a list of
    one EnsembleRecord that holds the record's sim_id and x row.

    The inbox is drained between records: a KILL for a later record,
    drained here or earlier by the sim's own poll_signals, withdraws it
    before it starts, and a STOP leaves the rest of the pack unstarted.
    An exception makes its own record NaN; under sim_error "nan" the
    pack goes on, under "abort" the rest of it is left unstarted.
    """
    sim_ids = msg.batch.sim_ids.tolist()
    ctx.assignment = msg.work.assignment
    ctx.killed = []
    ctx.kills_seen = set()
    results: list[tuple[int, float]] = []
    unstarted: list[int] = []
    errors: list[str] = []
    for i, (sid, x) in enumerate(zip(sim_ids, msg.batch.x)):
        if i:
            ctx.poll_signals()
            if ctx.stopping:
                unstarted.extend(sim_ids[i:])
                break
            if sid in ctx.kills_seen:
                unstarted.append(sid)
                continue
        ctx.current_sim_ids = {sid}
        try:
            (fval,) = sim_fn([EnsembleRecord(sid, x)], ctx.config.sim_params, ctx)
            results.append((sid, float(fval)))
        except Exception:
            # The record still needs an answer; NaN marks the failure and
            # the manager decides whether that aborts the ensemble.
            results.append((sid, float("nan")))
            errors.append(traceback.format_exc())
            if ctx.config.sim_error == "abort":
                # The manager ends the run on this error; the rest of
                # the pack stays given and reruns on resume.
                unstarted.extend(sim_ids[i + 1:])
                break
    ctx.current_sim_ids = set()
    ctx.assignment = None
    outbox.send(SimDone(ctx.worker_id, results, killed_ids=tuple(ctx.killed),
                        unstarted=tuple(unstarted),
                        error="\n".join(errors) or None))


def _run_gen(ctx: WorkerContext, msg: WorkMsg, outbox, gen_fn) -> None:
    params = ctx.config.gen_params
    try:
        if msg.work.persistent:
            gen_fn(msg.batch, params, PersistentGenContext(ctx, outbox))
            outbox.send(GenDone(ctx.worker_id))
        else:
            # Sent inside the try: a batch that cannot be pickled is a
            # crash the manager hears about, not a dead worker.
            outbox.send(GenBatch(ctx.worker_id,
                                 list(gen_fn(msg.batch, params, ctx))))
    except Exception:
        outbox.send(WorkerCrash(ctx.worker_id, traceback.format_exc()))


def worker_main(worker_id: int, config: RunConfig, inbox, outbox,
                gen_fn=None, sim_fn=None) -> None:
    """Body of one worker; runs until it has read its stop message, or
    finds its manager gone: the end of its inbox or of its result pipe.

    inbox is the read end of the one-way pipe that carries all the
    manager sends: work, results forwarded to a persistent generator,
    KILL and the one stop, read only through the context's _read. The
    manager writes it without blocking and finishes a partial write from
    its selector, in both comms modes. outbox is the write end of the
    one-way pipe that carries all the worker sends.
    """
    ctx = WorkerContext(worker_id, config, inbox)
    try:
        while not ctx.stopping:
            msg = ctx._read(block=True)
            if isinstance(msg, (StopMsg, KillMsg)):
                continue  # a KILL here came after its simulation returned
            if not isinstance(msg, WorkMsg):
                log.warning("worker %d: ignoring unexpected %r", worker_id, msg)
                continue
            if msg.work.tag is Tag.EVAL_SIM:
                _run_sim(ctx, msg, outbox, sim_fn)
            else:
                _run_gen(ctx, msg, outbox, gen_fn)
    except BrokenPipeError:  # the manager is gone; no one reads a report
        log.debug("worker %d: result pipe closed", worker_id)
    finally:
        # So a worker thread's end reads as EOF too, and the manager's
        # writes to its inbox fail as they do for a process's.
        outbox.close()
        inbox.close()
    log.debug("worker %d stopped", worker_id)
