"""Worker side of the engine: the loop a worker runs and the contexts
handed to user functions.

A worker is a plain loop over an inbox. Simulator calls receive a
WorkerContext (rng stream, directories, resource assignment, kill
polling); a persistent generator additionally gets the send/recv surface
it streams batches through. The same loop body runs as a separate
process (local comms) or as a thread inside the manager (gen_on_manager);
only the inbox type differs.
"""

from __future__ import annotations

import logging
import os
import queue
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..executor import Executor
from ..resources import PlatformSpec
from .messages import (
    GenBatch,
    GenDone,
    KillMsg,
    ResultsMsg,
    SimDone,
    StopMsg,
    Tag,
    WorkerCrash,
    WorkMsg,
)

log = logging.getLogger(__name__)


class ProtocolError(Exception):
    """A message arrived that the protocol does not allow here."""


@dataclass
class WorkerConfig:
    """Per-run settings every worker carries; nothing here is per-message."""

    base_seed: int = 0
    ensemble_dir: str = "."
    sim_params: dict = field(default_factory=dict)
    gen_params: dict = field(default_factory=dict)
    platform: PlatformSpec | None = None
    dry_run: bool = False


class WorkerContext:
    """State a worker keeps across user-function calls.

    One context lives for the whole worker: the rng stream in particular
    must advance across calls, never restart. current_sim_ids, assignment
    and killed describe the simulation call in progress; simulator
    functions append to `killed` when they end a run early (kill signal
    or timeout) so the manager can flag those records.
    """

    def __init__(self, worker_id: int, config: WorkerConfig, inbox):
        self.worker_id = worker_id
        self.config = config
        self.seed = config.base_seed + worker_id
        self.rng = np.random.default_rng(self.seed)
        self.ensemble_dir = config.ensemble_dir
        self.current_sim_ids: set[int] = set()
        self.assignment = None
        self.killed: list[int] = []
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
        return os.path.join(self.ensemble_dir,
                            f"worker{self.worker_id}", f"sim{sim_id}")

    def poll_signals(self) -> list[tuple[str, int | None]]:
        """Drain the inbox, which mid-simulation holds only KILL and STOP.

        Returns ("KILL", sim_id) and ("STOP", None) tuples in arrival
        order; kills for sims this worker is not running are still
        reported and filtered by the caller. A STOP also sets `stopping`,
        so the worker exits once the simulation has returned.
        """
        signals: list[tuple[str, int | None]] = []
        while True:
            try:
                msg = self._inbox.get_nowait()
            except queue.Empty:
                break
            if isinstance(msg, KillMsg):
                signals.extend(("KILL", sid) for sid in msg.sim_ids)
            elif isinstance(msg, StopMsg):
                self.stopping = True
                signals.append(("STOP", None))
            else:
                log.warning("worker %d: unexpected message mid-simulation %r",
                            self.worker_id, msg)
        return signals


class PersistentGenContext:
    """Streaming surface for a persistent generator.

    send writes to the result pipe, which the manager always reads; recv
    blocks on the inbox queue, where results forwarded while the generator
    was busy wait. Attribute access (rng, seed, directories) is shared
    with the enclosing worker context so generator streams stay continuous.
    """

    def __init__(self, worker_ctx: WorkerContext, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox
        self.worker_id = worker_ctx.worker_id
        self.seed = worker_ctx.seed
        self.rng = worker_ctx.rng
        self.ensemble_dir = worker_ctx.ensemble_dir

    def send(self, points) -> None:
        """Hand new points to the manager; request_cancel withdraws old ones."""
        self._outbox.send(GenBatch(self.worker_id, list(points)))

    def recv(self) -> tuple[Tag, list]:
        msg = self._inbox.get()
        if isinstance(msg, StopMsg):
            return msg.tag, []
        if isinstance(msg, ResultsMsg):
            return Tag.RESULT, msg.records
        raise ProtocolError(
            f"unexpected message for a persistent generator: {msg!r}")

    def send_recv(self, points) -> tuple[Tag, list]:
        self.send(points)
        return self.recv()

    def request_cancel(self, sim_ids) -> None:
        """Ask the manager to cancel these sims, killing any already running."""
        self._outbox.send(GenBatch(self.worker_id, [], tuple(sim_ids)))


def _run_sim(ctx: WorkerContext, msg: WorkMsg, outbox, sim_fn) -> None:
    records = msg.records
    ctx.current_sim_ids = {r.sim_id for r in records}
    ctx.assignment = msg.work.assignment
    ctx.killed = []
    for rec in records:
        os.makedirs(ctx.sim_dir(rec.sim_id), exist_ok=True)
    try:
        fvals = sim_fn(records, ctx.config.sim_params, ctx)
        results = [(r.sim_id, float(v))
                   for r, v in zip(records, fvals, strict=True)]
        done = SimDone(ctx.worker_id, results, killed_ids=tuple(ctx.killed))
    except Exception:
        # The record set still needs an answer; NaN marks the failure and
        # the manager decides whether that aborts the ensemble.
        results = [(r.sim_id, float("nan")) for r in records]
        done = SimDone(ctx.worker_id, results, killed_ids=tuple(ctx.killed),
                       error=traceback.format_exc())
    finally:
        ctx.current_sim_ids = set()
        ctx.assignment = None
    outbox.send(done)


def _run_gen(ctx: WorkerContext, msg: WorkMsg, inbox, outbox, gen_fn) -> None:
    params = ctx.config.gen_params
    try:
        if msg.work.persistent:
            gen_fn(msg.records, params, PersistentGenContext(ctx, inbox, outbox))
            done = GenDone(ctx.worker_id)
        else:
            done = GenBatch(ctx.worker_id, list(gen_fn(msg.records, params, ctx)))
    except Exception:
        done = WorkerCrash(ctx.worker_id, "gen", traceback.format_exc())
    outbox.send(done)


def worker_main(worker_id: int, config: WorkerConfig, inbox, outbox,
                gen_fn=None, sim_fn=None) -> None:
    """Body of one worker; runs until a stop message arrives on the inbox.

    inbox is the queue that carries all the manager sends: work, results
    forwarded to a persistent generator, KILL and STOP (a simulation
    drains the last two through WorkerContext.poll_signals). outbox is
    the write end of the one-way pipe that carries all the worker sends.
    """
    ctx = WorkerContext(worker_id, config, inbox)
    try:
        while not ctx.stopping:
            msg = inbox.get()
            if isinstance(msg, StopMsg):
                break
            if isinstance(msg, KillMsg):
                continue  # its simulation returned before the kill arrived
            if not isinstance(msg, WorkMsg):
                log.warning("worker %d: ignoring unexpected %r", worker_id, msg)
                continue
            if msg.work.tag is Tag.EVAL_SIM:
                _run_sim(ctx, msg, outbox, sim_fn)
            else:
                _run_gen(ctx, msg, inbox, outbox, gen_fn)
    finally:
        outbox.close()  # so a worker thread's end reads as EOF too
    log.debug("worker %d stopped", worker_id)
