"""Worker side of the engine: the loop a worker runs and the contexts
handed to user functions.

A worker is a plain loop over an inbox. Simulator calls receive a
WorkerContext (rng stream, directories, resource assignment, kill
polling); a persistent generator additionally gets the send/recv surface
it streams batches through. The same loop body runs as a separate
process (local comms) or as a thread inside the manager (gen_on_manager);
only the channel types differ.
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

    def __init__(self, worker_id: int, config: WorkerConfig, control):
        self.worker_id = worker_id
        self.config = config
        self.seed = config.base_seed + worker_id
        self.rng = np.random.default_rng(self.seed)
        self.ensemble_dir = config.ensemble_dir
        self.current_sim_ids: set[int] = set()
        self.assignment = None
        self.killed: list[int] = []
        self._control = control
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
        """Drain the control channel without blocking.

        Returns ("KILL", sim_id) and ("STOP", None) tuples in arrival
        order; kills for sims this worker is not running are still
        reported and filtered by the caller.
        """
        signals: list[tuple[str, int | None]] = []
        while True:
            try:
                msg = self._control.get_nowait()
            except queue.Empty:
                break
            if isinstance(msg, KillMsg):
                signals.extend(("KILL", sid) for sid in msg.sim_ids)
            elif isinstance(msg, StopMsg):
                signals.append(("STOP", None))
            else:
                log.warning("worker %d: unexpected control message %r",
                            self.worker_id, msg)
        return signals


class PersistentGenContext:
    """Streaming surface for a persistent generator.

    send hands points to the manager without blocking; recv blocks until
    the manager answers with results or a stop tag. Attribute access
    (rng, seed, directories) is shared with the enclosing worker context
    so generator streams stay continuous.
    """

    def __init__(self, worker_ctx: WorkerContext, inbox, results_q):
        self._inbox = inbox
        self._results = results_q
        self.worker_id = worker_ctx.worker_id
        self.seed = worker_ctx.seed
        self.rng = worker_ctx.rng
        self.ensemble_dir = worker_ctx.ensemble_dir

    def send(self, points) -> None:
        """Hand new points to the manager; request_cancel withdraws old ones."""
        self._results.put(GenBatch(self.worker_id, list(points)))

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
        self._results.put(GenBatch(self.worker_id, [], tuple(sim_ids)))


def _run_sim(ctx: WorkerContext, msg: WorkMsg, results_q, sim_fn) -> None:
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
    results_q.put(done)


def _run_gen(ctx: WorkerContext, msg: WorkMsg, inbox, results_q, gen_fn) -> None:
    if msg.work.persistent:
        pctx = PersistentGenContext(ctx, inbox, results_q)
        try:
            gen_fn(msg.records, ctx.config.gen_params, pctx)
        except Exception:
            results_q.put(WorkerCrash(ctx.worker_id, "gen",
                                      traceback.format_exc()))
            return
        results_q.put(GenDone(ctx.worker_id))
    else:
        try:
            points = gen_fn(msg.records, ctx.config.gen_params, ctx)
        except Exception:
            results_q.put(WorkerCrash(ctx.worker_id, "gen",
                                      traceback.format_exc()))
            return
        results_q.put(GenBatch(ctx.worker_id, list(points)))


def worker_main(worker_id: int, config: WorkerConfig, inbox, control,
                results_q, gen_fn=None, sim_fn=None) -> None:
    """Body of one worker; runs until a stop message arrives on the inbox.

    inbox carries work and generator result streams, control carries
    stop/kill signals (polled mid-simulation), results_q leads back to
    the manager.
    """
    ctx = WorkerContext(worker_id, config, control)
    while True:
        msg = inbox.get()
        if isinstance(msg, StopMsg):
            break
        if not isinstance(msg, WorkMsg):
            log.warning("worker %d: ignoring unexpected %r", worker_id, msg)
            continue
        if msg.work.tag is Tag.EVAL_SIM:
            _run_sim(ctx, msg, results_q, sim_fn)
        else:
            _run_gen(ctx, msg, inbox, results_q, gen_fn)
    log.debug("worker %d stopped", worker_id)
