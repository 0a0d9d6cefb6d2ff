"""Allocation policies: who works on what, decided once per manager cycle.

An allocator maps (history view, worker states, resource pool) to a list
of actions: Work entries start evaluations, Forward entries route finished
records back to a persistent generator. The manager executes them in
order and owns all mutation of the history.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field

from ..resources import InsufficientResources, ResourceRequest
from .messages import Tag, Work, WorkerStatus

log = logging.getLogger(__name__)

GEN_WORKER = 1  # runs the persistent generator; a thread under gen_on_manager


@dataclass(frozen=True)
class Forward:
    """Deliver these completed records to a persistent generator."""

    target_worker: int
    record_ids: tuple[int, ...]


def _resource_request(num_procs, num_gpus):
    if num_procs <= 0 and num_gpus <= 0:
        return None
    return ResourceRequest(
        num_procs=num_procs if num_procs > 0 else None,
        num_gpus=num_gpus if num_gpus > 0 else None,
    )


def _assign_sims(view, workers, pool, actions, skip_worker=None,
                 warned=None):
    """Fill idle workers with pending records, highest priority first.

    Each idle worker takes a pack of consecutive records, sized by
    factoring: ceil(pending / (2 * sim workers)), at least one. A round
    hands out about half of what is pending, so a pack of slow sims
    ends about one sim after the rest, while far fewer messages cross.
    With a pool every record goes alone, since one Work holds one
    assignment. A record whose request cannot be met right now is
    deferred; one that can never be met is warned about once and
    skipped. The pending order is read only when a worker is idle, and
    a record's request only when it is taken."""
    idle = [state.worker_id
            for state in sorted(workers.values(), key=lambda s: s.worker_id)
            if state.worker_id != skip_worker and state.idle]
    if not idle:
        return
    pending = deque(view.pending_ids())
    n_sim = sum(1 for wid in workers if wid != skip_worker)
    pack = 1 if pool is not None else math.ceil(
        len(pending) / (2 * max(1, n_sim)))
    for worker_id in idle:
        ids: list[int] = []
        assignment = None
        while pending and len(ids) < pack:
            sim_id = pending.popleft()
            request = _resource_request(*view.resources(sim_id))
            if request is not None and pool is None:
                raise RuntimeError(
                    f"record {sim_id} requests resources but no "
                    "pool is configured")
            if pool is not None:
                # No explicit request still occupies one resource set: the
                # per-worker share, which app-launching sims rely on.
                try:
                    assignment = pool.schedule(request)
                except InsufficientResources as exc:
                    if warned is not None and sim_id not in warned:
                        log.warning("deferring sim %d: %s", sim_id, exc)
                        warned.add(sim_id)
                    continue
            ids.append(sim_id)
        if ids:
            actions.append(Work(target_worker=worker_id,
                                tag=Tag.EVAL_SIM, record_ids=tuple(ids),
                                assignment=assignment))


@dataclass
class DefaultAlloc:
    """Sims for idle workers from the pending queue; otherwise one
    generator call at a time. Pairs with non-persistent generators."""

    _warned: set = field(default_factory=set, init=False)

    def __call__(self, view, workers, pool):
        actions: list = []
        _assign_sims(view, workers, pool, actions, warned=self._warned)
        claimed = {w.target_worker for w in actions}
        gen_running = any(
            s.status in (WorkerStatus.BUSY_GEN, WorkerStatus.PERSISTENT_GEN)
            for s in workers.values())
        if not gen_running:
            for state in sorted(workers.values(), key=lambda s: s.worker_id):
                if state.idle and state.worker_id not in claimed:
                    actions.append(Work(target_worker=state.worker_id,
                                        tag=Tag.EVAL_GEN))
                    break
        return actions


@dataclass
class PersistentAlloc:
    """One persistent generator on worker GEN_WORKER; results stream
    back to it in complete sim_id-sorted batches (or singly when async).

    The generator's start message carries every record returned so far,
    a resumed run's included, so only the generator's records unreturned
    at its start, and those it makes later, are forwarded. A scan cursor
    and the list of the generator's ids not yet forwarded let each call
    look only at records added since the last one; in batch mode a
    second cursor skips the outstanding ids already seen settled. A
    record cancelled before it started, whether not yet given or
    withdrawn from a pack, never returns, so it settles unforwarded and
    the rest of its batch goes on without it.
    """

    async_mode: bool = False
    started: bool = False
    _warned: set = field(default_factory=set, init=False)
    _scanned: int = field(default=0, init=False)
    _outstanding: list = field(default_factory=list, init=False)
    _settled_prefix: int = field(default=0, init=False)

    @classmethod
    def resuming(cls, records, async_mode=False):
        """Alias of the constructor; `records` is not read."""
        return cls(async_mode=async_mode)

    def __call__(self, view, workers, pool):
        actions: list = []
        state = workers.get(GEN_WORKER)
        if not self.started:
            if state is None or not state.idle:
                raise RuntimeError(
                    f"worker {GEN_WORKER} unavailable for the generator")
            actions.append(Work(target_worker=GEN_WORKER,
                                tag=Tag.EVAL_GEN, persistent=True))
            self.started = True
            self._outstanding = view.unreturned_gen_ids(GEN_WORKER)
            self._scanned = len(view)
        elif state is not None and state.status is WorkerStatus.PERSISTENT_GEN:
            # A finished generator drops its worker back to idle, which
            # ends forwarding without any extra bookkeeping here.
            outstanding = self._outstanding
            outstanding += view.gen_record_ids(GEN_WORKER,
                                               start=self._scanned)
            self._scanned = len(view)
            # Ids arrive in sim_id order, so every list here stays sorted.
            # A settled id is returned, or was cancelled before it was
            # given and so never returns: it leaves the list unforwarded.
            if self.async_mode:
                settled = [sid for sid in outstanding if view.is_settled(sid)]
            else:
                # A record never un-settles: test each id until it has.
                while (self._settled_prefix < len(outstanding)
                       and view.is_settled(outstanding[self._settled_prefix])):
                    self._settled_prefix += 1
                settled = (outstanding
                           if self._settled_prefix == len(outstanding) else [])
            if settled:
                done = set(settled)
                self._outstanding = [sid for sid in outstanding
                                     if sid not in done]
                self._settled_prefix = 0
                ready = tuple(sid for sid in settled if view.is_returned(sid))
                if ready:
                    actions.append(Forward(GEN_WORKER, ready))
        _assign_sims(view, workers, pool, actions,
                     skip_worker=GEN_WORKER, warned=self._warned)
        return actions
