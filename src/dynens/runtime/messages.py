"""Message vocabulary shared by the manager, workers, and user functions.

Everything that crosses a channel is a plain picklable dataclass. A
worker's inbox is a one-way pipe that carries all the manager sends
(work, forwarded results, KILL, and at the end of the run one StopMsg);
a second one-way pipe carries all it sends back. Both comms modes use
the same inbox type. The manager writes an inbox without blocking and
finishes a partial write from its selector, which also reads every
result pipe, so the two directions cannot deadlock. Work goes only to
idle workers, so a running simulation finds only KILL or STOP in its
inbox.
The one StopMsg carries PERSIS_STOP to a worker running a persistent
generator and STOP to every other worker. A worker's loop, a sim's
poll_signals and a generator's recv all take from the inbox through one
reader, which notes the stop and each KILL. A worker that ends
unstopped closes its pipe and so ends the run.

Records travel to workers as a RecordBatch of columns, never as the
manager's own objects. User functions receive the EnsembleRecords it
rebuilds: sim_id, x, f, returned, num_procs and num_gpus are the
manager's values; every other field keeps its default (gen_worker 0,
given False, no times, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

from ..history import EnsembleRecord, GenPoint
from ..resources import Assignment


class Tag(IntEnum):
    EVAL_GEN = 1
    EVAL_SIM = 2
    STOP = 3
    PERSIS_STOP = 4
    RESULT = 6


STOP_TAGS = (Tag.STOP, Tag.PERSIS_STOP)


class WorkerStatus(Enum):
    IDLE = "idle"
    BUSY_SIM = "busy_sim"
    BUSY_GEN = "busy_gen"
    PERSISTENT_GEN = "persistent_gen"


@dataclass
class WorkerState:
    """Manager-side snapshot of one worker, indexed by the allocator."""

    worker_id: int
    status: WorkerStatus = WorkerStatus.IDLE

    @property
    def idle(self) -> bool:
        return self.status == WorkerStatus.IDLE


@dataclass(frozen=True)
class Work:
    """One allocator decision: send these records to that worker."""

    target_worker: int
    tag: Tag
    record_ids: tuple[int, ...] = ()
    persistent: bool = False
    assignment: Assignment | None = None

    def __post_init__(self):
        if self.tag not in (Tag.EVAL_GEN, Tag.EVAL_SIM):
            raise ValueError(f"work tag must be EVAL_GEN or EVAL_SIM, got {self.tag!r}")


@dataclass
class ExitCriteria:
    sim_max: int | None = None
    gen_max: int | None = None
    wallclock_max: float | None = None
    stop_val: tuple[str, float] | None = None

    def __post_init__(self):
        if (self.sim_max is None and self.gen_max is None
                and self.wallclock_max is None and self.stop_val is None):
            raise ValueError("at least one exit criterion must be set")
        if self.stop_val is not None:
            fld, _ = self.stop_val
            if fld != "f":
                raise ValueError(f"stop_val supports the 'f' field, got {fld!r}")


# -- manager -> worker ---------------------------------------------------


@dataclass
class RecordBatch:
    """Records as the columns a worker reads: sim ids, x as one float64
    block, and f, returned, num_procs and num_gpus.

    Building one copies every value out of the records, so the batch is
    a snapshot the manager may send while it goes on changing them.
    """

    sim_ids: list[int] = field(default_factory=list)
    x: bytes = b""
    f: list[float] = field(default_factory=list)
    returned: list[bool] = field(default_factory=list)
    num_procs: list[int] = field(default_factory=list)
    num_gpus: list[int] = field(default_factory=list)

    @classmethod
    def of(cls, records: Sequence[EnsembleRecord]) -> "RecordBatch":
        X = np.array([r.x for r in records], dtype=np.float64)
        return cls([r.sim_id for r in records], X.tobytes(),
                   [r.f for r in records], [r.returned for r in records],
                   [r.num_procs for r in records], [r.num_gpus for r in records])

    def __reduce__(self):
        # Pickled as its values alone: the field names would be about a
        # third of a one-record batch's bytes.
        return RecordBatch, (self.sim_ids, self.x, self.f, self.returned,
                             self.num_procs, self.num_gpus)

    def records(self) -> list[EnsembleRecord]:
        """The batch as fresh records; unsent fields keep their defaults."""
        if not self.sim_ids:
            return []
        X = np.frombuffer(self.x, dtype=np.float64)
        X = X.reshape(len(self.sim_ids), -1).copy()
        return [EnsembleRecord(sid, x, f, returned=ret, num_procs=procs,
                               num_gpus=gpus)
                for sid, x, f, ret, procs, gpus in zip(
                    self.sim_ids, X, self.f, self.returned, self.num_procs,
                    self.num_gpus)]


@dataclass
class WorkMsg:
    work: Work
    batch: RecordBatch = field(default_factory=RecordBatch)


@dataclass
class ResultsMsg:
    """Completed records forwarded to a persistent generator."""

    batch: RecordBatch = field(default_factory=RecordBatch)


@dataclass
class StopMsg:
    tag: Tag = Tag.STOP


@dataclass
class KillMsg:
    sim_ids: tuple[int, ...] = ()


# -- worker -> manager ---------------------------------------------------


@dataclass
class SimDone:
    """A Work's answer: a result per record that ran, and apart from
    them the records it never started (withdrawn by a KILL, or left by a
    STOP)."""

    worker_id: int
    results: list[tuple[int, float]] = field(default_factory=list)
    killed_ids: tuple[int, ...] = ()
    unstarted: tuple[int, ...] = ()
    error: str | None = None


@dataclass
class GenBatch:
    """A persistent generator handing new points to the manager; may also
    carry cancellation requests for earlier points."""

    worker_id: int
    points: list[GenPoint] = field(default_factory=list)
    cancel_ids: tuple[int, ...] = ()


@dataclass
class GenDone:
    worker_id: int


@dataclass
class WorkerCrash:
    """A generator raised; a sim's error travels in SimDone.error."""

    worker_id: int
    traceback_text: str
