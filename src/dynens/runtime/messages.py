"""Message vocabulary shared by the manager, workers, and user functions.

Everything that crosses a channel is a plain picklable dataclass. Data
messages (work, results) and control messages (stop, kill) travel on
separate channels so a kill can overtake a full data queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

from ..history import EnsembleRecord, GenPoint
from ..resources import Assignment


class Tag(IntEnum):
    EVAL_GEN = 1
    EVAL_SIM = 2
    STOP = 3
    PERSIS_STOP = 4
    FINISHED_PERSISTENT_GEN = 5
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
class WorkMsg:
    work: Work
    records: list[EnsembleRecord] = field(default_factory=list)


@dataclass
class ResultsMsg:
    """Completed records forwarded to a persistent generator."""

    records: list[EnsembleRecord] = field(default_factory=list)


@dataclass
class StopMsg:
    tag: Tag = Tag.STOP


@dataclass
class KillMsg:
    sim_ids: tuple[int, ...] = ()


# -- worker -> manager ---------------------------------------------------


@dataclass
class SimDone:
    worker_id: int
    results: list[tuple[int, float]] = field(default_factory=list)
    killed_ids: tuple[int, ...] = ()
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
    worker_id: int
    where: str  # "sim" or "gen"
    traceback_text: str
