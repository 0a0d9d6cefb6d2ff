"""Manager/worker engine: message protocol, allocation, worker loops."""

from .alloc import DefaultAlloc, Forward, PersistentAlloc  # noqa: F401
from .manager import (  # noqa: F401
    EnsembleError,
    HistoryView,
    RunConfig,
    check_exit,
    run_ensemble,
    validate_trace,
)
from .messages import (  # noqa: F401
    ExitCriteria,
    STOP_TAGS,
    Tag,
    Work,
    WorkerState,
    WorkerStatus,
)
from .worker import (  # noqa: F401
    PersistentGenContext,
    ProtocolError,
    WorkerContext,
    worker_main,
)
