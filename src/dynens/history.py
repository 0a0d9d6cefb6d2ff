"""Evaluation history: the record table an ensemble run accumulates.

Every proposed point becomes one record with a dense, append-ordered sim_id.
Flags only ever go False -> True; timestamps are seconds since the run started.
The on-disk format is a tab-separated table plus a small JSON sidecar, built to
be greppable mid-run and to round-trip exactly.

Records change only through History's write methods and its append entry
point, which keep the running indexes (returned count, best f, pending ids)
and the cached dump rows current; setting a record's field directly leaves
them stale.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

FORMAT_VERSION = 1

# Scalar columns after the x block, in on-disk order.
_SCALAR_COLS = (
    "f",
    "priority",
    "num_procs",
    "num_gpus",
    "gen_worker",
    "sim_worker",
    "given",
    "returned",
    "cancel_requested",
    "kill_sent",
    "given_time",
    "returned_time",
)


class HistoryError(Exception):
    """Contract violation on a history operation."""


class HistoryFormatError(HistoryError):
    """Malformed dump file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class GenPoint:
    """One point proposed for evaluation by a generator.

    priority steers dispatch order; num_procs/num_gpus are resource requests
    (0 means unspecified). sim_id may be set explicitly but must then equal
    the id the history would assign anyway.
    """

    x: np.ndarray
    priority: float = 0.0
    num_procs: int = 0
    num_gpus: int = 0
    sim_id: int | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


@dataclass
class EnsembleRecord:
    sim_id: int
    x: np.ndarray
    f: float = math.nan
    priority: float = 0.0
    num_procs: int = 0
    num_gpus: int = 0
    gen_worker: int = 0
    sim_worker: int | None = None
    given: bool = False
    returned: bool = False
    cancel_requested: bool = False
    kill_sent: bool = False
    given_time: float | None = None
    returned_time: float | None = None

    def copy(self) -> "EnsembleRecord":
        # A shallow copy of the fields and a copy of x; cheaper than
        # dataclasses.replace, which validates and re-runs __init__.
        new = object.__new__(type(self))
        new.__dict__ = {**self.__dict__, "x": self.x.copy()}
        return new


def _format_row(rec: EnsembleRecord) -> str:
    """One record as its dump line, without the newline."""
    row = [str(rec.sim_id)]
    row += [repr(float(v)) for v in rec.x]
    for col in _SCALAR_COLS:
        v = getattr(rec, col)
        if v is None:
            row.append("-")
        elif isinstance(v, bool):
            row.append("1" if v else "0")
        elif isinstance(v, float):
            row.append(repr(v))
        else:
            row.append(str(v))
    return "\t".join(row)


def records_equal(a: EnsembleRecord, b: EnsembleRecord, include_times: bool = False) -> bool:
    """Field-wise equality; NaN f compares equal to NaN f.

    Wall-clock fields are skipped unless include_times: they cannot reproduce
    across runs and are excluded from determinism comparisons.
    """
    skip = set() if include_times else {"given_time", "returned_time"}
    for fld in fields(EnsembleRecord):
        if fld.name in skip:
            continue
        va, vb = getattr(a, fld.name), getattr(b, fld.name)
        if fld.name == "x":
            if not np.array_equal(va, vb):
                return False
        elif fld.name == "f":
            if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                return False
        elif va != vb:
            return False
    return True


class History:
    """Ordered list of evaluation records plus the run's start time."""

    def __init__(self, n_dims: int, start_time: float | None = None):
        if n_dims < 1:
            raise HistoryError(f"n_dims must be >= 1, got {n_dims}")
        self.n_dims = n_dims
        self.start_time = time.time() if start_time is None else start_time
        self.records: list[EnsembleRecord] = []
        # Indexes kept by the write methods, so no query scans the table.
        self._returned = 0
        self._best_f = math.nan
        self._pending: set[int] = set()
        # Dump line per record; None until formatted or after a change.
        self._rows: list[str | None] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, sim_id: int) -> EnsembleRecord:
        if not 0 <= sim_id < len(self.records):
            raise HistoryError(f"unknown sim_id {sim_id} (history has {len(self.records)} records)")
        return self.records[sim_id]

    # -- writes ----------------------------------------------------------

    def submit_points(self, points: Sequence[GenPoint], gen_worker: int) -> list[int]:
        """Append one record per point; returns the assigned sim_ids."""
        # Validate the whole batch before touching the table.
        next_id = len(self.records)
        for i, p in enumerate(points):
            if p.x.shape != (self.n_dims,):
                raise HistoryError(
                    f"point {i}: x has shape {p.x.shape}, expected ({self.n_dims},)"
                )
            if p.sim_id is not None and p.sim_id != next_id + i:
                raise HistoryError(
                    f"point {i}: explicit sim_id {p.sim_id} != next id {next_id + i}"
                )
        ids = []
        for p in points:
            rec = EnsembleRecord(
                sim_id=len(self.records),
                x=p.x.copy(),
                priority=float(p.priority),
                num_procs=int(p.num_procs),
                num_gpus=int(p.num_gpus),
                gen_worker=gen_worker,
            )
            self.append(rec)
            ids.append(rec.sim_id)
        return ids

    def append(self, rec: EnsembleRecord) -> None:
        """Append an existing record (not copied) as the next sim_id."""
        if rec.sim_id != len(self.records):
            raise HistoryError(
                f"appended sim_id {rec.sim_id} != next id {len(self.records)}")
        if rec.x.shape != (self.n_dims,):
            raise HistoryError(
                f"appended x has shape {rec.x.shape}, expected ({self.n_dims},)")
        self.records.append(rec)
        self._rows.append(None)
        if rec.returned:
            self._returned += 1
            self._note_f(rec.f)
        if not rec.given and not rec.cancel_requested:
            self._pending.add(rec.sim_id)

    def _note_f(self, f: float) -> None:
        if not math.isnan(f) and (math.isnan(self._best_f) or f < self._best_f):
            self._best_f = f

    def mark_given(self, sim_ids: Iterable[int], sim_worker: int, given_time: float) -> None:
        for sid in sim_ids:
            rec = self.get(sid)
            if rec.given:
                raise HistoryError(f"sim_id {sid} already given")
            rec.given = True
            rec.sim_worker = sim_worker
            rec.given_time = given_time
            self._pending.discard(sid)
            self._rows[sid] = None

    def update_with_results(self, results: Iterable[tuple[int, float]], returned_time: float) -> None:
        """Record f for sim_ids that were given and have not yet returned."""
        for sid, fval in results:
            rec = self.get(sid)
            if not rec.given:
                raise HistoryError(f"sim_id {sid} returned a result but was never given")
            if rec.returned:
                raise HistoryError(f"sim_id {sid} returned twice")
            rec.f = float(fval)
            rec.returned = True
            rec.returned_time = returned_time
            self._returned += 1
            self._note_f(rec.f)
            self._rows[sid] = None

    def mark_cancel(self, sim_ids: Iterable[int]) -> list[int]:
        """Set cancel_requested; returns the subset currently running.

        Running means given and not returned: those need a kill signal, on
        which the caller sets kill_sent after dispatching.
        """
        running = []
        for sid in sim_ids:
            rec = self.get(sid)
            rec.cancel_requested = True
            self._pending.discard(sid)
            self._rows[sid] = None
            if rec.given and not rec.returned:
                running.append(sid)
        return running

    def mark_kill_sent(self, sim_ids: Iterable[int]) -> None:
        for sid in sim_ids:
            rec = self.get(sid)
            if not rec.cancel_requested:
                raise HistoryError(f"kill_sent without cancel_requested on sim_id {sid}")
            rec.kill_sent = True
            self._rows[sid] = None

    # -- queries ---------------------------------------------------------

    def pending_sims(self) -> list[EnsembleRecord]:
        """Dispatchable records: not given, not cancelled; highest priority
        first, ties by lowest sim_id."""
        # Sorted on each read: priorities may be edited in place.
        pend = [self.records[sid] for sid in self._pending]
        pend.sort(key=lambda r: (-r.priority, r.sim_id))
        return pend

    def returned_count(self) -> int:
        return self._returned

    def best_f(self) -> float:
        """Smallest non-NaN f among returned records; NaN when none."""
        return self._best_f

    # -- persistence -----------------------------------------------------

    def _header(self) -> list[str]:
        return ["sim_id"] + [f"x{d}" for d in range(self.n_dims)] + list(_SCALAR_COLS)

    def dump(self, path: str | os.PathLike) -> None:
        """Write the table to path and metadata to path + '.meta.json'.

        Floats are repr'd (exact round-trip), NaN is spelled 'nan', absent
        values are '-'. Each file is staged through a temp file then renamed.
        Only rows changed since the last dump are formatted again.
        """
        path = os.fspath(path)
        rows = self._rows
        for sid, row in enumerate(rows):
            if row is None:
                rows[sid] = _format_row(self.records[sid])
        _write_replace(path, "\n".join(["\t".join(self._header()), *rows]) + "\n")
        meta = {
            "format_version": FORMAT_VERSION,
            "n": self.n_dims,
            "num_records": len(self.records),
            "start_time": self.start_time,
        }
        _write_replace(path + ".meta.json", json.dumps(meta, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "History":
        path = os.fspath(path)
        meta_path = path + ".meta.json"
        if not os.path.exists(meta_path):
            raise HistoryFormatError(f"missing metadata sidecar {meta_path}")
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            version = meta.get("format_version")
            n_dims = int(meta["n"])
            start_time = float(meta["start_time"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise HistoryFormatError(
                f"unreadable metadata sidecar {meta_path}: {exc!r}") from exc
        if version != FORMAT_VERSION:
            raise HistoryFormatError(
                f"format version {version!r} not supported (expected {FORMAT_VERSION})"
            )
        hist = cls(n_dims, start_time=start_time)

        with open(path) as fh:
            raw_lines = fh.read().splitlines()
        if not raw_lines:
            raise HistoryFormatError("empty history file", line=1)
        expected_header = hist._header()
        header = raw_lines[0].split("\t")
        if header != expected_header:
            raise HistoryFormatError(
                f"bad header {header!r}, expected {expected_header!r}", line=1
            )
        ncols = len(expected_header)
        for lineno, line in enumerate(raw_lines[1:], start=2):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != ncols:
                raise HistoryFormatError(
                    f"expected {ncols} columns, got {len(cells)}", line=lineno
                )
            try:
                rec = cls._parse_row(cells, n_dims)
            except (ValueError, TypeError) as exc:
                raise HistoryFormatError(str(exc), line=lineno) from exc
            if rec.sim_id != len(hist.records):
                raise HistoryFormatError(
                    f"sim_id {rec.sim_id} out of order (expected {len(hist.records)})",
                    line=lineno,
                )
            hist.append(rec)
        if len(hist.records) != meta.get("num_records"):
            raise HistoryFormatError(
                f"metadata says {meta.get('num_records')} records, file has {len(hist.records)}"
            )
        return hist

    @staticmethod
    def _parse_row(cells: list[str], n_dims: int) -> EnsembleRecord:
        def opt_float(s: str) -> float | None:
            return None if s == "-" else float(s)

        def parse_bool(s: str) -> bool:
            if s == "1":
                return True
            if s == "0":
                return False
            raise ValueError(f"bad boolean cell {s!r}")

        sim_id = int(cells[0])
        x = np.array([float(c) for c in cells[1 : 1 + n_dims]])
        rest = dict(zip(_SCALAR_COLS, cells[1 + n_dims :]))
        sim_worker = rest["sim_worker"]
        return EnsembleRecord(
            sim_id=sim_id,
            x=x,
            f=float(rest["f"]),
            priority=float(rest["priority"]),
            num_procs=int(rest["num_procs"]),
            num_gpus=int(rest["num_gpus"]),
            gen_worker=int(rest["gen_worker"]),
            sim_worker=None if sim_worker == "-" else int(sim_worker),
            given=parse_bool(rest["given"]),
            returned=parse_bool(rest["returned"]),
            cancel_requested=parse_bool(rest["cancel_requested"]),
            kill_sent=parse_bool(rest["kill_sent"]),
            given_time=opt_float(rest["given_time"]),
            returned_time=opt_float(rest["returned_time"]),
        )


def _write_replace(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename, so a reader
    sees the old file or the new one, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def histories_equal(a: History, b: History, include_times: bool = False) -> bool:
    if a.n_dims != b.n_dims or len(a) != len(b):
        return False
    return all(records_equal(ra, rb, include_times) for ra, rb in zip(a, b))
