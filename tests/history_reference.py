"""The record-list History that the columnar one replaced, frozen as
the reference it must match: one EnsembleRecord object per record, kept
in a Python list. Only the record and error types come from
dynens.history, so records and failures compare across the two."""

from __future__ import annotations

import json
import math
import operator
import os
import time
from typing import Iterable, Sequence

import numpy as np

from dynens.history import (
    FORMAT_VERSION,
    JOURNAL_SUFFIX,
    EnsembleRecord,
    GenPoint,
    HistoryError,
    HistoryFormatError,
)


def _floats(col) -> list[str]:
    return list(map(repr, col))


def _ints(col) -> list[str]:
    return list(map(str, col))


def _opt_floats(col) -> list[str]:
    return ["-" if v is None else repr(v) for v in col]


def _opt_ints(col) -> list[str]:
    return ["-" if v is None else str(v) for v in col]


def _flags(col) -> list[str]:
    return ["1" if v else "0" for v in col]


def _opt(parse):
    return lambda cell: None if cell == "-" else parse(cell)


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"bad boolean cell {cell!r}")
    return cell == "1"


# The history format: the scalar columns after the x block, in on-disk and
# EnsembleRecord field order, each with how a whole column is spelled and
# how one cell is parsed: floats by repr (exact round-trip, NaN as 'nan'),
# ints by str, flags as 1/0 and absent values as '-'.
_SPELL = {
    "f": (_floats, float),
    "priority": (_floats, float),
    "num_procs": (_ints, int),
    "num_gpus": (_ints, int),
    "gen_worker": (_ints, int),
    "sim_worker": (_opt_ints, _opt(int)),
    "given": (_flags, _flag),
    "returned": (_flags, _flag),
    "cancel_requested": (_flags, _flag),
    "kill_sent": (_flags, _flag),
    "given_time": (_opt_floats, _opt(float)),
    "returned_time": (_opt_floats, _opt(float)),
}
_SCALAR_COLS = tuple(_SPELL)
_scalars = operator.attrgetter(*_SCALAR_COLS)

# Records formatted together; bounds the temporary column lists.
_FORMAT_CHUNK = 512


def _format_rows(records: Sequence[EnsembleRecord]) -> list[str]:
    """Each record as its dump line, without the newline.

    Built a column at a time over chunks of records; x cells are the
    repr of each coordinate as a Python float.
    """
    rows: list[str] = []
    for start in range(0, len(records), _FORMAT_CHUNK):
        chunk = records[start:start + _FORMAT_CHUNK]
        x = np.array([r.x for r in chunk], dtype=float)
        cols = [[str(r.sim_id) for r in chunk]]
        cols += map(_floats, x.T.tolist())
        for (spell, _), col in zip(_SPELL.values(), zip(*map(_scalars, chunk))):
            cols.append(spell(col))
        rows += map("\t".join, zip(*cols))
    return rows


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
        # What the next dump writes: the ids whose cached row a change
        # cleared, and every record from _dumped on. _table is the path
        # of the last full write, which a journal dump extends.
        self._changed: list[int] = []
        self._dumped = 0
        self._table: str | None = None

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
        for i, p in enumerate(points):
            if p.x.shape != (self.n_dims,):
                raise HistoryError(
                    f"point {i}: x has shape {p.x.shape}, expected ({self.n_dims},)"
                )
        ids = []
        for p in points:
            rec = EnsembleRecord(
                sim_id=len(self.records),
                x=p.x.copy(),
                priority=p.priority,
                num_procs=int(p.num_procs),
                num_gpus=int(p.num_gpus),
                gen_worker=gen_worker,
            )
            self.append(rec)
            ids.append(rec.sim_id)
        return ids

    def append(self, rec: EnsembleRecord) -> None:
        """Append an existing record (not copied) as the next sim_id. Its
        float cells are stored as Python floats: numpy's would dump as
        'np.float64(...)', which load rejects."""
        if rec.sim_id != len(self.records):
            raise HistoryError(
                f"appended sim_id {rec.sim_id} != next id {len(self.records)}")
        if rec.x.shape != (self.n_dims,):
            raise HistoryError(
                f"appended x has shape {rec.x.shape}, expected ({self.n_dims},)")
        rec.f, rec.priority = float(rec.f), float(rec.priority)
        if rec.given_time is not None:
            rec.given_time = float(rec.given_time)
        if rec.returned_time is not None:
            rec.returned_time = float(rec.returned_time)
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
            self._touch(sid)

    def withdraw(self, sim_ids: Iterable[int]) -> None:
        """Take back given records that never started: no worker, no given
        time, and pending again unless cancelled."""
        for sid in sim_ids:
            rec = self.get(sid)
            if rec.returned:
                raise HistoryError(f"sim_id {sid} withdrawn after it returned")
            rec.given = False
            rec.sim_worker = None
            rec.given_time = None
            if not rec.cancel_requested:
                self._pending.add(sid)
            self._touch(sid)

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
            self._touch(sid)

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
            self._touch(sid)
            if rec.given and not rec.returned:
                running.append(sid)
        return running

    def mark_kill_sent(self, sim_ids: Iterable[int]) -> None:
        for sid in sim_ids:
            rec = self.get(sid)
            if not rec.cancel_requested:
                raise HistoryError(f"kill_sent without cancel_requested on sim_id {sid}")
            rec.kill_sent = True
            self._touch(sid)

    def _touch(self, sid: int) -> None:
        """Note that record sid changed, for the cached row and the next dump."""
        if self._rows[sid] is not None:
            self._rows[sid] = None
            self._changed.append(sid)

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

    def dump(self, path: str | os.PathLike, journal: bool = False) -> None:
        """Save the history at path: the full table plus metadata in
        path + '.meta.json', or with journal=True the changed rows only.

        Floats are repr'd (exact round-trip), NaN is spelled 'nan', absent
        values are '-'. Only rows changed since the last dump are formatted
        again.

        With journal=True, once this history has written its full table to
        path, a dump appends just the rows changed since the last dump to
        path + '.journal', in one write of whole lines; load folds them
        over the table. Otherwise the full table is written: the sidecar
        first, then the journal is removed and the table replaced, each
        file staged through a temp file and renamed. A crash at any point
        leaves files that load reads as this dump or an earlier one.
        """
        path = os.fspath(path)
        ids = sorted(self._changed)
        ids += range(self._dumped, len(self.records))
        rows = _format_rows([self.records[sid] for sid in ids])
        for sid, row in zip(ids, rows):
            self._rows[sid] = row
        self._changed = []
        self._dumped = len(self.records)
        journal_path = path + JOURNAL_SUFFIX
        appending = journal and path == self._table
        # Until this dump is whole, the next one writes the full table.
        self._table = None
        if appending:
            if rows:
                with open(journal_path, "a") as fh:
                    fh.write("\n".join(rows) + "\n")
        else:
            meta = {
                "format_version": FORMAT_VERSION,
                "n": self.n_dims,
                "start_time": self.start_time,
            }
            _write_replace(path + ".meta.json", json.dumps(meta, indent=1) + "\n")
            # The journal goes before the table is replaced: a crash between
            # the two leaves the older table alone, never a stale journal
            # folded over a newer table.
            _write_replace(path, "\n".join(["\t".join(self._header()), *self._rows]) + "\n",
                           stale=journal_path)
        self._table = path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "History":
        """Read a dump: the table, then its journal if there is one.

        Journal lines replace the table's row of their sim_id or append the
        next one, in order, so the last line for a sim_id wins; a final
        line without its newline is a torn write and is ignored.
        """
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
        records: list[EnsembleRecord] = []
        for lineno, rec in cls._parse_rows(raw_lines[1:], 2, n_dims):
            if rec.sim_id != len(records):
                raise HistoryFormatError(
                    f"sim_id {rec.sim_id} out of order (expected {len(records)})",
                    line=lineno,
                )
            records.append(rec)
        # Sidecars written before the journal also counted the records.
        if "num_records" in meta and len(records) != meta["num_records"]:
            raise HistoryFormatError(
                f"metadata says {meta['num_records']} records, file has {len(records)}"
            )

        journal_path = path + JOURNAL_SUFFIX
        if os.path.exists(journal_path):
            with open(journal_path) as fh:
                lines = fh.read().split("\n")[:-1]
            for lineno, rec in cls._parse_rows(lines, 1, n_dims, journal_path):
                if 0 <= rec.sim_id < len(records):
                    records[rec.sim_id] = rec
                elif rec.sim_id == len(records):
                    records.append(rec)
                else:
                    raise HistoryFormatError(
                        f"sim_id {rec.sim_id} is not dense (expected at most "
                        f"{len(records)})", line=lineno, path=journal_path)
        for rec in records:
            hist.append(rec)
        return hist

    @classmethod
    def _parse_rows(cls, lines: list[str], first_lineno: int, n_dims: int,
                    path: str | None = None):
        """(line number, record) for each non-blank line."""
        ncols = 1 + n_dims + len(_SCALAR_COLS)
        for lineno, line in enumerate(lines, start=first_lineno):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != ncols:
                raise HistoryFormatError(
                    f"expected {ncols} columns, got {len(cells)}", line=lineno, path=path
                )
            try:
                rec = cls._parse_row(cells, n_dims)
            except (ValueError, TypeError) as exc:
                raise HistoryFormatError(str(exc), line=lineno, path=path) from exc
            yield lineno, rec

    @staticmethod
    def _parse_row(cells: list[str], n_dims: int) -> EnsembleRecord:
        x = np.array([float(c) for c in cells[1 : 1 + n_dims]])
        return EnsembleRecord(int(cells[0]), x, **{
            name: parse(cell) for (name, (_, parse)), cell
            in zip(_SPELL.items(), cells[1 + n_dims :])})


def _write_replace(path: str, text: str, stale: str | None = None) -> None:
    """Write text to path through a temp file and a rename, so a reader
    sees the old file or the new one, never a torn one. A stale file that
    the new one supersedes is removed just before the rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    if stale is not None:
        try:
            os.unlink(stale)
        except FileNotFoundError:
            pass
    os.replace(tmp, path)
