"""Evaluation history: the record table an ensemble run accumulates.

Every proposed point becomes one record with a dense, append-ordered sim_id.
Flags only ever go False -> True, except that History.withdraw clears
`given` on a record that never started; timestamps are seconds since the
run started.
The on-disk format is a tab-separated table plus a small JSON sidecar, built to
be greppable mid-run and to round-trip exactly. A running ensemble writes the
full table at its first dump and at its end; the dumps in between append the
rows that changed to a journal beside the table, which History.load folds
over it. The sidecar holds only per-run constants, so it never disagrees with
the table, and a crash at any point leaves files that load as an earlier dump.

A History keeps its records as numpy columns that grow geometrically: x is
one (capacity x n_dims) float64 block and every other field one array. One
codec, _SPELL, spells each column's stored values as cells and parses them
back, so dump and load touch stored values only; a field with no value
stores its column's absent value (NaN for a time, -1 for sim_worker).
Records exist only at the API boundary: append, like mark_given and
update_with_results, refuses a stored absent value, which would read back
as None; get, field, iteration, records and pending_sims decode copies,
so changing one leaves the history as it was. Records change only
through History's write methods and append,
which keep the running indexes (returned count, best f, pending ids) and
the cached dump rows current. Bulk readers (adoption, the batches sent to
workers, the allocator's scans, dump) copy whole columns.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple

import numpy as np

FORMAT_VERSION = 1
JOURNAL_SUFFIX = ".journal"


class HistoryError(Exception):
    """Contract violation on a history operation."""


class HistoryFormatError(HistoryError):
    """Malformed dump file; carries the 1-based line number when known,
    and the file's path when it is the journal."""

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


@dataclass
class GenPoint:
    """One point proposed for evaluation by a generator.

    priority steers dispatch order; num_procs/num_gpus are resource requests
    (0 means unspecified). The history assigns the sim_id.
    """

    x: np.ndarray
    priority: float = 0.0
    num_procs: int = 0
    num_gpus: int = 0

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


def _floats(col) -> list[str]:
    return list(map(repr, col))


def _ints(col) -> list[str]:
    return list(map(str, col))


def _flags(col) -> list[str]:
    return ["1" if v else "0" for v in col]


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"bad boolean cell {cell!r}")
    return cell == "1"


class _Column(NamedTuple):
    spell: Callable        # a column's stored values, as a list -> its cells
    parse: Callable        # one cell -> its stored value
    dtype: type            # of the History column
    absent: object = None  # the stored value a record reads as None, if any

    def holds_none(self, value) -> bool:
        """Whether value is the absent one, which reads back as None."""
        return self.absent is not None and (value != value or value == self.absent)


def _optional(spell_one: Callable, parse_one: Callable, dtype: type,
              absent) -> _Column:
    """A column whose field may hold None: stored as absent (NaN or an int,
    so `v != v or v == absent` finds it), spelled '-'. A cell that parses
    to absent itself is refused, since it would load as no value."""
    def spell(col):
        return ["-" if v != v or v == absent else spell_one(v) for v in col]

    def parse(cell):
        if cell == "-":
            return absent
        value = parse_one(cell)
        if value != value or value == absent:
            raise ValueError(f"cell {cell!r} would load as no value, "
                             "which is spelled '-'")
        return value

    return _Column(spell, parse, dtype, absent)


# The history's one codec: the scalar columns after the x block, in on-disk
# and EnsembleRecord field order, each with how a list of its stored values
# is spelled as cells, how one cell is parsed back to a stored value and the
# dtype History stores it in: floats by repr (exact round-trip, NaN as
# 'nan'), ints by str, flags as 1/0 and a stored absent value as '-'.
_SPELL = {
    "f": _Column(_floats, float, np.float64),
    "priority": _Column(_floats, float, np.float64),
    "num_procs": _Column(_ints, int, np.int64),
    "num_gpus": _Column(_ints, int, np.int64),
    "gen_worker": _Column(_ints, int, np.int64),
    "sim_worker": _optional(str, int, np.int64, -1),
    "given": _Column(_flags, _flag, np.bool_),
    "returned": _Column(_flags, _flag, np.bool_),
    "cancel_requested": _Column(_flags, _flag, np.bool_),
    "kill_sent": _Column(_flags, _flag, np.bool_),
    "given_time": _optional(repr, float, np.float64, math.nan),
    "returned_time": _optional(repr, float, np.float64, math.nan),
}
_SCALAR_COLS = tuple(_SPELL)
# A new record's stored values: EnsembleRecord's defaults.
_DEFAULTS = {fld.name: _SPELL[fld.name].absent if fld.default is None else fld.default
             for fld in fields(EnsembleRecord) if fld.name in _SPELL}

# Records formatted together; bounds the temporary column lists.
_FORMAT_CHUNK = 512


def _decode(col: _Column, values: list) -> list:
    """A column's stored values, as a list, with None where absent."""
    if col.absent is None:
        return values
    return [None if v != v or v == col.absent else v for v in values]


def _format_rows(history: "History", ids: Sequence[int]) -> list[str]:
    """Records ids of history as their dump lines, without the newline.

    Built a column at a time over chunks of ids, straight from the stored
    values: x cells are the repr of each coordinate as a Python float, the
    other cells as _SPELL spells them.
    """
    rows: list[str] = []
    for start in range(0, len(ids), _FORMAT_CHUNK):
        chunk = ids[start:start + _FORMAT_CHUNK]
        x, *scalars = history.columns("x", *_SPELL, ids=chunk)
        cols = [list(map(str, chunk))]
        cols += map(_floats, x.T.tolist())
        cols += (c.spell(col.tolist()) for c, col in zip(_SPELL.values(), scalars))
        rows += map("\t".join, zip(*cols))
    return rows


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


class Records(Sequence):
    """Some records of a History, in order, as EnsembleRecord copies read
    from its columns when indexed or iterated; a slice is another
    Records."""

    def __init__(self, history: "History", ids: Sequence[int]):
        self._history = history
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._history, self._ids[i])
        return self._history.get(self._ids[i])

    def __iter__(self):
        for start in range(0, len(self._ids), _FORMAT_CHUNK):
            yield from self._history._records(self._ids[start:start + _FORMAT_CHUNK])


class History:
    """Ordered evaluation records, kept as columns, plus the run's start
    time."""

    def __init__(self, n_dims: int, start_time: float | None = None):
        if n_dims < 1:
            raise HistoryError(f"n_dims must be >= 1, got {n_dims}")
        self.n_dims = n_dims
        self.start_time = time.time() if start_time is None else start_time
        # Rows [0, _n) of the columns hold the records; the rest is room.
        self._n = 0
        self._x = np.empty((0, n_dims))
        self._cols = {name: np.empty(0, c.dtype) for name, c in _SPELL.items()}
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
        return self._n

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> Records:
        """Every record so far, as copies read on access."""
        return Records(self, range(self._n))

    def get(self, sim_id: int) -> EnsembleRecord:
        """A copy of record sim_id."""
        return EnsembleRecord(sim_id, self.field(sim_id, "x"),
                              *(self.field(sim_id, name) for name in _SPELL))

    def field(self, sim_id: int, name: str):
        """One field of record sim_id, as get(sim_id) would hold it,
        without building the record."""
        self._check(sim_id)
        if name == "x":
            return self._x[sim_id].copy()
        value = self._cols[name].item(sim_id)
        return None if _SPELL[name].holds_none(value) else value

    def columns(self, *names: str, ids: Sequence[int] | None = None) -> list[np.ndarray]:
        """Copies of the named columns over ids (which must name records
        of this history), or over every record: "x" is the
        (len(ids), n_dims) block, any other name the stored field, with
        its column's absent value (_SPELL) where a record holds None."""
        sel = self._selection(ids)
        out = []
        for name in names:
            col = (self._x if name == "x" else self._cols[name])[sel]
            out.append(col.copy() if isinstance(sel, slice) else col)
        return out

    def _selection(self, ids: Sequence[int] | None):
        """ids as a numpy index into the columns: a slice when they are
        consecutive, as a manager's packs and forwards mostly are."""
        if ids is None:
            return slice(0, self._n)
        if not len(ids):
            return slice(0, 0)
        consecutive = ((isinstance(ids, range) and ids.step == 1)
                       or all(b == a + 1 for a, b in zip(ids, ids[1:])))
        lo, hi = (ids[0], ids[-1]) if consecutive else (min(ids), max(ids))
        if not 0 <= lo <= hi < self._n:
            raise HistoryError(f"sim_ids {lo} to {hi} are not all in a history "
                               f"of {self._n} records")
        return slice(lo, hi + 1) if consecutive else np.asarray(ids, dtype=np.intp)

    def _check(self, sim_id: int) -> None:
        if not 0 <= sim_id < self._n:
            raise HistoryError(f"unknown sim_id {sim_id} (history has {self._n} records)")

    def _records(self, ids: Sequence[int]) -> list[EnsembleRecord]:
        x, *scalars = self.columns("x", *_SPELL, ids=ids)
        return [EnsembleRecord(*values) for values in zip(ids, x, *(
            _decode(c, col.tolist()) for c, col in zip(_SPELL.values(), scalars)))]

    # -- writes ----------------------------------------------------------

    def _reserve(self, k: int) -> None:
        """Room for k more records, doubling the columns as needed. The
        room holds EnsembleRecord's defaults, so a new record writes only
        the fields that differ."""
        n, cap = self._n, len(self._x)
        if n + k <= cap:
            return
        cap = max(n + k, 2 * cap, 64)
        x = np.empty((cap, self.n_dims))
        x[:n] = self._x[:n]
        self._x = x
        for name, old in self._cols.items():
            col = np.full(cap, _DEFAULTS[name], old.dtype)
            col[:n] = old[:n]
            self._cols[name] = col

    def submit_points(self, points: Sequence[GenPoint], gen_worker: int) -> list[int]:
        """Append one record per point; returns the assigned sim_ids."""
        # Validate the whole batch before touching the table.
        for i, p in enumerate(points):
            if p.x.shape != (self.n_dims,):
                raise HistoryError(
                    f"point {i}: x has shape {p.x.shape}, expected ({self.n_dims},)"
                )
        if not points:
            return []
        self._reserve(len(points))
        new = slice(self._n, self._n + len(points))
        self._x[new] = [p.x for p in points]
        c = self._cols
        c["priority"][new] = [p.priority for p in points]
        c["num_procs"][new] = [int(p.num_procs) for p in points]
        c["num_gpus"][new] = [int(p.num_gpus) for p in points]
        c["gen_worker"][new] = gen_worker
        ids = range(new.start, new.stop)
        self._n = new.stop
        self._rows += [None] * len(points)
        self._pending.update(ids)
        return list(ids)

    def append(self, rec: EnsembleRecord) -> None:
        """Append a copy of a record's values as the next sim_id; rec
        itself is not kept. Floats are stored as float64, so numpy float
        cells dump as Python floats do. A value the columns cannot keep is
        refused before any is written: None in a field with no absent
        value, or a stored absent value (a NaN time, sim_worker -1), which
        would read back as None."""
        if rec.sim_id != self._n:
            raise HistoryError(
                f"appended sim_id {rec.sim_id} != next id {self._n}")
        if rec.x.shape != (self.n_dims,):
            raise HistoryError(
                f"appended x has shape {rec.x.shape}, expected ({self.n_dims},)")
        stored = []
        for name, c in _SPELL.items():
            value = getattr(rec, name)
            if value is None:
                if c.absent is None:
                    raise HistoryError(f"appended {name} is None, which its column "
                                       "cannot store")
                value = c.absent
            elif c.holds_none(value):
                raise HistoryError(f"appended {name}={value!r} would read back "
                                   "as None; pass None for no value")
            stored.append(value)
        self._reserve(1)
        sid = self._n
        self._x[sid] = rec.x
        for name, value in zip(_SPELL, stored):
            self._cols[name][sid] = value
        self._n += 1
        self._rows.append(None)
        if rec.returned:
            self._returned += 1
            self._note_f(float(rec.f))
        if not rec.given and not rec.cancel_requested:
            self._pending.add(sid)

    def adopt(self, other: "History") -> None:
        """Copy every record of other into this empty history, column by
        column, with other's indexes and cached dump rows: a row on disk
        is not formatted again."""
        if self._n:
            raise HistoryError(f"adopting into a history of {self._n} records")
        if other.n_dims != self.n_dims:
            raise HistoryError(f"adopted history has {other.n_dims} dims, "
                               f"expected {self.n_dims}")
        n = other._n
        self._reserve(n)
        self._x[:n] = other._x[:n]
        for name, col in self._cols.items():
            col[:n] = other._cols[name][:n]
        self._n = n
        self._returned, self._best_f = other._returned, other._best_f
        self._pending = set(other._pending)
        self._rows = other._rows.copy()
        self._changed = other._changed.copy()
        self._dumped = other._dumped

    def _note_f(self, f: float) -> None:
        if not math.isnan(f) and (math.isnan(self._best_f) or f < self._best_f):
            self._best_f = f

    def mark_given(self, sim_ids: Iterable[int], sim_worker: int, given_time: float) -> None:
        if (_SPELL["sim_worker"].holds_none(sim_worker)
                or _SPELL["given_time"].holds_none(given_time)):
            raise HistoryError(f"given with sim_worker={sim_worker!r} and given_time="
                               f"{given_time!r}, which would read back as None")
        c, n, rows = self._cols, self._n, self._rows
        given, worker, times = c["given"], c["sim_worker"], c["given_time"]
        for sid in sim_ids:
            if not 0 <= sid < n:
                self._check(sid)
            if given[sid]:
                raise HistoryError(f"sim_id {sid} already given")
            given[sid] = True
            worker[sid] = sim_worker
            times[sid] = given_time
            self._pending.discard(sid)
            if rows[sid] is not None:
                self._touch(sid)

    def withdraw(self, sim_ids: Iterable[int]) -> None:
        """Take back given records that never started: no worker, no given
        time, and pending again unless cancelled."""
        c = self._cols
        for sid in sim_ids:
            self._check(sid)
            if c["returned"][sid]:
                raise HistoryError(f"sim_id {sid} withdrawn after it returned")
            c["given"][sid] = False
            c["sim_worker"][sid] = _SPELL["sim_worker"].absent
            c["given_time"][sid] = _SPELL["given_time"].absent
            if not c["cancel_requested"][sid]:
                self._pending.add(sid)
            self._touch(sid)

    def update_with_results(self, results: Iterable[tuple[int, float]], returned_time: float) -> None:
        """Record f for sim_ids that were given and have not yet returned."""
        if _SPELL["returned_time"].holds_none(returned_time):
            raise HistoryError(f"returned with returned_time={returned_time!r}, "
                               "which would read back as None")
        c, n, rows = self._cols, self._n, self._rows
        f, given, returned, times = c["f"], c["given"], c["returned"], c["returned_time"]
        for sid, fval in results:
            if not 0 <= sid < n:
                self._check(sid)
            if not given[sid]:
                raise HistoryError(f"sim_id {sid} returned a result but was never given")
            if returned[sid]:
                raise HistoryError(f"sim_id {sid} returned twice")
            fval = float(fval)
            f[sid] = fval
            returned[sid] = True
            times[sid] = returned_time
            self._returned += 1
            self._note_f(fval)
            if rows[sid] is not None:
                self._touch(sid)

    def mark_cancel(self, sim_ids: Iterable[int]) -> list[int]:
        """Set cancel_requested; returns the subset currently running.

        Running means given and not returned: those need a kill signal, on
        which the caller sets kill_sent after dispatching.
        """
        c = self._cols
        running = []
        for sid in sim_ids:
            self._check(sid)
            c["cancel_requested"][sid] = True
            self._pending.discard(sid)
            self._touch(sid)
            if c["given"][sid] and not c["returned"][sid]:
                running.append(sid)
        return running

    def mark_kill_sent(self, sim_ids: Iterable[int]) -> None:
        c = self._cols
        for sid in sim_ids:
            self._check(sid)
            if not c["cancel_requested"][sid]:
                raise HistoryError(f"kill_sent without cancel_requested on sim_id {sid}")
            c["kill_sent"][sid] = True
            self._touch(sid)

    def _touch(self, sid: int) -> None:
        """Note that record sid changed, for the cached row and the next dump."""
        if self._rows[sid] is not None:
            self._rows[sid] = None
            self._changed.append(sid)

    # -- queries ---------------------------------------------------------

    def pending_ids(self) -> list[int]:
        """Ids of the dispatchable records: not given, not cancelled;
        highest priority first, ties by lowest sim_id."""
        # Stable, so equal priorities stay in sim_id order. One scalar
        # read per id: numpy's sorting machinery costs more than this on
        # the short lists a manager cycle sorts.
        ids = sorted(self._pending)
        ids.sort(key=self._cols["priority"].item, reverse=True)
        return ids

    def pending_sims(self) -> list[EnsembleRecord]:
        """The dispatchable records, in pending_ids order."""
        return self._records(self.pending_ids())

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

        Cells are spelled as _SPELL says. Only rows changed since the
        last dump, or since the line load read, are formatted again.

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
        ids += range(self._dumped, self._n)
        rows = _format_rows(self, ids)
        for sid, row in zip(ids, rows):
            self._rows[sid] = row
        self._changed = []
        self._dumped = self._n
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
        line without its newline is a torn write and is ignored. That last
        line is kept as the record's dump row until the record changes.
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
        values: list[list] = []  # per record: sim_id, x cells, scalar cells
        lines: list[str] = []
        for lineno, line, cells in cls._parse_rows(raw_lines[1:], 2, n_dims):
            if cells[0] != len(values):
                raise HistoryFormatError(
                    f"sim_id {cells[0]} out of order (expected {len(values)})",
                    line=lineno,
                )
            values.append(cells)
            lines.append(line)
        # Sidecars written before the journal also counted the records.
        if "num_records" in meta and len(values) != meta["num_records"]:
            raise HistoryFormatError(
                f"metadata says {meta['num_records']} records, file has {len(values)}"
            )

        journal_path = path + JOURNAL_SUFFIX
        if os.path.exists(journal_path):
            with open(journal_path) as fh:
                journal = fh.read().split("\n")[:-1]
            for lineno, line, cells in cls._parse_rows(journal, 1, n_dims, journal_path):
                sid = cells[0]
                if 0 <= sid < len(values):
                    values[sid], lines[sid] = cells, line
                elif sid == len(values):
                    values.append(cells)
                    lines.append(line)
                else:
                    raise HistoryFormatError(
                        f"sim_id {sid} is not dense (expected at most "
                        f"{len(values)})", line=lineno, path=journal_path)
        hist._fill(values, lines)
        return hist

    def _fill(self, values: list[list], lines: list[str]) -> None:
        """Set this empty history's columns from parsed rows of stored
        values, each with the line it was read from as its dump row."""
        n = len(values)
        self._reserve(n)
        if n:
            cols = list(zip(*values))
            self._x[:n] = np.array(cols[1:1 + self.n_dims], dtype=float).T
            for name, col in zip(_SPELL, cols[1 + self.n_dims:]):
                self._cols[name][:n] = col
        self._n = n
        self._rows, self._dumped = lines, n
        f, returned, given, cancelled = self.columns(
            "f", "returned", "given", "cancel_requested")
        self._returned = int(returned.sum())
        finite = f[returned & ~np.isnan(f)]
        self._best_f = float(finite.min()) if finite.size else math.nan
        self._pending = set(np.flatnonzero(~given & ~cancelled).tolist())

    @classmethod
    def _parse_rows(cls, lines: list[str], first_lineno: int, n_dims: int,
                    path: str | None = None):
        """(line number, line, parsed cells) for each non-blank line."""
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
                parsed = cls._parse_row(cells, n_dims)
            except (ValueError, TypeError) as exc:
                raise HistoryFormatError(str(exc), line=lineno, path=path) from exc
            yield lineno, line, parsed

    @staticmethod
    def _parse_row(cells: list[str], n_dims: int) -> list:
        """sim_id, the x coordinates and the stored scalars of one line."""
        return [int(cells[0]), *map(float, cells[1:1 + n_dims]), *(
            c.parse(cell) for c, cell in zip(_SPELL.values(), cells[1 + n_dims:]))]


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


def histories_equal(a: History, b: History, include_times: bool = False) -> bool:
    if a.n_dims != b.n_dims or len(a) != len(b):
        return False
    return all(records_equal(ra, rb, include_times) for ra, rb in zip(a, b))
