"""The columnar History against the record-list one it replaced
(tests/history_reference.py): the same operations give the same records,
field for field and type for type, the same indexes and the same bytes on
disk. Adoption and the generator's start batch copy columns, never
records."""

import math
import os

import numpy as np
import pytest

import dynens.history
import history_reference
from dynens.history import EnsembleRecord, GenPoint, History, HistoryError
from dynens.runtime import ExitCriteria, RunConfig
from dynens.runtime.manager import _Manager
from dynens.runtime.messages import RecordBatch, Tag, Work, WorkMsg

FIELDS = ("sim_id", "x", *dynens.history._SCALAR_COLS)
VALUES = [0.1, -0.0, 1e16, 1e-5, 5e-324, math.inf, 7.0, -2.5]
FILES = ("h.tsv", "h.tsv.journal", "h.tsv.meta.json")


def adopted(h, reference: bool):
    """The history a manager builds when it resumes h as H0; for the
    reference, as the record-list manager built it: a copy of each
    record appended, and the interrupted ones withdrawn."""
    if not reference:
        config = RunConfig(n_dims=h.n_dims, nworkers=1,
                           exit_criteria=ExitCriteria(sim_max=1))
        out = _Manager(config, None, None, None, h, None).history
    else:
        out = history_reference.History(h.n_dims)
        for rec in h:
            out.append(rec.copy())
            if rec.given and not rec.returned:
                out.withdraw([rec.sim_id])
    out.start_time = h.start_time  # so the two sidecars compare
    return out


def assert_same_record(got: EnsembleRecord, want: EnsembleRecord) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "x":
            assert a.dtype == np.float64 and np.array_equal(a, b), (got, want)
            continue
        assert type(a) is type(b), (name, got, want)
        assert a == b or (a != a and b != b), (name, got, want)


def assert_same_history(h: History, ref) -> None:
    assert len(h) == len(ref)
    assert h.returned_count() == ref.returned_count()
    best, want = h.best_f(), ref.best_f()
    assert type(best) is float and (best == want or (best != best and want != want))
    assert h.pending_ids() == [r.sim_id for r in ref.pending_sims()]
    records = list(h)
    assert len(records) == len(ref.records)
    for got, want in zip(records, ref.records):
        assert_same_record(got, want)
    if len(h):
        sid = len(h) // 2
        assert_same_record(h.get(sid), ref.get(sid))
        assert_same_record(h.records[sid:][0], ref.get(sid))
        for name in FIELDS[2:]:
            assert h.field(sid, name) == getattr(ref.get(sid), name) or (
                name == "f" and math.isnan(h.field(sid, name)))


def read_files(d) -> dict:
    out = {}
    for name in FILES:
        path = os.path.join(d, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def draw_op(rng: np.random.Generator, ref):
    """One seeded operation, its ids drawn mostly from the records of
    the reference history that it applies to, sometimes from anywhere."""
    kinds = ["submit", "given", "withdraw", "results", "cancel", "kill_sent",
             "journal", "dump", "load", "adopt"]
    weights = np.array([14, 20, 4, 20, 7, 6, 10, 3, 3, 2], dtype=float)
    kind = kinds[rng.choice(len(kinds), p=weights / weights.sum())]
    if kind == "submit":
        return kind, [dict(x=[VALUES[int(rng.integers(len(VALUES)))],
                              float(rng.normal())],
                           priority=float(rng.integers(3)),
                           num_procs=int(rng.integers(3)),
                           num_gpus=int(rng.integers(2)))
                      for _ in range(int(rng.integers(1, 7)))], int(rng.integers(4))
    if kind not in ("given", "withdraw", "results", "cancel", "kill_sent"):
        return (kind,)
    fits = {"given": lambda r: not r.given,
            "withdraw": lambda r: r.given and not r.returned,
            "results": lambda r: r.given and not r.returned,
            "cancel": lambda r: not r.returned,
            "kill_sent": lambda r: r.cancel_requested}[kind]
    pool = [r.sim_id for r in ref.records if fits(r)]
    ids = []
    for _ in range(int(rng.integers(1, 4))):
        if pool and rng.random() < 0.9:
            ids.append(pool[int(rng.integers(len(pool)))])
        else:
            ids.append(int(rng.integers(-1, len(ref) + 2)))
    if kind == "given":
        return kind, ids, int(rng.integers(1, 5)), float(rng.uniform(0, 9))
    if kind == "results":
        fvals = [math.nan if rng.random() < 0.15 else
                 VALUES[int(rng.integers(len(VALUES)))] if rng.random() < 0.3
                 else float(rng.normal()) for _ in ids]
        return kind, list(zip(ids, fvals)), float(rng.uniform(0, 9))
    return kind, ids


def apply(h, op, d):
    """Apply op to h; returns (h after it, what the op returned or the
    error it raised)."""
    kind = op[0]
    try:
        if kind == "submit":
            return h, h.submit_points([GenPoint(**p) for p in op[1]], gen_worker=op[2])
        if kind == "given":
            return h, h.mark_given(op[1], sim_worker=op[2], given_time=op[3])
        if kind == "withdraw":
            return h, h.withdraw(op[1])
        if kind == "results":
            return h, h.update_with_results(op[1], returned_time=op[2])
        if kind == "cancel":
            return h, h.mark_cancel(op[1])
        if kind == "kill_sent":
            return h, h.mark_kill_sent(op[1])
        if kind in ("journal", "dump"):
            return h, h.dump(os.path.join(d, "h.tsv"), journal=kind == "journal")
        if kind == "load":
            h.dump(os.path.join(d, "h.tsv"), journal=True)
            return type(h).load(os.path.join(d, "h.tsv")), None
        return adopted(h, isinstance(h, history_reference.History)), None
    except HistoryError as exc:
        return h, str(exc)


@pytest.mark.parametrize("block", range(4))
def test_seeded_operations_match_the_record_list_history(tmp_path, block):
    """50 seeds per block, 200 in all: after every operation the two
    histories agree on what it returned or raised, on every file written,
    and, every few operations and at the end, on every record, field and
    type, the pending order, the returned count and best f."""
    for seed in range(50 * block, 50 * (block + 1)):
        rng = np.random.default_rng(seed)
        h = History(2, start_time=17.25)
        ref = history_reference.History(2, start_time=17.25)
        dirs = tmp_path / f"s{seed}-col", tmp_path / f"s{seed}-ref"
        for d in dirs:
            d.mkdir()
        for step in range(int(rng.integers(20, 80))):
            op = draw_op(rng, ref)
            h, got = apply(h, op, str(dirs[0]))
            ref, want = apply(ref, op, str(dirs[1]))
            assert got == want, (seed, step, op)
            assert read_files(dirs[0]) == read_files(dirs[1]), (seed, step, op)
            if step % 7 == 0:
                assert_same_history(h, ref)
        assert_same_history(h, ref)
        h.dump(str(dirs[0] / "h.tsv"))
        ref.dump(str(dirs[1] / "h.tsv"))
        assert read_files(dirs[0]) == read_files(dirs[1]), seed


def counting_format(monkeypatch) -> list[int]:
    """Patch _format_rows to count the rows each call formats."""
    counts = []
    real = dynens.history._format_rows

    def counting(history, ids):
        counts.append(len(ids))
        return real(history, ids)

    monkeypatch.setattr(dynens.history, "_format_rows", counting)
    return counts


def grown_history(n: int, interrupted: int = 0) -> History:
    """n records from generator worker 1, all given and all but the last
    `interrupted` returned."""
    rng = np.random.default_rng(n)
    h = History(2, start_time=3.5)
    ids = h.submit_points([GenPoint(x, priority=float(i % 3))
                           for i, x in enumerate(rng.uniform(-1, 1, (n, 2)))], 1)
    h.mark_given(ids, sim_worker=2, given_time=0.25)
    h.update_with_results([(sid, float(rng.normal())) for sid in ids[:n - interrupted]],
                          returned_time=0.5)
    return h


def test_dump_load_dump_formats_no_row(tmp_path, monkeypatch):
    """A loaded history keeps each line it read as its dump row, so
    writing it again formats nothing and writes the same bytes."""
    h = grown_history(1200, interrupted=5)
    first = str(tmp_path / "first.tsv")
    h.dump(first, journal=True)
    h.mark_cancel([3])
    h.dump(first, journal=True)  # record 3's last line is in the journal
    counts = counting_format(monkeypatch)
    loaded = History.load(first)
    again = str(tmp_path / "again.tsv")
    loaded.dump(again)
    assert counts == [0]
    h.dump(first)
    with open(first, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_resumed_first_write_formats_only_changed_rows(tmp_path, monkeypatch):
    """Adopting a loaded history carries its rows: the resumed run's
    first full write formats only the interrupted records it withdrew,
    and writes what the reference writer would."""
    path = str(tmp_path / "h.tsv")
    grown_history(800, interrupted=6).dump(path)
    loaded = History.load(path)
    counts = counting_format(monkeypatch)
    resumed = adopted(loaded, reference=False)
    resumed.dump(str(tmp_path / "resumed.tsv"))
    assert counts == [6]
    ref = adopted(history_reference.History.load(path), reference=True)
    ref.dump(str(tmp_path / "ref.tsv"))
    with open(tmp_path / "resumed.tsv", "rb") as a, open(tmp_path / "ref.tsv", "rb") as b:
        assert a.read() == b.read()


def test_adoption_and_start_batch_build_no_record(monkeypatch):
    """Counts, not timings: adopting a 5000-record H0 and sending the
    generator its start batch construct no EnsembleRecord and call
    neither EnsembleRecord.copy nor History.append."""
    H0 = grown_history(5000, interrupted=10)
    calls = {"init": 0, "copy": 0, "append": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(EnsembleRecord, "__init__",
                        counted("init", EnsembleRecord.__init__))
    monkeypatch.setattr(EnsembleRecord, "copy", counted("copy", EnsembleRecord.copy))
    monkeypatch.setattr(History, "append", counted("append", History.append))

    class Sent(list):
        put = list.append

    config = RunConfig(n_dims=2, nworkers=3, exit_criteria=ExitCriteria(sim_max=6000))
    manager = _Manager(config, None, None, None, H0, None)
    manager.inboxes[1] = sent = Sent()
    manager._execute(Work(target_worker=1, tag=Tag.EVAL_GEN, persistent=True))
    assert calls == {"init": 0, "copy": 0, "append": 0}

    (msg,) = sent
    assert isinstance(msg, WorkMsg) and isinstance(msg.batch, RecordBatch)
    assert msg.batch.sim_ids.tolist() == list(range(5000))
    assert sum(msg.batch.returned) == 4990 == manager.history.returned_count()
    assert manager.history.pending_ids()[:3] == sorted(
        range(4990, 5000), key=lambda sid: (-(sid % 3), sid))[:3]


def test_records_are_copies():
    h = grown_history(4)
    rec = h.get(1)
    rec.priority, rec.x[0], rec.given = 99.0, 42.0, False
    for got in (h.get(1), h.records[1], list(h)[1]):
        assert got.priority == 1.0 and got.x[0] != 42.0 and got.given
    (x,) = h.columns("x", ids=[1])
    x[0, 0] = 42.0
    assert h.get(1).x[0] != 42.0
    for ids in ([3, 4], [2, 0, 4], [-1]):
        with pytest.raises(HistoryError, match="not all in a history of 4"):
            h.columns("f", ids=ids)
