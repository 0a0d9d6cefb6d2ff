"""History table: ids, flags, ordering, persistence round-trip."""

import copy
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynens.history
from dynens.history import (
    EnsembleRecord,
    GenPoint,
    History,
    HistoryError,
    HistoryFormatError,
    histories_equal,
    records_equal,
)
from dynens.runtime import ExitCriteria, RunConfig
from dynens.runtime.manager import _Manager


def make_history(n_points=5, n_dims=2, seed=0):
    rng = np.random.default_rng(seed)
    h = History(n_dims, start_time=123.0)
    pts = [GenPoint(x=rng.uniform(-1, 1, n_dims), priority=float(rng.integers(0, 3)))
           for _ in range(n_points)]
    h.submit_points(pts, gen_worker=1)
    return h


class TestSubmit:
    def test_ids_dense_and_ordered(self):
        h = make_history(7)
        assert [r.sim_id for r in h] == list(range(7))

    def test_bad_point_rejects_whole_batch(self):
        h = make_history(3)
        pts = [GenPoint(x=[0.0, 0.0]), GenPoint(x=[0.0])]
        with pytest.raises(HistoryError, match="point 1"):
            h.submit_points(pts, gen_worker=1)
        assert len(h) == 3

    def test_wrong_dimension_rejected(self):
        h = History(2)
        with pytest.raises(HistoryError, match="shape"):
            h.submit_points([GenPoint(x=[1.0, 2.0, 3.0])], gen_worker=1)

    def test_new_records_start_clean(self):
        h = make_history(1)
        r = h.get(0)
        assert not r.given and not r.returned
        assert not r.cancel_requested and not r.kill_sent
        assert math.isnan(r.f)
        assert r.sim_worker is None and r.given_time is None


class TestUpdate:
    def test_roundtrip_of_result(self):
        h = make_history(2)
        h.mark_given([0], sim_worker=3, given_time=1.0)
        h.update_with_results([(0, 5.5)], returned_time=2.0)
        r = h.get(0)
        assert r.returned and r.f == 5.5
        assert r.sim_worker == 3 and r.given_time == 1.0 and r.returned_time == 2.0

    def test_unknown_id_rejected(self):
        h = make_history(2)
        with pytest.raises(HistoryError, match="unknown sim_id 9"):
            h.update_with_results([(9, 0.0)], returned_time=0.0)

    def test_result_without_dispatch_rejected(self):
        h = make_history(2)
        with pytest.raises(HistoryError, match="never given"):
            h.update_with_results([(0, 0.0)], returned_time=0.0)

    def test_double_return_rejected(self):
        h = make_history(2)
        h.mark_given([0], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0)], returned_time=1.0)
        with pytest.raises(HistoryError, match="twice"):
            h.update_with_results([(0, 2.0)], returned_time=2.0)

    def test_double_given_rejected(self):
        h = make_history(2)
        h.mark_given([1], sim_worker=2, given_time=0.0)
        with pytest.raises(HistoryError, match="already given"):
            h.mark_given([1], sim_worker=3, given_time=1.0)


class TestPendingOrder:
    def brute_force(self, h):
        # Independent restatement of the contract: highest priority first,
        # ties by insertion id; given or cancelled records never appear.
        out = [r for r in h.records if not r.given and not r.cancel_requested]
        return [r.sim_id for r in
                sorted(out, key=lambda r: (-r.priority, r.sim_id))]

    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0]),  # priority
                              st.integers(0, 2)),                # 0 pend, 1 given, 2 cancel
                    max_size=30),
           st.randoms(use_true_random=False))
    def test_matches_brute_force(self, spec, rnd):
        h = History(1)
        pts = [GenPoint(x=[0.0], priority=pri) for pri, _ in spec]
        h.submit_points(pts, gen_worker=1)
        for sid, (_, state) in enumerate(spec):
            if state == 1:
                h.mark_given([sid], sim_worker=2, given_time=0.0)
            elif state == 2:
                h.mark_cancel([sid])
        assert [r.sim_id for r in h.pending_sims()] == self.brute_force(h)

    def test_example_priority_order(self):
        h = History(1)
        h.submit_points([GenPoint(x=[0.0], priority=0.0),
                         GenPoint(x=[1.0], priority=5.0),
                         GenPoint(x=[2.0], priority=5.0)], gen_worker=1)
        assert [r.sim_id for r in h.pending_sims()] == [1, 2, 0]


class TestCancel:
    def test_cancel_before_dispatch_never_runs(self):
        h = make_history(3)
        assert h.mark_cancel([1]) == []  # nothing running, no kill needed
        assert all(r.sim_id != 1 for r in h.pending_sims())

    def test_cancel_while_running_requests_kill(self):
        h = make_history(3)
        h.mark_given([0, 1], sim_worker=2, given_time=0.0)
        h.update_with_results([(1, 0.5)], returned_time=1.0)
        assert h.mark_cancel([0, 1, 2]) == [0]  # only the running one
        h.mark_kill_sent([0])
        assert h.get(0).kill_sent and h.get(1).cancel_requested

    def test_kill_sent_requires_cancel(self):
        h = make_history(1)
        with pytest.raises(HistoryError, match="without cancel_requested"):
            h.mark_kill_sent([0])

    def test_cancel_idempotent(self):
        h = make_history(1)
        h.mark_cancel([0])
        h.mark_cancel([0])
        assert h.get(0).cancel_requested

    def test_killed_sim_may_still_return(self):
        h = make_history(1)
        h.mark_given([0], sim_worker=2, given_time=0.0)
        h.mark_cancel([0])
        h.mark_kill_sent([0])
        h.update_with_results([(0, math.nan)], returned_time=1.0)
        r = h.get(0)
        assert r.returned and math.isnan(r.f) and r.kill_sent

    def test_withdrawn_cancelled_record_never_runs(self):
        h = make_history(2)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        h.mark_kill_sent(h.mark_cancel([1]))
        h.withdraw([1])
        r = h.get(1)
        assert not r.given and r.sim_worker is None and r.given_time is None
        assert r.cancel_requested and not r.returned
        assert [p.sim_id for p in h.pending_sims()] == []

    def test_withdrawn_uncancelled_record_is_pending_again(self):
        h = make_history(2)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        h.withdraw([0])
        assert [p.sim_id for p in h.pending_sims()] == [0]
        h.mark_given([0], sim_worker=3, given_time=1.0)
        assert h.get(0).sim_worker == 3

    def test_withdraw_after_return_rejected(self):
        h = make_history(1)
        h.mark_given([0], sim_worker=2, given_time=0.0)
        h.update_with_results([(0, 1.0)], returned_time=1.0)
        with pytest.raises(HistoryError, match="after it returned"):
            h.withdraw([0])


class TestFlagMonotonicity:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=60))
    @settings(max_examples=50)
    def test_random_walk_never_clears_flags(self, ops):
        h = make_history(10)
        seen = {sid: [False] * 4 for sid in range(10)}

        def snapshot():
            for r in h:
                flags = [r.given, r.returned, r.cancel_requested, r.kill_sent]
                for i, (old, new) in enumerate(zip(seen[r.sim_id], flags)):
                    assert not (old and not new), "flag went True -> False"
                    seen[r.sim_id][i] = new

        for op, sid in ops:
            r = h.get(sid)
            try:
                if op == 0:
                    h.mark_given([sid], sim_worker=2, given_time=0.0)
                elif op == 1:
                    h.update_with_results([(sid, 1.0)], returned_time=0.0)
                elif op == 2:
                    h.mark_cancel([sid])
                elif op == 3:
                    h.mark_kill_sent([sid])
                else:
                    h.submit_points([GenPoint(x=[0.0, 0.0])], gen_worker=1)
                    seen[len(h) - 1] = [False] * 4
            except HistoryError:
                pass
            snapshot()
        assert [r.sim_id for r in h] == list(range(len(h)))


floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


REFERENCE_COLS = ("f", "priority", "num_procs", "num_gpus", "gen_worker", "sim_worker",
                  "given", "returned", "cancel_requested", "kill_sent", "given_time",
                  "returned_time")


def reference_format_row(rec: EnsembleRecord) -> str:
    """One record as its dump line, spelled a cell at a time: the writer
    the column formatter replaced, kept as the reference it must match
    byte for byte."""
    row = [str(rec.sim_id)]
    row += [repr(float(v)) for v in rec.x]
    for col in REFERENCE_COLS:
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


def reference_table(h: History) -> str:
    """The bytes of h's full table as the reference writer spells it."""
    header = ["sim_id", *(f"x{d}" for d in range(h.n_dims)), *REFERENCE_COLS]
    rows = [reference_format_row(r) for r in h.records]
    return "\n".join(["\t".join(header), *rows]) + "\n"


def adopt(h: History) -> History:
    """The history a manager builds when it resumes h as H0."""
    config = RunConfig(n_dims=h.n_dims, nworkers=1,
                       exit_criteria=ExitCriteria(sim_max=1))
    return _Manager(config, None, None, None, h, None).history


index_ops = st.one_of(
    st.tuples(st.just("submit"), st.integers(1, 4), st.sampled_from([0.0, 1.0, 2.0])),
    st.tuples(st.sampled_from(["given", "cancel", "kill", "withdraw"]),
              st.integers(0, 40)),
    st.tuples(st.just("result"), st.integers(0, 40),
              st.one_of(st.just(math.nan), st.floats(-5, 5))),
    st.tuples(st.sampled_from(["dump", "adopt", "load"])),
)


class TestIndexes:
    """The running indexes and cached dump rows against from-scratch scans."""

    @given(st.lists(index_ops, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_indexes_match_scans(self, ops):
        import os, tempfile
        h = History(2, start_time=5.5)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "h.tsv")
            for op in ops:
                sid = op[1] % len(h) if len(op) > 1 and len(h) else 0
                try:
                    if op[0] == "submit":
                        h.submit_points([GenPoint(x=[float(k), 0.5], priority=op[2])
                                         for k in range(op[1])], gen_worker=1)
                    elif op[0] == "given":
                        h.mark_given([sid], sim_worker=2, given_time=0.25)
                    elif op[0] == "result":
                        h.update_with_results([(sid, op[2])], returned_time=0.75)
                    elif op[0] == "cancel":
                        h.mark_cancel([sid])
                    elif op[0] == "kill":
                        h.mark_kill_sent([sid])
                    elif op[0] == "withdraw":
                        h.withdraw([sid])
                    elif op[0] == "dump":
                        h.dump(path)
                    elif op[0] == "adopt":
                        h = adopt(h)
                    else:
                        h.dump(path)
                        h = History.load(path)
                except HistoryError:
                    pass
            assert h.returned_count() == sum(1 for r in h.records if r.returned)
            pending = [r for r in h.records if not r.given and not r.cancel_requested]
            pending.sort(key=lambda r: (-r.priority, r.sim_id))
            assert [r.sim_id for r in h.pending_sims()] == [r.sim_id for r in pending]
            finite = [r.f for r in h.records if r.returned and not math.isnan(r.f)]
            if finite:
                assert h.best_f() == min(finite)
            else:
                assert math.isnan(h.best_f())

            h.dump(path)
            with open(path) as fh:
                dumped = fh.read()
            assert dumped == reference_table(h)
            again = os.path.join(d, "again.tsv")
            History.load(path).dump(again)
            with open(again) as fh:
                assert fh.read() == dumped

    def test_cancel_of_returned_record_after_dump_reaches_next_dump(self, tmp_path):
        h = make_history(2)
        h.mark_given([0], sim_worker=2, given_time=0.5)
        h.update_with_results([(0, 1.5)], returned_time=1.0)
        p = tmp_path / "h.tsv"
        h.dump(p)
        h.mark_cancel([0])
        h.dump(p)
        assert History.load(p).get(0).cancel_requested

    def test_adopted_interrupted_record_is_pending_again(self):
        h = make_history(3)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        h.update_with_results([(0, 2.0)], returned_time=1.0)
        resumed = adopt(h)
        assert [r.sim_id for r in resumed.pending_sims()] == sorted(
            [1, 2], key=lambda i: (-h.get(i).priority, i))
        assert resumed.returned_count() == 1 and resumed.best_f() == 2.0

    def test_untraced_adoption_keeps_no_events(self):
        config = RunConfig(n_dims=2, nworkers=1,
                           exit_criteria=ExitCriteria(sim_max=1))
        manager = _Manager(config, None, None, None, make_history(3), None)
        assert manager.trace is None and len(manager.history) == 3

    def test_append_requires_next_id(self):
        h = make_history(2)
        with pytest.raises(HistoryError, match="next id 2"):
            h.append(EnsembleRecord(sim_id=5, x=np.zeros(2)))
        with pytest.raises(HistoryError, match="shape"):
            h.append(EnsembleRecord(sim_id=2, x=np.zeros(3)))
        assert len(h) == 2


class TestPersistence:
    @given(st.lists(st.tuples(floats, floats,
                              st.one_of(st.just(math.nan), floats),
                              st.booleans(), st.booleans()),
                    min_size=0, max_size=20))
    @settings(max_examples=60)
    def test_round_trip_identity(self, rows):
        import tempfile, os
        h = History(2, start_time=999.25)
        pts = [GenPoint(x=[x0, x1], priority=1.5) for x0, x1, _, _, _ in rows]
        h.submit_points(pts, gen_worker=1)
        for sid, (_, _, fval, do_give, do_cancel) in enumerate(rows):
            if do_give:
                h.mark_given([sid], sim_worker=4, given_time=0.125)
                h.update_with_results([(sid, fval)], returned_time=7.0)
            if do_cancel:
                h.mark_cancel([sid])
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "hist.tsv")
            h.dump(p)
            h2 = History.load(p)
        assert h2.start_time == h.start_time
        assert histories_equal(h, h2, include_times=True)

    def test_nan_and_absent_spellings(self, tmp_path):
        h = make_history(2)
        h.mark_given([0], sim_worker=2, given_time=0.5)
        h.update_with_results([(0, math.nan)], returned_time=1.0)
        p = tmp_path / "h.tsv"
        h.dump(p)
        body = p.read_text().splitlines()
        row0, row1 = body[1].split("\t"), body[2].split("\t")
        cols = body[0].split("\t")
        assert row0[cols.index("f")] == "nan"
        assert row1[cols.index("given_time")] == "-"
        assert row1[cols.index("sim_worker")] == "-"

    def test_numpy_float_cells_dump_as_python_floats(self, tmp_path):
        def record(cast):
            return EnsembleRecord(
                sim_id=0, x=np.array([0.25, -1.0]), f=cast(1.5),
                priority=cast(0.5), given=True, returned=True, sim_worker=2,
                given_time=cast(0.125), returned_time=cast(2.0))

        rows = []
        for sub, cast in (("numpy", np.float64), ("python", float)):
            h = History(2, start_time=5.0)
            h.append(record(cast))
            p = tmp_path / f"{sub}.tsv"
            h.dump(p)
            loaded = History.load(p)
            assert records_equal(loaded.get(0), record(float), include_times=True)
            rows.append(p.read_bytes().splitlines()[1])
        assert rows[0] == rows[1]

    def test_sidecar_metadata(self, tmp_path):
        h = make_history(4)
        p = tmp_path / "h.tsv"
        h.dump(p)
        import json
        meta = json.loads((tmp_path / "h.tsv.meta.json").read_text())
        assert meta == {"format_version": 1, "n": 2, "start_time": 123.0}

    def test_malformed_row_reports_line(self, tmp_path):
        h = make_history(3)
        p = tmp_path / "h.tsv"
        h.dump(p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("\t", " ", 1)  # break column count on row 2
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryFormatError, match="line 3"):
            History.load(p)

    def test_bad_float_reports_line(self, tmp_path):
        h = make_history(2)
        p = tmp_path / "h.tsv"
        h.dump(p)
        lines = p.read_text().splitlines()
        cells = lines[1].split("\t")
        cells[1] = "zork"
        lines[1] = "\t".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryFormatError, match="line 2"):
            History.load(p)

    def test_non_dense_ids_rejected(self, tmp_path):
        h = make_history(3)
        p = tmp_path / "h.tsv"
        h.dump(p)
        lines = p.read_text().splitlines()
        del lines[2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryFormatError, match="out of order|metadata"):
            History.load(p)

    def test_missing_sidecar_rejected(self, tmp_path):
        h = make_history(1)
        p = tmp_path / "h.tsv"
        h.dump(p)
        (tmp_path / "h.tsv.meta.json").unlink()
        with pytest.raises(HistoryFormatError, match="sidecar"):
            History.load(p)

    @pytest.mark.parametrize("text", ['{"format_version": 1, "n"', "", "[1, 2]",
                                      '{"format_version": 1}'])
    def test_unparsable_sidecar_rejected(self, tmp_path, text):
        h = make_history(1)
        p = tmp_path / "h.tsv"
        h.dump(p)
        (tmp_path / "h.tsv.meta.json").write_text(text)
        with pytest.raises(HistoryFormatError, match="sidecar"):
            History.load(p)

    def test_sidecar_replaced_whole(self, tmp_path, monkeypatch):
        # A dump that dies before the sidecar's rename leaves the old
        # sidecar whole, never a truncated one.
        h = make_history(1)
        p = tmp_path / "h.tsv"
        h.dump(p)
        old_meta = (tmp_path / "h.tsv.meta.json").read_text()
        real_replace = os.replace

        def dying_replace(src, dst):
            if str(dst).endswith(".meta.json"):
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        h.submit_points([GenPoint(x=[0.0, 0.0])], gen_worker=1)
        with pytest.raises(OSError, match="simulated crash"):
            h.dump(p)
        assert (tmp_path / "h.tsv.meta.json").read_text() == old_meta
        assert len(History.load(p)) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        h = make_history(1)
        p = tmp_path / "h.tsv"
        h.dump(p)
        mp = tmp_path / "h.tsv.meta.json"
        meta = json.loads(mp.read_text())
        meta["format_version"] = 99
        mp.write_text(json.dumps(meta))
        with pytest.raises(HistoryFormatError, match="version"):
            History.load(p)


any_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     2.2e-308 / 7, 1e16, -1e16, 1e16 + 2.0, 1e-5, -1e-5, 0.1]),
    st.floats(width=64))
float_or_np = st.one_of(any_float, any_float.map(np.float64))
opt_time = st.one_of(st.none(), any_float)
record_cells = st.fixed_dictionaries({
    "x": st.lists(float_or_np, min_size=3, max_size=3),
    "x_object": st.booleans(),
    "f": any_float,
    "priority": float_or_np,
    "num_procs": st.integers(0, 64),
    "num_gpus": st.integers(0, 8),
    "gen_worker": st.integers(0, 9),
    "sim_worker": st.one_of(st.none(), st.integers(1, 40)),
    "given": st.booleans(),
    "returned": st.booleans(),
    "cancel_requested": st.booleans(),
    "kill_sent": st.booleans(),
    "given_time": opt_time,
    "returned_time": opt_time,
})


def grow(h: History, n: int = 3) -> None:
    """Append n records, give them all and return all but the last."""
    ids = h.submit_points([GenPoint(x=[0.5 * k, -1.0 / (k + 3)]) for k in range(n)],
                          gen_worker=1)
    h.mark_given(ids, sim_worker=2, given_time=0.25)
    h.update_with_results([(sid, sid / 3.0) for sid in ids[:-1]], returned_time=0.5)


class TestJournal:
    """Mid-run dumps append changed rows to path + '.journal'; load folds
    them over the table; the full table stays the reference bytes."""

    @given(st.lists(record_cells, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_column_formatter_matches_reference(self, cells):
        from unittest import mock
        h = History(3)
        for c in cells:
            c = dict(c)
            x = np.array(c.pop("x"), dtype=object if c.pop("x_object") else float)
            rec = EnsembleRecord(sim_id=len(h), x=x, **c)
            times = (rec.given_time, rec.returned_time)
            if any(t is not None and t != t for t in times):
                # A NaN time would read back as no time.
                with pytest.raises(HistoryError, match="would read back as None"):
                    h.append(rec)
                continue
            h.append(rec)
            # Read back as drawn, to the float's repr (-0.0 and NaN too).
            got = h.get(rec.sim_id)
            assert list(map(repr, got.x.tolist())) == [repr(float(v)) for v in x]
            for name in REFERENCE_COLS:
                a, b = getattr(got, name), getattr(rec, name)
                if isinstance(b, float):
                    a, b = repr(a), repr(float(b))
                assert a == b, (name, got, rec)
        ids = range(len(h))
        want = [reference_format_row(h.get(sid)) for sid in ids]
        assert dynens.history._format_rows(h, ids) == want
        # Chunk boundaries do not show in the lines.
        with mock.patch.object(dynens.history, "_FORMAT_CHUNK", 5):
            assert dynens.history._format_rows(h, ids) == want

    def test_seeded_operations_end_in_reference_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        values = [0.1, -0.0, 1e16, 1e-5, 5e-324, math.inf, 7.0]
        h = History(2, start_time=42.5)
        p = str(tmp_path / "h.tsv")
        journal_dumps = 0
        for _ in range(3000):
            op = rng.choice(["submit", "given", "results", "cancel", "kill_sent", "dump"],
                            p=[0.12, 0.32, 0.32, 0.1, 0.09, 0.05])
            sid = int(rng.integers(len(h))) if len(h) else 0
            try:
                if op == "submit":
                    pts = [GenPoint(x=[values[int(rng.integers(len(values)))],
                                       float(rng.normal())],
                                    priority=float(rng.integers(3)))
                           for _ in range(int(rng.integers(1, 9)))]
                    h.submit_points(pts, gen_worker=1)
                elif op == "given":
                    h.mark_given([sid], sim_worker=int(rng.integers(2, 5)),
                                 given_time=float(rng.uniform(0, 9)))
                elif op == "results":
                    fval = math.nan if rng.random() < 0.1 else float(rng.normal())
                    h.update_with_results([(sid, fval)], returned_time=float(rng.uniform(0, 9)))
                elif op == "cancel":
                    h.mark_cancel([sid])
                elif op == "kill_sent":
                    h.mark_kill_sent([sid])
                else:
                    journal_dumps += os.path.exists(p)
                    h.dump(p, journal=True)
                    if journal_dumps % 8 == 1:
                        assert histories_equal(History.load(p), h, include_times=True)
            except HistoryError:
                pass
        assert len(h) > 2 * dynens.history._FORMAT_CHUNK and journal_dumps > 100, (len(h), journal_dumps)
        assert os.path.getsize(p + ".journal") > 0
        h.dump(p)
        assert not os.path.exists(p + ".journal")
        with open(p) as fh:
            assert fh.read() == reference_table(h)

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_crash_at_each_rename_of_a_full_dump(self, tmp_path, monkeypatch, fail_at):
        """The sidecar holds only per-run constants, so a dump that dies at
        any rename loads as the dump before it."""
        h = make_history(2)
        p = str(tmp_path / "h.tsv")
        h.dump(p)
        before = copy.deepcopy(h)
        grow(h)
        renames = []
        real_replace = os.replace

        def dying_replace(src, dst):
            renames.append(dst)
            if len(renames) > fail_at:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            h.dump(p)
        monkeypatch.setattr(os, "replace", real_replace)
        assert renames[-1] == p + (".meta.json", "")[fail_at]
        loaded = History.load(p)
        assert (histories_equal(loaded, before, include_times=True)
                or histories_equal(loaded, h, include_times=True))
        # The dump after a failed one writes the whole table again.
        h.dump(p, journal=True)
        assert histories_equal(History.load(p), h, include_times=True)

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_crash_in_the_final_write_leaves_an_earlier_dump(self, tmp_path, monkeypatch,
                                                             fail_at):
        """A full write removes the journal before it replaces the table,
        so a crash between the two leaves the older table alone: an
        earlier prefix of the run, never a stale journal over a newer
        table."""
        h = make_history(2)
        p = str(tmp_path / "h.tsv")
        h.dump(p, journal=True)
        first = copy.deepcopy(h)
        grow(h)
        h.dump(p, journal=True)
        second = copy.deepcopy(h)
        assert os.path.getsize(p + ".journal") > 0
        grow(h)
        h.mark_cancel([0])
        real_replace = os.replace
        calls = []

        def dying_replace(src, dst):
            calls.append(dst)
            if len(calls) > fail_at:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            h.dump(p)
        monkeypatch.setattr(os, "replace", real_replace)
        # Dying at the sidecar leaves the table and journal of the second
        # dump; dying at the table, after the journal is gone, the first.
        want = (second, first)[fail_at]
        assert histories_equal(History.load(p), want, include_times=True)
        h.dump(p)
        assert histories_equal(History.load(p), h, include_times=True)

    def test_torn_final_journal_line_is_ignored(self, tmp_path):
        h = make_history(3)
        p = str(tmp_path / "h.tsv")
        h.dump(p, journal=True)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        h.dump(p, journal=True)
        given = copy.deepcopy(h)
        h.update_with_results([(0, 2.0)], returned_time=1.0)
        h.dump(p, journal=True)
        assert histories_equal(History.load(p), h, include_times=True)
        j = tmp_path / "h.tsv.journal"
        text = j.read_text()
        assert text.endswith("\n") and text.count("\n") == 3
        for cut in (1, 5, len(text.splitlines()[-1])):
            j.write_text(text[:-cut])
            assert histories_equal(History.load(p), given, include_times=True)

    @pytest.mark.parametrize("bad, match", [
        (lambda cells: cells.__setitem__(3, "zork"), "could not convert"),
        (lambda cells: cells.__setitem__(10, "yes"), "bad boolean"),
        (lambda cells: cells.pop(), "expected 15 columns, got 14"),
        (lambda cells: cells.__setitem__(0, "9"), "sim_id 9 is not dense"),
        (lambda cells: cells.__setitem__(0, "-1"), "sim_id -1 is not dense"),
        (lambda cells: cells.__setitem__(13, "nan"), "cell 'nan' would load as no value"),
        (lambda cells: cells.__setitem__(8, "-1"), "cell '-1' would load as no value"),
    ], ids=["float", "flag", "columns", "gap", "negative", "nan-time", "worker-minus-one"])
    def test_malformed_journal_line_names_journal_and_line(self, tmp_path, bad, match):
        h = make_history(2)
        p = str(tmp_path / "h.tsv")
        h.dump(p, journal=True)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        h.dump(p, journal=True)
        j = tmp_path / "h.tsv.journal"
        lines = j.read_text().splitlines()
        cells = lines[1].split("\t")
        bad(cells)
        lines[1] = "\t".join(cells)
        j.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryFormatError, match=f"h.tsv.journal: line 2: {match}"):
            History.load(p)

    def test_journal_appends_the_next_ids_in_order(self, tmp_path):
        h = make_history(2)
        p = str(tmp_path / "h.tsv")
        h.dump(p, journal=True)
        grow(h, 4)
        h.dump(p, journal=True)
        j = tmp_path / "h.tsv.journal"
        assert [line.split("\t")[0] for line in j.read_text().splitlines()] == \
            ["2", "3", "4", "5"]
        assert histories_equal(History.load(p), h, include_times=True)

    @pytest.mark.parametrize("num_records, ok", [(3, True), (4, False)])
    def test_sidecar_that_counts_records_still_loads(self, tmp_path, num_records, ok):
        """Dumps written before the journal carry num_records, which load
        still checks against the table."""
        import json
        h = make_history(3)
        p = tmp_path / "h.tsv"
        h.dump(p)
        mp = tmp_path / "h.tsv.meta.json"
        meta = json.loads(mp.read_text())
        mp.write_text(json.dumps(dict(meta, num_records=num_records), indent=1) + "\n")
        if ok:
            assert histories_equal(History.load(p), h, include_times=True)
        else:
            with pytest.raises(HistoryFormatError, match="metadata says 4 records, file has 3"):
                History.load(p)


def test_records_equal_ignores_times_by_default():
    a = EnsembleRecord(sim_id=0, x=np.array([1.0]), given_time=1.0)
    b = EnsembleRecord(sim_id=0, x=np.array([1.0]), given_time=9.0)
    assert records_equal(a, b)
    assert not records_equal(a, b, include_times=True)


class TestAbsentValues:
    """A field that may hold no value stores its column's absent value
    (NaN for a time, -1 for sim_worker) and reads it back as None, so that
    value itself is refused on the way in, by append and by load; so is
    None in a field that has no absent value."""

    @pytest.mark.parametrize("values", [
        dict(given=True, sim_worker=-1, given_time=math.nan),
        dict(sim_worker=np.int64(-1)),
        dict(given_time=math.nan),
        dict(returned=True, returned_time=np.float64("nan")),
        dict(f=2.0, priority=5.0, num_procs=None),
    ], ids=["given", "worker", "given-time", "returned-time", "none-procs"])
    def test_append_refuses_what_the_columns_cannot_keep(self, values):
        h = make_history(2)
        with pytest.raises(HistoryError, match="would read back as None|cannot store"):
            h.append(EnsembleRecord(sim_id=2, x=np.zeros(2), **values))
        assert len(h) == 2 and h.returned_count() == 0
        # Nothing of the refused record stays behind for the next one.
        h.submit_points([GenPoint(x=[0.0, 0.0])], gen_worker=1)
        assert records_equal(h.get(2), EnsembleRecord(sim_id=2, x=np.zeros(2), gen_worker=1),
                             include_times=True)
        assert h.get(2).sim_worker is None and h.get(2).given_time is None

    @pytest.mark.parametrize("worker, when", [
        (-1, 0.5), (np.int64(-1), 0.5), (2, math.nan), (2, np.float64("nan"))],
        ids=["worker", "numpy-worker", "time", "numpy-time"])
    def test_mark_given_refuses_a_stored_absent_value(self, worker, when):
        h = make_history(3)
        with pytest.raises(HistoryError, match="would read back as None"):
            h.mark_given([0, 1], sim_worker=worker, given_time=when)
        # Nothing was written: no record is given and every one still pends.
        assert not any(r.given or r.sim_worker is not None or r.given_time is not None
                       for r in h)
        assert sorted(h.pending_ids()) == [0, 1, 2]

    def test_update_with_results_refuses_a_nan_time(self):
        h = make_history(3)
        h.mark_given([0, 1], sim_worker=2, given_time=0.5)
        with pytest.raises(HistoryError, match="would read back as None"):
            h.update_with_results([(0, 1.0), (1, 2.0)], returned_time=math.nan)
        assert h.returned_count() == 0
        assert not any(r.returned or r.returned_time is not None for r in h)
        assert all(math.isnan(r.f) for r in h)

    def test_values_beside_the_absent_one_round_trip(self, tmp_path):
        rec = EnsembleRecord(sim_id=0, x=np.zeros(2), given=True, returned=True,
                             sim_worker=0, given_time=math.inf, returned_time=-0.0)
        h = History(2, start_time=1.0)
        h.append(rec)
        assert records_equal(h.get(0), rec, include_times=True)
        h.dump(tmp_path / "h.tsv")
        assert records_equal(History.load(tmp_path / "h.tsv").get(0), rec,
                             include_times=True)

    @pytest.mark.parametrize("name, cell", [("given_time", "nan"),
                                            ("returned_time", "nan"),
                                            ("sim_worker", "-1")])
    def test_load_refuses_the_absent_value_with_its_line(self, tmp_path, name, cell):
        h = make_history(3)
        h.mark_given([1], sim_worker=2, given_time=0.5)
        h.update_with_results([(1, 1.0)], returned_time=1.0)
        p = tmp_path / "h.tsv"
        h.dump(p)
        lines = p.read_text().splitlines()
        cells = lines[2].split("\t")
        cells[lines[0].split("\t").index(name)] = cell
        lines[2] = "\t".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryFormatError,
                           match=f"^line 3: cell '{cell}' would load as no value"):
            History.load(p)


def stored_values(c) -> st.SearchStrategy:
    """Values a History column of c's dtype stores, c's absent one among
    them."""
    if c.dtype is np.bool_:
        return st.booleans()
    if c.dtype is np.int64:
        return st.one_of(st.sampled_from([0, -1, 2**63 - 1, -2**63]),
                         st.integers(-2**63, 2**63 - 1))
    return any_float


@pytest.mark.parametrize("name", list(dynens.history._SPELL))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_codec_round_trips_stored_values(name, data):
    """parse(spell([v])[0]) is v for every value a column stores, its
    absent value too, and spell reads a column's .tolist() the same."""
    c = dynens.history._SPELL[name]
    values = data.draw(st.lists(stored_values(c), max_size=8))
    cells = [c.spell([v])[0] for v in values]
    assert [repr(c.parse(cell)) for cell in cells] == list(map(repr, values))
    assert c.spell(np.array(values, dtype=c.dtype).tolist()) == cells
