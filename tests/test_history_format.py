"""History format: one column table covers every record field."""

import dataclasses

import numpy as np

import dynens.history
from dynens.history import EnsembleRecord, History


def full_record(sim_id: int) -> EnsembleRecord:
    """A record with every field away from its default."""
    rec = EnsembleRecord(
        sim_id=sim_id, x=np.array([0.25, -3.5]), f=-1.5, priority=2.5,
        num_procs=3, num_gpus=2, gen_worker=4, sim_worker=7, given=True,
        returned=True, cancel_requested=True, kill_sent=True,
        given_time=0.125, returned_time=9.75)
    for fld in dataclasses.fields(EnsembleRecord):
        if fld.default is not dataclasses.MISSING:
            assert getattr(rec, fld.name) != fld.default, fld.name
    return rec


def assert_same_fields(a: EnsembleRecord, b: EnsembleRecord) -> None:
    for fld in dataclasses.fields(EnsembleRecord):
        va, vb = getattr(a, fld.name), getattr(b, fld.name)
        if fld.name == "x":
            assert np.array_equal(va, vb)
        else:
            assert (va, type(va)) == (vb, type(vb)), fld.name


def test_table_names_the_record_fields_in_order():
    names = [fld.name for fld in dataclasses.fields(EnsembleRecord)]
    assert names[:2] == ["sim_id", "x"]
    assert list(dynens.history._SPELL) == names[2:]


def test_every_field_round_trips_through_table_and_journal(tmp_path):
    p = str(tmp_path / "h.tsv")
    h = History(2, start_time=3.0)
    h.append(full_record(0))
    h.dump(p, journal=True)
    h.append(full_record(1))
    h.dump(p, journal=True)
    # Record 0 came back from the table, record 1 from a journal line.
    with open(p + dynens.history.JOURNAL_SUFFIX) as fh:
        assert [line.split("\t")[0] for line in fh] == ["1"]
    loaded = History.load(p)
    assert len(loaded) == 2
    for sid in (0, 1):
        assert_same_fields(loaded.get(sid), full_record(sid))
