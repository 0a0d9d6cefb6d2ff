"""In-process stand-in for a persistent-generator context.

Evaluates each sent batch inline with a plain function, so generator
logic can be exercised without a manager, workers, or subprocesses. It
delivers results as the RecordBatches a worker's context receives.
"""

import pickle

import numpy as np

from dynens.history import EnsembleRecord
from dynens.runtime.messages import RecordBatch, Tag


class LoopbackContext:
    """Serves `n_batches` result batches, then answers PERSIS_STOP.

    `preload` seeds the record table for restart scenarios; any preloaded
    records not yet returned are evaluated up front and queued as the
    first delivery (they are the batch the generator is waiting on).
    """

    def __init__(self, func, seed, n_batches, preload=None):
        self.func = func
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.records = [r.copy() for r in preload] if preload else []
        self._next_id = max((r.sim_id for r in self.records), default=-1) + 1
        self._batches_left = n_batches
        self._pending = None

        unreturned = sorted((r for r in self.records if not r.returned),
                            key=lambda r: r.sim_id)
        if unreturned:
            for rec in unreturned:
                rec.f = float(self.func(rec.x))
                rec.given = rec.returned = True
                rec.given_time = rec.returned_time = 0.0
            self._pending = (Tag.RESULT, batch_of(unreturned))
            self._batches_left -= 1

    def send(self, points):
        if self._batches_left <= 0:
            self._pending = (Tag.PERSIS_STOP, RecordBatch())
            return
        batch = []
        for p in points:
            rec = EnsembleRecord(
                sim_id=self._next_id, x=np.asarray(p.x, dtype=float),
                f=float(self.func(np.asarray(p.x, dtype=float))),
                priority=p.priority, num_procs=p.num_procs,
                num_gpus=p.num_gpus, gen_worker=1, sim_worker=2,
                given=True, returned=True, given_time=0.0, returned_time=0.0)
            self._next_id += 1
            self.records.append(rec)
            batch.append(rec)
        self._batches_left -= 1
        self._pending = (Tag.RESULT, batch_of(batch))

    def recv(self):
        if self._pending is None:
            return (Tag.PERSIS_STOP, RecordBatch())
        out, self._pending = self._pending, None
        return out

    def send_recv(self, points):
        self.send(points)
        return self.recv()


def batch_of(records):
    """records as a generator receives them: a RecordBatch of their
    sim_id, x, f and returned columns, decoded from its pickled form as a
    worker decodes it."""
    batch = RecordBatch(np.array([r.sim_id for r in records], np.int64),
                        np.array([r.x for r in records], dtype=float),
                        np.array([r.f for r in records], dtype=float),
                        np.array([r.returned for r in records], dtype=bool))
    return pickle.loads(pickle.dumps(batch))
