"""GP generator trajectories pinned to a golden file.

Each run drives gp_gen_loop through a LoopbackContext and keeps the repr
of every x it sent and every metrics.csv cell but the three timings, so
a change to how the generator reads its input that moves one bit of one
trajectory fails here. Regenerate (only for an intended change of
trajectory) with

    PYTHONPATH=src python tests/test_gp_golden.py
"""

import csv
import itertools
import json
import math
import os

import numpy as np

from dynens.gp_generator import gp_gen_loop

from loopback import LoopbackContext, batch_of

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gp_trajectories.json")
TIMINGS = ("train_seconds", "select_seconds", "sim_seconds")
SEEDS = (0, 7, 31)
BATCH = 8


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def dead_batch(k):
    """bowl, except that every point of the 0-based batch k comes back NaN."""
    calls = itertools.count()
    return lambda x: math.nan if next(calls) // BATCH == k else bowl(x)


def params(metrics_path, **over):
    test_X = np.random.default_rng(1).uniform(0, 1, (12, 2))
    p = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "batch_size": BATCH,
         "points_per_dim": 12, "metrics_path": str(metrics_path),
         "test_X": test_X, "test_y": [bowl(x) for x in test_X]}
    p.update(over)
    return p


def trajectory(ctx, first, metrics_path):
    """The sent x's (records from `first` on) and the untimed metrics cells."""
    with open(metrics_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"x": [repr(r.x.tolist()) for r in ctx.records[first:]],
            "metrics": [[v for k, v in row.items() if k not in TIMINGS]
                        for row in rows]}


def run(func, seed, n_batches, p, preload=None):
    ctx = LoopbackContext(func, seed, n_batches, preload=preload)
    gp_gen_loop(batch_of(preload or []), p, ctx)
    return ctx


def trajectories(tmp):
    out = {}
    for seed in SEEDS:
        for random_mode in (False, True):
            name = f"seed{seed}-{'random' if random_mode else 'grid'}"
            path = os.path.join(tmp, f"{name}.csv")
            ctx = run(bowl, seed, 6, params(path, random_mode=random_mode))
            out[name] = trajectory(ctx, 0, path)

    path = os.path.join(tmp, "dead.csv")
    out["seed3-dead-batch"] = trajectory(run(dead_batch(1), 3, 5, params(path)),
                                         0, path)

    # A resume whose last batch is in flight: its first 3 records have
    # returned, and its points are those the uninterrupted run picked.
    path = os.path.join(tmp, "scratch.csv")
    full = run(bowl, 23, 6, params(path))
    first = run(bowl, 23, 4, params(path))
    history = [r.copy() for r in first.records]
    for rec in full.records[4 * BATCH:5 * BATCH]:
        rec = rec.copy()
        if rec.sim_id >= 4 * BATCH + 3:
            rec.f = math.nan
            rec.given = rec.returned = False
            rec.sim_worker = rec.given_time = rec.returned_time = None
        history.append(rec)
    path = os.path.join(tmp, "resumed.csv")
    resumed = run(bowl, 23, 3, params(path), preload=history)
    out["seed23-resumed-in-flight"] = trajectory(resumed, len(history), path)
    return out


def test_trajectories_match_golden(tmp_path):
    runs = trajectories(str(tmp_path))
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert sorted(runs) == sorted(want)
    for name, got in runs.items():
        assert got["x"] == want[name]["x"], name
        assert got["metrics"] == want[name]["metrics"], name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        result = trajectories(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
