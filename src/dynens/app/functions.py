"""Bundled generators and simulators, plus the name registries the
configuration layer resolves against.

Generator calling convention: generators receive (history_in, params,
ctx), history_in being the run so far as a RecordBatch. A persistent one
gets a ctx carrying send/recv, whose results are RecordBatches, plus a
seeded rng, and runs until a stop tag; one-shot generators return a list
of GenPoint. Simulators receive (records, params, ctx) and return one
objective value per record: the worker calls a simulator once per
record, with a list of one record holding its sim_id and x, even when
one Work carries several; an exception makes only that record NaN.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..executor import (DEFAULT_POLL_INTERVAL, SubmitSpec, TaskOutcome,
                        polling_loop)
from ..history import GenPoint
from ..runtime import STOP_TAGS, Tag
from .objective import make_objective

STUB_APP_NAME = "forces_stub"


def _box(params):
    lb = np.asarray(params["lb"], dtype=float)
    ub = np.asarray(params["ub"], dtype=float)
    return lb, ub, len(lb)


def _fast_forward(ctx, history_in, lb, ub, n):
    """Restore the rng position of a run this history came from.

    One uniform row was drawn per existing record; if the tail of the
    history is still unevaluated it is the batch in flight, so the first
    receive answers it.
    """
    if len(history_in):
        ctx.rng.uniform(lb, ub, (len(history_in), n))
    return Tag.RESULT if history_in.returned.all() else ctx.recv()[0]


def gen_random_batch(history_in, params, ctx):
    """Persistent uniform sampler: a fresh batch per result batch."""
    lb, ub, n = _box(params)
    b = int(params["batch_size"])
    tag = _fast_forward(ctx, history_in, lb, ub, n)
    while tag not in STOP_TAGS:
        points = [GenPoint(x) for x in ctx.rng.uniform(lb, ub, (b, n))]
        tag, _ = ctx.send_recv(points)
    return tag


def gen_random_sample(history_in, params, ctx):
    """One-shot uniform batch; pairs with the default allocator."""
    lb, ub, n = _box(params)
    b = int(params["batch_size"])
    return [GenPoint(x) for x in ctx.rng.uniform(lb, ub, (b, n))]


def gen_gpu_bucket_batch(history_in, params, ctx):
    """Uniform sampler that sizes each point's GPU request from x0.

    Coordinate 0 is split into max_gpus equal buckets; a point in bucket
    k asks for k GPUs, clamped to max_gpus at the top edge so requests
    stay schedulable.
    """
    lb, ub, n = _box(params)
    b = int(params["batch_size"])
    max_gpus = int(params["max_gpus"])
    if max_gpus < 1:
        raise ValueError(f"max_gpus must be >= 1, got {max_gpus}")
    bucket_size = (ub[0] - lb[0]) / max_gpus
    tag = _fast_forward(ctx, history_in, lb, ub, n)
    while tag not in STOP_TAGS:
        x = ctx.rng.uniform(lb, ub, (b, n))
        ngpus = [min(int((num - lb[0]) / bucket_size) + 1, max_gpus)
                 for num in x[:, 0]]
        points = [GenPoint(xi, num_gpus=g) for xi, g in zip(x, ngpus)]
        tag, _ = ctx.send_recv(points)
    return tag


def sim_norm(records, params, ctx):
    return [float(np.linalg.norm(r.x)) for r in records]


def sim_sleep(records, params, ctx):
    seconds = float(params.get("seconds", 0.2))
    for _ in records:
        time.sleep(seconds)
    return [0.0 for _ in records]


def sim_synthetic(records, params, ctx):
    func = make_objective(len(records[0].x),
                          seed=int(params.get("landscape_seed", 0)))
    return [float(func(r.x)) for r in records]


def sim_stub_app(records, params, ctx):
    """Run the bundled stand-in application once per record.

    argv is (particles, steps, sleep_seconds) with particles taken from
    x0 as in the driving application; sleep_from_dim lets a config turn
    a coordinate into runtime, which is how the timeout path is
    exercised. f is the final energy from forces.stat; killed or failed
    runs yield NaN.
    """
    executor = ctx.executor
    executor.register_app(STUB_APP_NAME, params["app_path"])
    steps = int(params.get("steps", 10))
    timeout = params.get("timeout")
    sleep_dim = params.get("sleep_from_dim")
    if ctx.assignment is None:
        raise RuntimeError(
            "stub app needs a resource assignment; configure an inventory")
    out = []
    for rec in records:
        particles = max(1, int(round(float(rec.x[0]))))
        args = [str(particles), str(steps)]
        if sleep_dim is not None:
            args.append(repr(float(rec.x[int(sleep_dim)])))
        spec = SubmitSpec(app=STUB_APP_NAME, app_args=tuple(args),
                          auto_assign_gpus=True, match_procs_to_gpus=True)
        workdir = ctx.sim_dir(rec.sim_id)
        task = executor.submit(spec, ctx.assignment, workdir,
                               worker_id=ctx.worker_id)
        outcome = polling_loop(
            task, ctx, timeout=timeout,
            poll_interval=float(params.get("poll_interval",
                                            DEFAULT_POLL_INTERVAL)))
        if outcome in (TaskOutcome.KILLED_ON_SIGNAL,
                       TaskOutcome.KILLED_ON_TIMEOUT):
            ctx.killed.append(rec.sim_id)
            out.append(float("nan"))
            continue
        stat = os.path.join(workdir, "forces.stat")
        try:
            data = np.loadtxt(stat)
            out.append(float(np.atleast_2d(data)[-1, -1]))
        except OSError:
            out.append(float("nan"))
    return out


def gen_gp_active_learning(history_in, params, ctx):
    """gp_gen_loop, imported on first call: the GP stack (scipy.linalg,
    scipy.optimize) loads only for runs that use it."""
    from ..gp_generator import gp_gen_loop
    return gp_gen_loop(history_in, params, ctx)


# name -> (function, persistent); the flag also picks the allocator.
GENERATORS = {
    "random_batch": (gen_random_batch, True),
    "random_sample": (gen_random_sample, False),
    "gpu_bucket_batch": (gen_gpu_bucket_batch, True),
    "gp_active_learning": (gen_gp_active_learning, True),
}

SIMULATORS = {
    "norm": sim_norm,
    "sleep": sim_sleep,
    "synthetic": sim_synthetic,
    "stub_app": sim_stub_app,
}
