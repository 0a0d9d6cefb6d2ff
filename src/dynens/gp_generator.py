"""Online-learning persistent generator.

Bootstraps with a uniform batch, then repeatedly: folds returned results
into a Gaussian-process surrogate (dead simulations come back as NaN and
are dropped), retrains with an effort level steered by the batch RMSE,
ranks a fixed candidate mesh by posterior variance, and emits the next
batch under a shrinking minimum-separation radius. One metrics row per
iteration.

The context object handed to ``gp_gen_loop`` supplies ``rng``, ``seed``,
``send(points)``, ``recv()`` and ``send_recv(points)``; the history and
results arrive as RecordBatch columns. A restarted generator is
reconstructed by replaying the prior history chunk by chunk and
completes a batch left in flight with the records the manager forwards,
so a resumed ensemble continues exactly where an uninterrupted one would be.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .history import GenPoint
from .runtime.messages import STOP_TAGS, Tag
from .surrogate import (GaussianProcess, TrainMethod, crps_gaussian,
                        one_blas_thread)

METRICS_COLUMNS = ("iteration", "n_train", "rmse_batch", "train_method",
                   "train_seconds", "select_seconds", "sim_seconds",
                   "mse_test", "mean_var", "max_var", "crps_test")

# The keys gp_gen_loop reads from its params; any other key is an error.
PARAM_KEYS = ("lb", "ub", "batch_size", "points_per_dim", "random_mode",
              "metrics_path", "test_X", "test_y")

# The observation noise standard deviation, as a fraction of the mean
# |f| of the first batch with a finite result.
NOISE_FRACTION = 0.01

# The factor by which select_batch shrinks its separation radius when no
# candidate is far enough from the points already taken.
R_DECAY = 0.5


class GeneratorError(Exception):
    pass


@dataclass(frozen=True)
class TrainingPolicy:
    """RMSE-to-effort mapping. A batch RMSE above full_factor standard
    deviations of the accumulated outputs triggers the full global search;
    above reduced_factor, the reduced one; otherwise local refinement."""

    full_factor: float = 10.0
    reduced_factor: float = 2.0
    full_iters: int = 120
    reduced_iters: int = 20

    def __post_init__(self):
        if not self.full_factor > self.reduced_factor > 0:
            raise GeneratorError("need full_factor > reduced_factor > 0")


@dataclass(frozen=True)
class SelectionParams:
    batch_size: int
    r_initial: float
    r_min: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise GeneratorError("batch_size must be >= 1")
        # A zero floor would never terminate the decay loop and, fully
        # decayed, would stop separating anything from anything.
        if not 0 < self.r_min < self.r_initial:
            raise GeneratorError("need 0 < r_min < r_initial")

    @classmethod
    def for_bounds(cls, lb, ub, batch_size):
        diag = float(np.linalg.norm(np.asarray(ub, float) - np.asarray(lb, float)))
        return cls(batch_size, r_initial=diag / 2.0, r_min=diag / 1024.0)


@dataclass(frozen=True)
class CandidateGrid:
    points: np.ndarray

    @classmethod
    def build(cls, lb, ub, points_per_dim: int) -> "CandidateGrid":
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if lb.shape != ub.shape or lb.ndim != 1:
            raise GeneratorError("lb and ub must be vectors of equal length")
        if np.any(lb >= ub):
            raise GeneratorError("need lb < ub componentwise")
        if points_per_dim < 2:
            raise GeneratorError("points_per_dim must be >= 2")
        axes = [np.linspace(lb[d], ub[d], points_per_dim)
                for d in range(len(lb))]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(points)


def initial_sample(lb, ub, batch_size: int,
                   rng: np.random.Generator) -> np.ndarray:
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(lb >= ub):
        raise GeneratorError("need lb < ub componentwise")
    return rng.uniform(lb, ub, (batch_size, len(lb)))


def decide_training(rmse_val: float, std_y: float,
                    policy: TrainingPolicy) -> TrainMethod:
    """Thresholds are strict: an RMSE exactly at a boundary takes the
    cheaper branch."""
    if std_y < 0:
        raise GeneratorError("std_y must be >= 0")
    if rmse_val > policy.full_factor * std_y:
        return TrainMethod("global", policy.full_iters)
    if rmse_val > policy.reduced_factor * std_y:
        return TrainMethod("global", policy.reduced_iters)
    return TrainMethod("local")


class Exclusion:
    """Points already sent, as select_batch sees them: each grid point's
    distance to its nearest sent point and whether it was sent exactly,
    in grid order. Kept up to date with add() from batch to batch, so a
    selection never rescans the run's whole past."""

    def __init__(self, grid: CandidateGrid, points=None):
        self.grid_points = grid.points
        self.near = np.full(len(grid.points), np.inf)
        self.dup = np.zeros(len(grid.points), dtype=bool)
        if points is not None:
            self.add(points)

    def add(self, points) -> None:
        if len(points) == 0:
            return
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.grid_points.shape[1]:
            raise GeneratorError("excluded points have the wrong dimension")
        for e in points:
            self.near = np.minimum(
                self.near, np.linalg.norm(self.grid_points - e, axis=1))
            self.dup |= np.all(self.grid_points == e, axis=1)


def select_batch(grid: CandidateGrid, variances, params: SelectionParams,
                 exclude: Exclusion) -> tuple[list[int], list[float]]:
    """Greedy variance-ranked selection with a decaying separation radius.

    Candidates are ranked by variance, descending (ties by index). Each
    keeps the distance to its nearest excluded or accepted point; the
    first-ranked candidate at distance >= r is accepted, and when none
    is left r shrinks by R_DECAY. An accepted point sits at distance 0,
    so it is never picked twice. Once r falls below r_min the batch is
    filled by pure variance rank, skipping exact duplicates of excluded
    points. ``exclude`` is an ``Exclusion`` of this grid. Returns the
    indices and the r in force at each acceptance (0.0 for rank fills).
    """
    pts = grid.points
    variances = np.asarray(variances, dtype=float)
    if variances.shape != (len(pts),):
        raise GeneratorError(
            f"{len(variances)} variances for a grid of {len(pts)} points")
    if exclude.grid_points is not pts:
        raise GeneratorError("exclusion was built for another grid")

    # Everything below works in rank order.
    order = np.lexsort((np.arange(len(pts)), -variances))
    ranked = pts[order]
    near = exclude.near[order]
    dup = exclude.dup[order]
    if len(pts) - int(dup.sum()) < params.batch_size:
        raise GeneratorError(
            f"grid has {len(pts) - int(dup.sum())} selectable points, "
            f"batch needs {params.batch_size}")

    picked: list[int] = []
    trace: list[float] = []
    r = params.r_initial
    while len(picked) < params.batch_size and r >= params.r_min:
        j = int(np.argmax(near >= r))
        if near[j] < r:
            r *= R_DECAY
            continue
        picked.append(j)
        trace.append(r)
        near = np.minimum(near, np.linalg.norm(ranked - ranked[j], axis=1))
    fill = np.setdiff1d(np.flatnonzero(~dup), picked)
    fill = fill[:params.batch_size - len(picked)]
    trace += [0.0] * len(fill)
    return order[picked + list(fill)].tolist(), trace


def metrics(model: GaussianProcess, test_set,
            grid_variances: np.ndarray) -> tuple[float, float, float, float]:
    """(test MSE, mean grid variance, max grid variance, test CRPS) from
    the model's posterior variances on the candidate grid, which selection
    has already computed. The test CRPS is the mean CRPS of the Gaussian
    posterior at the test points, the calibration of the surrogate; both
    test figures are NaN when no test set is configured."""
    if test_set is None:
        mse = crps = float("nan")
    else:
        X_t, y_t = test_set
        y_t = np.asarray(y_t, dtype=float).ravel()
        if len(y_t) == 0:
            raise GeneratorError("empty test set")
        mean, var = model.posterior(X_t)
        mse = float(np.mean((mean - y_t) ** 2))
        crps = float(np.mean(crps_gaussian(y_t, mean, np.sqrt(var))))
    return (mse, float(np.mean(grid_variances)), float(np.max(grid_variances)),
            crps)


# -- the persistent loop -------------------------------------------------


def _append_metrics_row(path, row):
    write_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(METRICS_COLUMNS)
        writer.writerow(row)


class _OnlineLearner:
    """Model-side state of the loop, shared by live processing and
    history replay so a restart lands in the same state."""

    def __init__(self, grid, seed):
        self.model = GaussianProcess(grid.points.shape[1])
        self.policy = TrainingPolicy()
        self.seed = seed
        self.all_x: list[np.ndarray] = []
        self.all_y: list[float] = []
        self.sent = Exclusion(grid)
        self.noise_set = False
        self.iteration = 0

    def ingest(self, X, y):
        """Fold one returned batch in, its x rows X and f values y: drop
        NaNs, score the pre-update model on the batch, extend the data,
        retrain. Returns None when the whole batch was NaN (nothing to
        learn from)."""
        valid = np.isfinite(y)
        if not self.noise_set and np.any(valid):
            level = NOISE_FRACTION * float(np.mean(np.abs(y[valid])))
            self.model.set_noise_variance(level ** 2)
            self.noise_set = True
        if not np.any(valid):
            return None
        self.iteration += 1
        if self.model.n_train:
            rmse_batch = self.model.rmse(X[valid], y[valid])
        else:
            rmse_batch = float("inf")
        self.all_x.extend(X[valid])
        self.all_y.extend(y[valid])
        std_y = float(np.std(self.all_y))
        method = decide_training(rmse_batch, std_y, self.policy)
        t0 = time.perf_counter()
        self.model.tell(np.array(self.all_x), np.array(self.all_y))
        self.model.train(method.name, method.max_iter,
                         rng=np.random.default_rng([self.seed,
                                                    self.model.n_train]))
        train_seconds = time.perf_counter() - t0
        return rmse_batch, method, train_seconds

    def replay(self, history, batch_size: int, random_mode: bool):
        """Re-apply a prior history, a RecordBatch in sim_id order, in
        batch_size chunks. Complete returned chunks are ingested; from the
        first chunk with an unreturned record on, the rest is the batch
        still in flight, to be awaited rather than re-selected.

        Returns (the indices of the in-flight batch's returned records,
        None without a batch in flight; the uniform rows the prior run
        drew; whether the last ingested chunk was all NaN). The prior run
        drew one row per point of the bootstrap batch, of every batch
        sent after an all-NaN one, and of every batch in random mode."""
        drawn = 0
        dead = True  # the bootstrap batch is drawn like a re-probe
        for pos in range(0, len(history), batch_size):
            chunk = slice(pos, pos + batch_size)
            returned = history.returned[chunk]
            if random_mode or dead:
                drawn += len(returned)
            if not returned.all():
                # Its already-returned records are here only: the
                # manager forwards just the rest.
                self.sent.add(history.x[pos:])
                return np.flatnonzero(history.returned[pos:]) + pos, drawn, dead
            self.sent.add(history.x[chunk])
            dead = self.ingest(history.x[chunk], history.f[chunk]) is None
        return None, drawn, dead


def gp_gen_loop(history_in, params: dict, ctx) -> Tag:
    """Run the generator until the manager stops it; returns the stop tag.

    The whole run (replay, ingest and training, selection, metrics) has
    every OpenBLAS in the process on one thread, and the counts found on
    entry are put back however it ends: return, stop tag or raise.
    """
    with one_blas_thread():
        return _gp_gen_loop(history_in, params, ctx)


def _gp_gen_loop(history_in, params: dict, ctx) -> Tag:
    unknown = sorted(set(params) - set(PARAM_KEYS))
    if unknown:
        raise GeneratorError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(PARAM_KEYS)}")
    lb = np.asarray(params["lb"], dtype=float)
    ub = np.asarray(params["ub"], dtype=float)
    n = len(lb)
    batch_size = int(params["batch_size"])
    grid = CandidateGrid.build(lb, ub, params.get("points_per_dim", 10))
    sel = SelectionParams.for_bounds(lb, ub, batch_size)
    random_mode = bool(params.get("random_mode", False))
    metrics_path = params.get("metrics_path")
    if params.get("test_X") is not None:
        test_set = (np.asarray(params["test_X"], dtype=float),
                    np.asarray(params["test_y"], dtype=float))
    else:
        test_set = None

    learner = _OnlineLearner(grid, ctx.seed)

    def dispatch(X):
        points = [GenPoint(x=row) for row in np.atleast_2d(X)]
        learner.sent.add(X)
        t0 = time.perf_counter()
        tag, got = ctx.send_recv(points)
        return tag, (got.x, got.f), time.perf_counter() - t0

    def step(outcome, sim_seconds):
        """Select the next batch and send it, after the metrics row of the
        ingest that gave `outcome` (none without one)."""
        log_row = bool(metrics_path) and outcome is not None
        t0 = time.perf_counter()
        variances = None
        if log_row or not random_mode:
            _, variances = learner.model.posterior(grid.points)
        if random_mode:
            batch = ctx.rng.uniform(lb, ub, (batch_size, n))
        else:
            indices, _ = select_batch(grid, variances, sel,
                                      exclude=learner.sent)
            batch = grid.points[indices]
        select_seconds = time.perf_counter() - t0

        if log_row:
            rmse_batch, method, train_seconds = outcome
            _append_metrics_row(metrics_path, (
                learner.iteration, learner.model.n_train, rmse_batch,
                method.name, train_seconds, select_seconds, sim_seconds,
                *metrics(learner.model, test_set, variances)))
        return dispatch(batch)

    held, drawn, dead = learner.replay(history_in, batch_size, random_mode)
    # Burning the rows the prior run drew realigns the stream.
    ctx.rng.uniform(lb, ub, (drawn, n))
    if held is not None:
        t0 = time.perf_counter()
        tag, got = ctx.recv()
        sim_seconds = time.perf_counter() - t0
        # Complete the in-flight batch as an uninterrupted run receives
        # it: the held rows and the forwarded ones, in sim_id order.
        order = np.argsort(np.concatenate([history_in.sim_ids[held], got.sim_ids]))
        X = np.concatenate([history_in.x[held], got.x.reshape(len(got), n)])
        received = X[order], np.concatenate([history_in.f[held], got.f])[order]
    elif dead:
        # A fresh run bootstraps; a resumed one whose last batch all died
        # re-probes, as the prior run would have.
        tag, received, sim_seconds = dispatch(
            initial_sample(lb, ub, batch_size, ctx.rng))
    else:
        # Restart at a clean batch boundary: the last ingest ran in replay
        # and the prior process may have logged its row already, so none
        # is written for it here.
        tag, received, sim_seconds = step(None, float("nan"))

    while tag not in STOP_TAGS:
        outcome = learner.ingest(*received)
        if outcome is None:
            # Every point came back dead; probe somewhere fresh.
            tag, received, sim_seconds = dispatch(
                initial_sample(lb, ub, batch_size, ctx.rng))
        else:
            tag, received, sim_seconds = step(outcome, sim_seconds)
    return tag
