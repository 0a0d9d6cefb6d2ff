"""Online-learning generator: selection rule against a brute-force
reference, training-effort branches, and the full loop over a loopback
context."""

import csv
import itertools
import math

import numpy as np
import pytest

from dynens.gp_generator import (
    CandidateGrid,
    Exclusion,
    R_DECAY,
    GeneratorError,
    SelectionParams,
    TrainingPolicy,
    decide_training,
    gp_gen_loop,
    initial_sample,
    metrics,
    select_batch,
)
from dynens.runtime.messages import Tag
from dynens.surrogate import GaussianProcess, crps_gaussian

from loopback import LoopbackContext, batch_of


def reference_select(points, variances, b, r_init, r_decay, r_min, exclude):
    """Straight transcription of the selection prose, O(N^2) per pass."""
    points = np.asarray(points, dtype=float)
    exclude = [np.asarray(e, dtype=float) for e in exclude]
    rank = sorted(range(len(points)), key=lambda i: (-variances[i], i))
    acc, trace = [], []
    r = r_init
    while len(acc) < b and r >= r_min:
        for i in rank:
            if i in acc:
                continue
            far = all(np.linalg.norm(points[i] - points[j]) >= r for j in acc)
            far = far and all(np.linalg.norm(points[i] - e) >= r
                              for e in exclude)
            if far:
                acc.append(i)
                trace.append(r)
                if len(acc) == b:
                    break
        if len(acc) < b:
            r *= r_decay
        else:
            break
    for i in rank:
        if len(acc) == b:
            break
        if i in acc or any(np.array_equal(points[i], e) for e in exclude):
            continue
        acc.append(i)
        trace.append(0.0)
    return acc, trace


def grid_1d():
    return CandidateGrid.build([0.0], [3.0], 4)  # points 0, 1, 2, 3


def select(grid, variances, params, excluded=None):
    """select_batch with an Exclusion of `excluded` points built for it."""
    return select_batch(grid, variances, params, Exclusion(grid, excluded))


# -- candidate grid -----------------------------------------------------


def test_grid_1d_endpoints_inclusive():
    np.testing.assert_array_equal(grid_1d().points,
                                  [[0.0], [1.0], [2.0], [3.0]])


def test_grid_2d_enumeration():
    grid = CandidateGrid.build([0.0, 10.0], [1.0, 12.0], 3)
    expected = [[0.0, 10.0], [0.0, 11.0], [0.0, 12.0],
                [0.5, 10.0], [0.5, 11.0], [0.5, 12.0],
                [1.0, 10.0], [1.0, 11.0], [1.0, 12.0]]
    np.testing.assert_array_equal(grid.points, expected)


def test_grid_size_is_power():
    grid = CandidateGrid.build([0.0] * 3, [1.0] * 3, 5)
    assert grid.points.shape == (125, 3)


def test_grid_rejects_bad_bounds():
    with pytest.raises(GeneratorError, match="lb < ub"):
        CandidateGrid.build([0.0, 1.0], [1.0, 1.0], 4)
    with pytest.raises(GeneratorError, match="equal length"):
        CandidateGrid.build([0.0], [1.0, 2.0], 4)
    with pytest.raises(GeneratorError, match="points_per_dim"):
        CandidateGrid.build([0.0], [1.0], 1)


# -- initial sample -----------------------------------------------------


def test_initial_sample_inside_box():
    pts = initial_sample([-3.0, -2.0], [3.0, 2.0], 50,
                         np.random.default_rng(0))
    assert pts.shape == (50, 2)
    assert np.all(pts >= [-3.0, -2.0]) and np.all(pts <= [3.0, 2.0])


def test_initial_sample_reproducible():
    a = initial_sample([0.0], [1.0], 5, np.random.default_rng(42))
    b = initial_sample([0.0], [1.0], 5, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_initial_sample_empty_batch():
    assert initial_sample([0.0], [1.0], 0, np.random.default_rng(0)).shape == (0, 1)


# -- training decision --------------------------------------------------

EPS = 1e-9


@pytest.mark.parametrize("ratio,name,iters", [
    (0.0, "local", 50),
    (1.9, "local", 50),
    (2.0, "local", 50),          # strict: boundary takes the cheaper branch
    (2.0 + EPS, "global", 20),
    (5.0, "global", 20),
    (9.9, "global", 20),
    (10.0, "global", 20),        # strict again
    (10.0 + 1e-8, "global", 120),
    (100.0, "global", 120),
])
def test_decide_training_branch_table(ratio, name, iters):
    for std in (1.0, 2.5):
        method = decide_training(ratio * std, std, TrainingPolicy())
        assert (method.name, method.max_iter) == (name, iters)


def test_decide_training_cold_start_goes_full():
    method = decide_training(float("inf"), 1.0, TrainingPolicy())
    assert (method.name, method.max_iter) == ("global", 120)


def test_decide_training_zero_std():
    assert decide_training(0.5, 0.0, TrainingPolicy()).max_iter == 120
    assert decide_training(0.0, 0.0, TrainingPolicy()).name == "local"


def test_decide_training_negative_std_rejected():
    with pytest.raises(GeneratorError, match="std_y"):
        decide_training(1.0, -0.1, TrainingPolicy())


def test_policy_ordering_enforced():
    with pytest.raises(GeneratorError, match="full_factor"):
        TrainingPolicy(full_factor=2.0, reduced_factor=10.0)


# -- batch selection ----------------------------------------------------


def params_for(b, r_init, r_min=1e-3):
    return SelectionParams(b, r_initial=r_init, r_min=r_min)


def test_select_hand_trace():
    # Top pick index 0; index 1 is 1 away (rejected at r=2); index 3 is
    # 3 away (accepted); batch full.
    idx, trace = select(grid_1d(), [0.9, 0.8, 0.1, 0.7], params_for(2, 2.0))
    assert idx == [0, 3]
    assert trace == [2.0, 2.0]


def test_select_single_is_argmax():
    idx, trace = select(grid_1d(), [0.1, 0.3, 0.9, 0.2], params_for(1, 2.0))
    assert idx == [2]


def test_select_uniform_variances_tie_break_by_index():
    idx, _ = select(grid_1d(), [0.5] * 4, params_for(2, 0.5))
    assert idx == [0, 1]


def test_select_fill_after_r_underflow():
    # r starts at 10 (one acceptance), decays straight below r_min, and
    # the rest is filled by variance rank.
    idx, trace = select(grid_1d(), [0.5] * 4, params_for(3, 10.0, r_min=9.0))
    assert idx == [0, 1, 2]
    assert trace == [10.0, 0.0, 0.0]


def test_select_excluded_point_blocks_by_distance():
    # An excluded point at 0.5 blocks grid points 0 and 1 at r=1 (both a
    # distance 0.5 away), so the first pass takes 3 then 2; the second
    # pass at r=0.5 finally admits 0.
    idx, trace = select(grid_1d(), [0.9, 0.8, 0.1, 0.7],
                        params_for(3, 1.0, r_min=0.3), [[0.5]])
    assert idx == [3, 2, 0]
    assert trace == [1.0, 1.0, 0.5]


def test_select_never_returns_exact_duplicate_of_excluded():
    idx, _ = select(grid_1d(), [0.9, 0.8, 0.7, 0.6],
                    params_for(3, 10.0, r_min=9.0), [[1.0]])
    assert 1 not in idx
    assert idx == [0, 2, 3]


def test_select_errors_when_grid_exhausted():
    with pytest.raises(GeneratorError, match="selectable"):
        select(grid_1d(), [0.1] * 4, params_for(4, 1.0), [[0.0], [2.0]])


def test_select_variance_length_checked():
    with pytest.raises(GeneratorError, match="variances"):
        select(grid_1d(), [0.1] * 3, params_for(1, 1.0))


def test_selection_params_invariants():
    with pytest.raises(GeneratorError, match="r_min"):
        SelectionParams(1, r_initial=1.0, r_min=2.0)
    with pytest.raises(GeneratorError, match="r_min"):
        SelectionParams(1, r_initial=1.0, r_min=0.0)
    with pytest.raises(GeneratorError, match="batch_size"):
        SelectionParams(0, r_initial=1.0, r_min=0.1)


def test_selection_defaults_from_bounds():
    sel = SelectionParams.for_bounds([0.0, 0.0], [3.0, 4.0], 8)
    assert sel.r_initial == pytest.approx(2.5)
    assert sel.r_min == pytest.approx(5.0 / 1024.0)
    assert R_DECAY == 0.5


def small_select_instance(rng):
    """Up to 3-D grids of up to 4 points per axis, a batch of at most 5,
    and up to 2 excluded grid points."""
    n = int(rng.integers(1, 4))
    ppd = int(rng.integers(2, 5))
    grid = CandidateGrid.build(np.zeros(n), np.ones(n), ppd)
    variances = rng.uniform(0, 1, len(grid.points))
    if rng.random() < 0.5:
        variances = np.round(variances, 1)  # force ties
    n_excl = int(rng.integers(0, 3))
    exclude = list(grid.points[rng.choice(len(grid.points), n_excl,
                                          replace=False)])
    b = int(rng.integers(1, min(5, len(grid.points) - n_excl) + 1))
    p = params_for(b, r_init=float(rng.uniform(0.2, 2.0)), r_min=1e-3)
    return grid, variances, exclude, p


def large_select_instance(rng):
    """gp_active's size: a 3-D grid of 8 points per axis, a batch of 16,
    and up to 240 excluded points mixing exact grid points with off-grid
    ones; variances are rounded to force ties."""
    grid = CandidateGrid.build(np.zeros(3), np.ones(3), 8)
    variances = np.round(rng.uniform(0, 1, len(grid.points)), 2)
    n_excl = int(rng.integers(1, 241))
    n_on = int(rng.integers(0, n_excl + 1))
    exclude = (list(grid.points[rng.choice(len(grid.points), n_on,
                                           replace=False)])
               + list(rng.uniform(0, 1, (n_excl - n_on, 3))))
    # r_min above the grid spacing (1/7) ends some runs in a rank fill.
    p = params_for(16, r_init=float(rng.uniform(0.35, 1.0)),
                   r_min=float(rng.choice([1e-3, 0.1, 0.2])))
    return grid, variances, exclude, p


@pytest.mark.parametrize("seed,make", (
    [pytest.param(seed, small_select_instance, id=str(seed))
     for seed in range(40)]
    + [pytest.param(seed, large_select_instance, id=f"large-{seed}")
       for seed in range(20)]))
def test_select_matches_reference_on_random_instances(seed, make):
    grid, variances, exclude, p = make(np.random.default_rng(seed))
    got_idx, got_trace = select(grid, variances, p, exclude)
    want_idx, want_trace = reference_select(grid.points, variances,
                                            p.batch_size, p.r_initial,
                                            R_DECAY, p.r_min, exclude)
    assert got_idx == want_idx
    assert got_trace == pytest.approx(want_trace)


@pytest.mark.parametrize("seed", range(5))
def test_select_with_carried_exclusion_over_successive_batches(seed):
    # The generator's way: one Exclusion fed every sent batch (the picks
    # plus off-grid points, as a uniform re-probe sends), against the
    # reference and a fresh Exclusion of every point sent.
    rng = np.random.default_rng(300 + seed)
    grid = CandidateGrid.build(np.zeros(3), np.ones(3), 5)
    p = params_for(8, r_init=float(rng.uniform(0.5, 1.0)),
                   r_min=float(rng.choice([1e-3, 0.3])))
    carried = Exclusion(grid)
    sent = []
    for _ in range(6):
        variances = np.round(rng.uniform(0, 1, len(grid.points)), 2)
        got_idx, got_trace = select_batch(grid, variances, p, exclude=carried)
        assert (got_idx, got_trace) == select(grid, variances, p, sent)
        want_idx, want_trace = reference_select(grid.points, variances,
                                                p.batch_size, p.r_initial,
                                                R_DECAY, p.r_min, sent)
        assert got_idx == want_idx
        assert got_trace == pytest.approx(want_trace)
        batch = list(grid.points[got_idx]) + list(rng.uniform(0, 1, (2, 3)))
        carried.add(batch)
        sent.extend(batch)


def test_select_rejects_exclusion_of_another_grid():
    grid = CandidateGrid.build([0.0], [3.0], 4)
    other = Exclusion(CandidateGrid.build([0.0], [3.0], 4))
    with pytest.raises(GeneratorError, match="another grid"):
        select_batch(grid, np.ones(4), params_for(1, r_init=1.0),
                     exclude=other)


@pytest.mark.parametrize("seed", range(15))
def test_select_separation_invariant(seed):
    rng = np.random.default_rng(100 + seed)
    grid = CandidateGrid.build([0.0, 0.0], [1.0, 1.0], 6)
    variances = rng.uniform(0, 1, len(grid.points))
    p = params_for(6, r_init=0.7, r_min=1e-3)
    idx, trace = select(grid, variances, p)
    assert len(idx) == len(set(idx)) == 6
    assert all(a >= b for a, b in zip(trace, trace[1:]))  # radius only decays
    r_final = trace[-1]
    pts = grid.points[idx]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) >= r_final - 1e-12


# -- metrics ------------------------------------------------------------


def test_metrics_perfect_predictions():
    model = GaussianProcess(1, noise_variance=1e-12)
    X = np.array([[0.0], [0.5], [1.0]])
    y = np.array([1.0, 2.0, 0.5])
    model.tell(X, y)
    grid = CandidateGrid.build([0.0], [1.0], 5)
    mse, mean_var, max_var, crps = metrics(model, (X, y),
                                           model.posterior(grid.points)[1])
    assert mse < 1e-10
    assert mean_var <= max_var
    assert 0.0 <= crps < 1e-5


def test_metrics_without_test_set_is_nan():
    model = GaussianProcess(1)
    model.tell([[0.0]], [1.0])
    grid = CandidateGrid.build([0.0], [1.0], 5)
    mse, _, _, crps = metrics(model, None, model.posterior(grid.points)[1])
    assert math.isnan(mse) and math.isnan(crps)


def test_metrics_recompute_from_posterior():
    rng = np.random.default_rng(6)
    model = GaussianProcess(2, noise_variance=0.01)
    model.tell(rng.uniform(0, 1, (10, 2)), rng.normal(size=10))
    grid = CandidateGrid.build([0.0, 0.0], [1.0, 1.0], 4)
    X_t = rng.uniform(0, 1, (6, 2))
    y_t = rng.normal(size=6)
    _, grid_var = model.posterior(grid.points)
    mse, mean_var, max_var, crps = metrics(model, (X_t, y_t), grid_var)
    mean_pred, var_pred = model.posterior(X_t)
    assert mse == pytest.approx(float(np.mean((mean_pred - y_t) ** 2)))
    assert crps == pytest.approx(float(np.mean(
        crps_gaussian(y_t, mean_pred, np.sqrt(var_pred)))))
    assert mean_var == pytest.approx(float(np.mean(grid_var)))
    assert max_var == pytest.approx(float(np.max(grid_var)))


def test_metrics_empty_test_set_rejected():
    model = GaussianProcess(1)
    model.tell([[0.0]], [1.0])
    grid = CandidateGrid.build([0.0], [1.0], 5)
    with pytest.raises(GeneratorError, match="empty test set"):
        metrics(model, (np.empty((0, 1)), np.empty(0)),
                model.posterior(grid.points)[1])


# -- the full loop ------------------------------------------------------


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def loop_params(**over):
    params = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "batch_size": 8,
              "points_per_dim": 12}
    params.update(over)
    return params


def run_loop(func, seed, n_batches, params, history_in=None, preload=None):
    ctx = LoopbackContext(func, seed, n_batches, preload=preload)
    tag = gp_gen_loop(batch_of(history_in or []), params, ctx)
    return ctx, tag


@pytest.mark.parametrize("key", ["full_factor", "noise_fraction", "lbb"])
def test_loop_rejects_keys_it_does_not_read(key):
    # A retired tuning key or a typo would otherwise be ignored silently.
    with pytest.raises(GeneratorError, match=f"unknown parameter.*'{key}'"):
        run_loop(bowl, seed=0, n_batches=2, params=loop_params(**{key: 1.0}))


def test_loop_metrics_file(tmp_path):
    path = tmp_path / "metrics.csv"
    test_X = np.random.default_rng(1).uniform(0, 1, (20, 2))
    test_y = [bowl(x) for x in test_X]
    ctx, tag = run_loop(bowl, seed=5, n_batches=10,
                        params=loop_params(metrics_path=str(path),
                                           test_X=test_X, test_y=test_y))
    assert tag == Tag.PERSIS_STOP
    assert len(ctx.records) == 80

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iteration"]) for r in rows] == list(range(1, 11))
    assert [int(r["n_train"]) for r in rows] == [8 * k for k in range(1, 11)]
    assert rows[0]["train_method"] == "global"
    assert math.isinf(float(rows[0]["rmse_batch"]))
    for row in rows:
        assert float(row["mean_var"]) <= float(row["max_var"])
        assert float(row["mse_test"]) >= 0.0
        assert float(row["crps_test"]) >= 0.0
        for col in ("train_seconds", "select_seconds", "sim_seconds"):
            assert float(row[col]) >= 0.0


@pytest.mark.parametrize("random_mode,with_metrics,expected", [
    (False, True, 6), (False, False, 6), (True, True, 6), (True, False, 0)])
def test_loop_one_grid_posterior_per_iteration(tmp_path, monkeypatch,
                                               random_mode, with_metrics,
                                               expected):
    # gp_active's size: 3-D, 8 points per dimension, batches of 16.
    grid_size = 8 ** 3
    sizes = []
    real_posterior = GaussianProcess.posterior

    def counting_posterior(self, Xq):
        sizes.append(len(np.atleast_2d(Xq)))
        return real_posterior(self, Xq)

    monkeypatch.setattr(GaussianProcess, "posterior", counting_posterior)
    params = {"lb": [0.0] * 3, "ub": [1.0] * 3, "batch_size": 16,
              "points_per_dim": 8, "random_mode": random_mode}
    if with_metrics:
        test_X = np.random.default_rng(1).uniform(0, 1, (20, 3))
        params.update(metrics_path=str(tmp_path / "metrics.csv"),
                      test_X=test_X, test_y=[bowl(x) for x in test_X])
    run_loop(bowl, seed=3, n_batches=6, params=params)
    assert sizes.count(grid_size) == expected
    if with_metrics:
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 6


def test_loop_selected_points_lie_on_grid():
    ctx, _ = run_loop(bowl, seed=3, n_batches=4, params=loop_params())
    grid = CandidateGrid.build([0.0, 0.0], [1.0, 1.0], 12)
    for rec in ctx.records[8:]:  # after the uniform bootstrap
        assert any(np.allclose(rec.x, g) for g in grid.points)


def test_loop_never_reselects_a_point():
    ctx, _ = run_loop(bowl, seed=3, n_batches=6, params=loop_params())
    seen = {tuple(r.x) for r in ctx.records}
    assert len(seen) == len(ctx.records)


def test_loop_random_mode_samples_off_grid():
    ctx, _ = run_loop(bowl, seed=3, n_batches=4,
                      params=loop_params(random_mode=True))
    grid = CandidateGrid.build([0.0, 0.0], [1.0, 1.0], 12)
    off_grid = [rec for rec in ctx.records[8:]
                if not any(np.allclose(rec.x, g) for g in grid.points)]
    assert off_grid  # uniform draws (almost surely) miss the mesh


def test_loop_nan_rows_are_excluded():
    # The first point of every batch dies; the model grows by b-1.
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        return float("nan") if calls["n"] % 8 == 1 else bowl(x)

    path_free = run_loop(flaky, seed=9, n_batches=3, params=loop_params())
    ctx, tag = path_free
    assert tag == Tag.PERSIS_STOP
    nan_count = sum(1 for r in ctx.records if math.isnan(r.f))
    assert nan_count == 3
    assert len(ctx.records) == 24


def test_loop_all_nan_batch_reissues_uniform():
    calls = {"n": 0}

    def dead_then_alive(x):
        calls["n"] += 1
        return float("nan") if calls["n"] <= 16 else bowl(x)

    ctx, tag = run_loop(dead_then_alive, seed=2, n_batches=4,
                        params=loop_params())
    assert tag == Tag.PERSIS_STOP
    # Two dead batches, then two live ones.
    assert len(ctx.records) == 32
    assert sum(1 for r in ctx.records if math.isnan(r.f)) == 16
    grid = CandidateGrid.build([0.0, 0.0], [1.0, 1.0], 12)
    reissued = ctx.records[8:16]
    assert not any(any(np.allclose(rec.x, g) for g in grid.points)
                   for rec in reissued)


def test_loop_immediate_stop():
    ctx, tag = run_loop(bowl, seed=1, n_batches=0, params=loop_params())
    assert tag == Tag.PERSIS_STOP
    assert ctx.records == []


def test_loop_deterministic_under_seed():
    a, _ = run_loop(bowl, seed=11, n_batches=5, params=loop_params())
    b, _ = run_loop(bowl, seed=11, n_batches=5, params=loop_params())
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.x, rb.x)
        assert ra.f == rb.f


def bowl_with_dead_batch(dead, first_sim=0):
    """bowl, except that every point of the 1-based batch `dead` (of 8)
    comes back NaN; `first_sim` is the sim id of the first call."""
    if dead is None:
        return bowl
    sim_ids = itertools.count(first_sim)

    def func(x):
        return math.nan if next(sim_ids) // 8 == dead - 1 else bowl(x)

    return func


# A dead batch is followed by a uniform re-probe: dead=8 lies after the
# restart, dead=6 is the last batch before it.
@pytest.mark.parametrize("random_mode,dead", [
    pytest.param(False, None, id="False"),
    pytest.param(True, None, id="True"),
    pytest.param(False, 8, id="False-dead8"),
    pytest.param(False, 6, id="False-dead6"),
    pytest.param(True, 8, id="True-dead8"),
    pytest.param(True, 6, id="True-dead6"),
])
def test_loop_restart_matches_uninterrupted(random_mode, dead):
    params = loop_params(random_mode=random_mode)
    full, _ = run_loop(bowl_with_dead_batch(dead), seed=17, n_batches=10,
                       params=params)

    first, _ = run_loop(bowl_with_dead_batch(dead), seed=17, n_batches=6,
                        params=params)
    assert len(first.records) == 48
    resumed = LoopbackContext(bowl_with_dead_batch(dead, first_sim=48),
                              seed=17, n_batches=4, preload=first.records)
    tag = gp_gen_loop(batch_of(first.records), params, resumed)
    assert tag == Tag.PERSIS_STOP

    assert len(resumed.records) == len(full.records) == 80
    for ra, rb in zip(full.records, resumed.records):
        assert ra.sim_id == rb.sim_id
        np.testing.assert_array_equal(ra.x, rb.x)
        assert ra.f == rb.f or (math.isnan(ra.f) and math.isnan(rb.f))


def test_loop_restart_with_outstanding_batch():
    # The prior history ends with a batch that was generated but has not
    # all returned: the resumed generator completes it with the records
    # the manager forwards instead of creating a fresh one.
    params = loop_params()
    full, _ = run_loop(bowl, seed=23, n_batches=8, params=params)
    first, _ = run_loop(bowl, seed=23, n_batches=5, params=params)

    for n_returned in (0, 3, 7):
        history = [r.copy() for r in first.records]
        # Fabricate the in-flight state: the 6th batch exists and only
        # its first n_returned records have returned. Its points must be
        # what the model would pick, so take them from the uninterrupted
        # run.
        for rec in full.records[40:48]:
            rec = rec.copy()
            if rec.sim_id >= 40 + n_returned:
                rec.f = math.nan
                rec.given = False
                rec.returned = False
                rec.sim_worker = None
                rec.given_time = rec.returned_time = None
            history.append(rec)

        resumed = LoopbackContext(bowl, seed=23, n_batches=3, preload=history)
        tag = gp_gen_loop(batch_of(history), params, resumed)
        assert tag == Tag.PERSIS_STOP
        assert len(resumed.records) == len(full.records) == 64
        for ra, rb in zip(full.records, resumed.records):
            np.testing.assert_array_equal(ra.x, rb.x, err_msg=str(n_returned))
            assert ra.f == rb.f, n_returned


def test_loop_restart_appends_metrics(tmp_path):
    path = tmp_path / "metrics.csv"
    params = loop_params(metrics_path=str(path))
    first, _ = run_loop(bowl, seed=29, n_batches=4, params=params)
    resumed = LoopbackContext(bowl, seed=29, n_batches=3,
                              preload=first.records)
    gp_gen_loop(batch_of(first.records), params, resumed)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # Rows 1..4 from the first run; the boundary iteration is not
    # re-logged; 5..7 from the resumed run's three evaluated batches.
    assert [int(r["iteration"]) for r in rows] == [1, 2, 3, 4, 5, 6, 7]
