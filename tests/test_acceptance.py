"""End-to-end acceptance gate.

One test per shipped guarantee, numbered; the terminal summary prints a
pass/fail line for each. Tolerances and bounds asserted here are the
product's contract, so they are pinned as literals rather than derived.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from test_executor import golden_paths, load_golden_case
import scheduler_oracle
from conftest import one_node_assignment
from loopback import LoopbackContext

from dynens.app import CONFIGS_DIR, load_config, make_objective
from dynens.app.functions import gen_random_batch, sim_norm, sim_sleep, sim_stub_app
from dynens.executor import (
    Executor,
    SubmitSpec,
    TaskOutcome,
    build_runline,
    polling_loop,
)
from dynens.gp_generator import TrainingPolicy, decide_training, gp_gen_loop
from dynens.history import GenPoint, History, histories_equal
from dynens.resources import (
    Node,
    NodeInventory,
    PlatformSpec,
    ResourceRequest,
    ResourceSet,
    InsufficientResources,
    detect_platform,
    schedule,
)
from dynens.runtime import (
    ExitCriteria,
    PersistentAlloc,
    RunConfig,
    STOP_TAGS,
    run_ensemble,
)
from dynens.runtime.messages import RecordBatch
from dynens.surrogate import GaussianProcess, TrainMethod


# -- 1: scheduler vs exhaustive search -----------------------------------


def _random_case(rng):
    """One seeded (inventory, occupancy, request) scenario."""
    nnodes = int(rng.integers(1, 5))
    slots = int(rng.integers(1, 9))
    nodes = []
    rsets = []
    for i in range(nnodes):
        cores_per = int(rng.integers(1, 5))
        gpus_per = int(rng.integers(0, 3))
        nodes.append(Node(f"n{i}", cores_per * slots, gpus_per * slots))
        for s in range(slots):
            rsets.append(ResourceSet(
                rset_id=len(rsets), node_index=i, slot=s,
                cores=cores_per, gpus=gpus_per,
                gpu_ids=tuple(range(s * gpus_per, (s + 1) * gpus_per)),
                free=bool(rng.random() > 0.3)))
    total_cores = sum(n.cores for n in nodes)
    total_gpus = sum(n.gpus for n in nodes)
    form = rng.integers(0, 3)
    procs = int(rng.integers(1, total_cores + 3))
    gpus = int(rng.integers(1, total_gpus + 3)) if total_gpus else 1
    if form == 0:
        request = ResourceRequest(num_procs=procs)
    elif form == 1:
        request = ResourceRequest(num_gpus=gpus)
    else:
        request = ResourceRequest(num_procs=procs, num_gpus=gpus)
    return NodeInventory(nodes), rsets, request, bool(rng.random() < 0.5)


def _assert_placement_constraints(a, before_free, rsets, procs, gpus,
                                  match_slots):
    chosen = list(a.rset_ids)
    assert len(chosen) == len(set(chosen)), "resource set assigned twice"
    assert all(before_free[rid] for rid in chosen), "assigned a busy set"
    assert all(not rsets[rid].free for rid in chosen), "chosen set left free"
    if gpus:
        assert all(rsets[rid].gpus > 0 for rid in chosen), \
            "GPU request put on a GPU-less set"
    by_node = {}
    for rid in chosen:
        by_node.setdefault(rsets[rid].node_index, []).append(rsets[rid])
    counts = {len(v) for v in by_node.values()}
    assert len(counts) == 1, "uneven split across nodes"
    if match_slots and len(by_node) > 1:
        slot_sets = {frozenset(r.slot for r in v) for v in by_node.values()}
        assert len(slot_sets) == 1, "slot indices differ across nodes"
    assert sum(n.procs for n in a.nodes) == procs
    assert sum(len(n.gpu_ids) for n in a.nodes) == gpus
    for node in a.nodes:
        held = set()
        for r in by_node[node.node_index]:
            held.update(r.gpu_ids)
        assert set(node.gpu_ids) <= held, "assigned GPU id not held"


def test_criterion_01_scheduler_matches_exhaustive_oracle():
    """1,000 seeded inventories (up to 4 nodes x 8 slots): every placement
    honors the constraints and uses the exhaustive-search minimum node
    count; finishes inside 30 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    placed = refused = 0
    for _ in range(1000):
        inventory, rsets, request, match_slots = _random_case(rng)
        procs, gpus = request.resolved()
        want = scheduler_oracle.min_node_count(rsets, procs, gpus, match_slots)
        before_free = {r.rset_id: r.free for r in rsets}
        try:
            a = schedule(rsets, inventory, request, match_slots=match_slots)
        except InsufficientResources:
            assert want is None, \
                f"refused a placeable request {request} (oracle: {want} nodes)"
            refused += 1
            continue
        placed += 1
        assert len(set(a.node_indices)) == want, \
            f"{len(set(a.node_indices))} nodes used, oracle found {want}"
        _assert_placement_constraints(a, before_free, rsets, procs, gpus,
                                      match_slots)
    elapsed = time.perf_counter() - start
    assert placed and refused, "cases never exercised both outcomes"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


# -- 2: run-line golden suite --------------------------------------------


def test_criterion_02_runline_golden_suite():
    """Every launcher x GPU-setting combination, plus the frontier and
    aurora presets, reproduces its recorded argv and env byte for byte."""
    paths = golden_paths()
    stems = {p.stem for p in paths}
    for runner in ("mpich", "openmpi", "srun", "aprun", "jsrun"):
        for gtype in ("env", "runner_default", "option_gpus_per_node"):
            assert f"{runner}_{gtype}" in stems, f"missing {runner}_{gtype}"
    assert {"frontier_preset", "aurora_preset"} <= stems
    for path in paths:
        case, platform, assignment = load_golden_case(path)
        argv, env = build_runline(platform, assignment,
                                  app_path=case["app"],
                                  app_args=tuple(case["app_args"]),
                                  extra_args=tuple(case["extra_args"]))
        assert argv == case["argv"], f"{path.stem}: argv drifted"
        assert env == case["env"], f"{path.stem}: env drifted"
    assert detect_platform(env={}, name="aurora").cores_per_node == 104
    assert detect_platform(env={}, name="frontier").gpus_per_node == 8


# -- 3: GP numerics ------------------------------------------------------


def _separated_points(rng, n, m_target, sep, low=-3.0, high=3.0):
    points = []
    for _ in range(500):
        cand = rng.uniform(low, high, n)
        if all(np.linalg.norm(cand - p) >= sep for p in points):
            points.append(cand)
            if len(points) == m_target:
                break
    return np.array(points)


def test_criterion_03_gp_numerics():
    """(a) near-zero noise interpolates the data to 1e-6; (b) analytic
    likelihood gradient matches central differences to 1e-4 relative on 50
    instances (m <= 20, n <= 5); (c) the single-point closed forms
    e^(-1/2) and 1 - e^(-1) come out to 5 decimals."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        X = _separated_points(rng, n, int(rng.integers(1, 21)), sep=0.4)
        y = rng.uniform(-1.0, 1.0, len(X))
        gp = GaussianProcess(n, noise_variance=1e-12)
        gp.tell(X, y)
        mean = gp.posterior(X).mean
        assert np.max(np.abs(mean - y)) < 1e-6

    for _ in range(50):
        n = int(rng.integers(1, 6))
        X = _separated_points(rng, n, int(rng.integers(1, 21)), sep=0.3)
        y = rng.uniform(-1.0, 1.0, len(X))
        gp = GaussianProcess(n, noise_variance=1e-4)
        gp.tell(X, y)
        theta = np.concatenate((rng.uniform(-1, 1, 1),
                                rng.uniform(-0.7, 0.7, n)))
        _, grad = gp.lml_and_grad(theta)
        fd = np.empty_like(grad)
        h = 1e-5
        for d in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[d] += h
            dn[d] -= h
            fd[d] = (gp.log_marginal_likelihood(up)
                     - gp.log_marginal_likelihood(dn)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-8)
        assert rel < 1e-4, f"gradient off by {rel:.2e} (m={len(X)}, n={n})"

    gp = GaussianProcess(1, noise_variance=1e-12)
    gp.tell([[0.0]], [1.0])
    post = gp.posterior([[1.0]])
    assert abs(float(post.mean[0]) - math.exp(-0.5)) < 1e-5
    assert abs(float(post.variance[0]) - (1.0 - math.exp(-1.0))) < 1e-5


# -- 4: training policy branches -----------------------------------------


def test_criterion_04_training_policy_branches():
    """Strict thresholds at 2x and 10x the output spread: ratios
    {0, 1.9, 2+eps, 5, 9.9, 10+eps, 100} land on local / reduced-global /
    full-global exactly."""
    policy = TrainingPolicy()
    eps = 1e-9
    expected = [
        (0.0, TrainMethod("local")),
        (1.9, TrainMethod("local")),
        (2.0 + eps, TrainMethod("global", 20)),
        (5.0, TrainMethod("global", 20)),
        (9.9, TrainMethod("global", 20)),
        (10.0 + eps, TrainMethod("global", 120)),
        (100.0, TrainMethod("global", 120)),
    ]
    for ratio, want in expected:
        got = decide_training(ratio, 1.0, policy)
        assert got == want, f"ratio {ratio}: {got} != {want}"
    # Boundaries themselves take the cheaper branch.
    assert decide_training(2.0, 1.0, policy) == TrainMethod("local")
    assert decide_training(10.0, 1.0, policy) == TrainMethod("global", 20)


# -- 5: online learning beats random sampling ----------------------------


def _mse_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_05_online_learning_beats_random(tmp_path):
    """Ten seeded trials on the smooth 2D landscape, 10 batches of 16:
    variance-ranked selection ends with test MSE <= uniform-random
    selection in at least 8, and max grid variance drops from iteration 1
    to 10 in at least 9. Finishes inside 5 minutes."""
    start = time.perf_counter()
    wins = shrinks = 0
    for trial in range(10):
        func = make_objective(2, seed=trial)
        test_X = np.random.default_rng(10_000 + trial).uniform(0, 1, (256, 2))
        test_y = np.asarray(func(test_X), dtype=float)
        finals = {}
        for mode in ("online", "random"):
            params = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "batch_size": 16,
                      "points_per_dim": 14, "random_mode": mode == "random",
                      "test_X": test_X, "test_y": test_y,
                      "metrics_path": str(tmp_path / f"{mode}_{trial}.csv")}
            ctx = LoopbackContext(func, seed=trial, n_batches=10)
            gp_gen_loop(RecordBatch(), params, ctx)
            rows = _mse_rows(params["metrics_path"])
            assert len(rows) == 10
            finals[mode] = float(rows[-1]["mse_test"])
            if mode == "online":
                if float(rows[9]["max_var"]) < float(rows[0]["max_var"]):
                    shrinks += 1
        if finals["online"] <= finals["random"]:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 8, f"online beat random in only {wins}/10 trials"
    assert shrinks >= 9, f"grid variance shrank in only {shrinks}/10 trials"
    assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"


# -- 6: cancellation -----------------------------------------------------


SLEEPER_BATCH = ([2.0, 0.0], [2.0, 0.0], [2.0, 30.0], [2.0, 0.0])


def one_sleeper_gen(history_in, params, ctx):
    ctx.send([GenPoint(np.asarray(x, dtype=float)) for x in SLEEPER_BATCH])
    tag, _ = ctx.recv()
    while tag not in STOP_TAGS:
        tag, _ = ctx.recv()
    return tag


class _NanOnCall:
    """Objective wrapper standing in for a killed simulation."""

    def __init__(self, func, nan_call):
        self.func = func
        self.calls = 0
        self.nan_call = nan_call

    def __call__(self, x):
        self.calls += 1
        if self.calls == self.nan_call:
            return float("nan")
        return float(self.func(x))


def test_criterion_06_timeout_kill(tmp_path, stub_app, fake_mpiexec):
    """A 30 s app under a 2 s timeout dies as KILLED_ON_TIMEOUT within
    2 s + two poll intervals + the kill grace; the ensemble history marks
    the record kill_sent with f=NaN; the surrogate never ingests it."""
    platform = PlatformSpec(name="testbox", mpi_runner="mpich",
                            runner_name=fake_mpiexec, cores_per_node=4)
    executor = Executor(platform)
    executor.register_app("forces", stub_app)
    workdir = str(tmp_path / "kill_timing")
    os.makedirs(workdir)
    task = executor.submit(
        SubmitSpec(app="forces", app_args=("100", "5", "30")),
        one_node_assignment(), workdir)
    t0 = time.perf_counter()
    outcome = polling_loop(task, timeout=2.0)
    elapsed = time.perf_counter() - t0
    assert outcome is TaskOutcome.KILLED_ON_TIMEOUT
    assert elapsed < 2.0 + 2 * 0.5 + 2.0, f"kill took {elapsed:.2f}s"

    config = RunConfig(
        n_dims=2, nworkers=5,
        exit_criteria=ExitCriteria(sim_max=len(SLEEPER_BATCH)),
        ensemble_dir=str(tmp_path / "ens"), seed=0,
        sim_params={"app_path": stub_app, "steps": 5, "timeout": 2.0,
                    "sleep_from_dim": 1, "poll_interval": 0.25},
        platform=PlatformSpec(name="testbox", mpi_runner="mpich",
                              runner_name=fake_mpiexec, cores_per_node=4,
                              gpus_per_node=4, gpu_setting_type="env",
                              gpu_setting_name="CUDA_VISIBLE_DEVICES"),
        inventory=NodeInventory([Node("n0", 4, 4)]))
    history, flag = run_ensemble(config, one_sleeper_gen, sim_stub_app,
                                 alloc=PersistentAlloc())
    assert flag == "sim_max"
    killed = [r for r in history if r.kill_sent]
    assert len(killed) == 1
    assert math.isnan(killed[0].f) and killed[0].returned
    assert killed[0].x[1] == 30.0
    survivors = [r for r in history if not r.kill_sent]
    assert len(survivors) == 3
    assert all(math.isfinite(r.f) for r in survivors)

    func = _NanOnCall(make_objective(2, seed=0), nan_call=11)
    params = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "batch_size": 8,
              "points_per_dim": 12,
              "metrics_path": str(tmp_path / "nan_metrics.csv")}
    gp_gen_loop(RecordBatch(), params, LoopbackContext(func, seed=1, n_batches=3))
    sizes = [int(r["n_train"]) for r in _mse_rows(params["metrics_path"])]
    assert sizes == [8, 15, 23], f"dead point reached the model: {sizes}"


# -- 7: restart determinism ----------------------------------------------


def _batch_config(tmp_path, tag, sim_max, nworkers=5, batch_size=4, seed=6):
    return RunConfig(
        n_dims=2, nworkers=nworkers,
        exit_criteria=ExitCriteria(sim_max=sim_max),
        ensemble_dir=str(tmp_path / tag), seed=seed,
        gen_params={"lb": [-3.0, -2.0], "ub": [3.0, 2.0],
                    "batch_size": batch_size})


def test_criterion_07_restart_determinism(tmp_path):
    """Run to 100, dump, reload, continue to 200: record for record the
    same history an uninterrupted 200 run produces."""
    first_cfg = _batch_config(tmp_path, "first", sim_max=100)
    first, flag = run_ensemble(first_cfg, gen_random_batch, sim_norm,
                               alloc=PersistentAlloc())
    assert flag == "sim_max" and first.returned_count() == 100
    dump = os.path.join(first_cfg.ensemble_dir, "history.tsv")
    prior = History.load(dump)
    assert histories_equal(prior, first, include_times=True)

    resumed, flag = run_ensemble(
        _batch_config(tmp_path, "resumed", sim_max=200),
        gen_random_batch, sim_norm,
        alloc=PersistentAlloc(), H0=prior)
    assert flag == "sim_max"

    straight, flag = run_ensemble(
        _batch_config(tmp_path, "straight", sim_max=200),
        gen_random_batch, sim_norm, alloc=PersistentAlloc())
    assert flag == "sim_max"
    assert len(resumed) == len(straight) == 200
    assert histories_equal(resumed, straight), \
        "resumed history diverged from the uninterrupted run"


# -- 8: exit exactness ---------------------------------------------------


def test_criterion_08_exit_exactness(tmp_path):
    """The shipped 500-evaluation configuration returns exactly 500
    records, none extra, none in flight."""
    cfg = load_config(os.path.join(CONFIGS_DIR, "random_norm.yaml"),
                      ensemble_dir=str(tmp_path / "ens"))
    assert cfg.run.exit_criteria.sim_max == 500
    history, flag = run_ensemble(cfg.run, cfg.gen_fn, cfg.sim_fn,
                                 alloc=cfg.make_alloc())
    assert flag == "sim_max"
    assert history.returned_count() == 500
    assert len(history) == 500


# -- 9: dispatch overhead ------------------------------------------------


def timed_batch_gen(history_in, params, ctx):
    lb = np.asarray(params["lb"], dtype=float)
    ub = np.asarray(params["ub"], dtype=float)
    b = int(params["batch_size"])
    times = []
    tag = None
    while tag not in STOP_TAGS:
        points = [GenPoint(x) for x in ctx.rng.uniform(lb, ub, (b, len(lb)))]
        t0 = time.perf_counter()
        tag, _ = ctx.send_recv(points)
        times.append(time.perf_counter() - t0)
        with open(params["times_path"], "w") as fh:
            fh.write("\n".join(repr(t) for t in times) + "\n")
    return tag


def test_criterion_09_dispatch_overhead(tmp_path):
    """32 simulation workers each sleeping 200 ms: the generator-side wall
    time around send_recv stays within 1.25x the sleep, median over 20
    batches."""
    times_path = str(tmp_path / "batch_times.txt")
    config = RunConfig(
        n_dims=1, nworkers=33,
        exit_criteria=ExitCriteria(sim_max=32 * 21),
        ensemble_dir=str(tmp_path / "ens"), seed=0,
        sim_params={"seconds": 0.2},
        gen_params={"lb": [0.0], "ub": [1.0], "batch_size": 32,
                    "times_path": times_path})
    history, flag = run_ensemble(config, timed_batch_gen, sim_sleep,
                                 alloc=PersistentAlloc())
    assert flag == "sim_max" and history.returned_count() == 32 * 21
    times = np.loadtxt(times_path)
    assert len(times) >= 20
    median = float(np.median(times[:20]))
    assert median <= 0.2 * 1.25, \
        f"median batch wall time {median * 1000:.0f}ms exceeds 250ms"


# -- 10: comms mode equivalence ------------------------------------------


def test_criterion_10_mode_equivalence(tmp_path):
    """Hosting the generator on a worker process or inside the manager
    yields identical histories for identical seeds."""
    histories = {}
    for comms in ("local", "gen_on_manager"):
        config = RunConfig(
            n_dims=2, nworkers=5, comms=comms,
            exit_criteria=ExitCriteria(sim_max=40),
            ensemble_dir=str(tmp_path / comms), seed=11,
            gen_params={"lb": [-3.0, -2.0], "ub": [3.0, 2.0],
                        "batch_size": 4})
        history, flag = run_ensemble(config, gen_random_batch, sim_norm,
                                     alloc=PersistentAlloc())
        assert flag == "sim_max"
        histories[comms] = history
    assert histories_equal(histories["local"], histories["gen_on_manager"]), \
        "comms modes disagree"
