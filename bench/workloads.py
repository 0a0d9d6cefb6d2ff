"""The three benchmark workloads: how each one runs, what it checks and
which end-to-end numbers it yields.

Every workload is a closed loop: a persistent generator sends a batch and
waits for its results before it sends the next. One *episode* is one call
to ``run_ensemble`` that stops on ``sim_max``, a multiple of the batch
size, so no record is in flight when the run ends.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import textwrap
import time
from dataclasses import dataclass, field

import numpy as np

from dynens.app import STUB_APP_SOURCE, make_objective
from dynens.app.functions import (
    gen_gpu_bucket_batch,
    gen_random_batch,
    sim_norm,
    sim_stub_app,
    sim_synthetic,
)
from dynens.gp_generator import gp_gen_loop
from dynens.history import GenPoint, History, histories_equal
from dynens.resources import PlatformSpec, load_inventory_file
from dynens.runtime import STOP_TAGS, ExitCriteria, PersistentAlloc, RunConfig, run_ensemble

RTT_FILENAME = "gen_rtt.txt"
SHIM_LOG = "shim.log"


class Skipped(Exception):
    """The workload cannot run on this host (for example, no C compiler)."""


# -- generator round trips -------------------------------------------------


class _TimedContext:
    """Generator context that times each send_recv the generator makes."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.rtts: list[float] = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def send_recv(self, points):
        t0 = time.perf_counter()
        tag, records = self._ctx.send_recv(points)
        if tag not in STOP_TAGS:
            self.rtts.append(time.perf_counter() - t0)
        return tag, records


def timed_generator(gen_fn):
    """Wrap a persistent generator so the round trips it sees land in
    RTT_FILENAME in the ensemble directory when it returns."""

    def gen(history_in, params, ctx):
        tctx = _TimedContext(ctx)
        try:
            return gen_fn(history_in, params, tctx)
        finally:
            path = os.path.join(ctx.ensemble_dir, RTT_FILENAME)
            with open(path, "w") as fh:
                fh.write("".join(f"{t!r}\n" for t in tctx.rtts))

    return gen


# -- episodes --------------------------------------------------------------


@dataclass
class Episode:
    """One finished run_ensemble call and what the benchmark saw of it."""

    history: History
    flag: str
    ens_dir: str
    sim_max: int
    t_call: float        # wall clock just before run_ensemble
    wall_s: float        # run_ensemble duration
    rtts: list[float]
    manager_cpu_s: float  # CPU time of the manager process
    first_new: int = 0   # first sim_id this episode generated (resumes)

    @property
    def new(self) -> list:
        """The records this episode generated (not adopted from H0)."""
        return self.history.records[self.first_new:]

    @property
    def setup_s(self) -> float:
        """Call into the run until its first new record was dispatched."""
        given = [r.given_time for r in self.new if r.given_time is not None]
        return self.history.start_time + min(given) - self.t_call


@dataclass
class Checks:
    """Correctness tally: records checked plus run-level checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def records(self, total: int, bad: list[str]) -> None:
        self.attempted += total
        self.failed += len(bad)
        self.problems.extend(bad[:5])


class Workload:
    """Base: a persistent generator, a simulator and a batch size."""

    name = ""
    nworkers = 3
    comms = "local"
    batch = 1
    n_dims = 2
    n_rsets = 0           # resource sets the inventory is split into
    resumes = False       # after the last episode, resume its dump for a batch
    sim_max = 0           # new records per measured episode
    tolerance = 0.0       # allowed |f - expected f|; 0 means exact

    def prepare(self, run_dir: str) -> None:
        """One-time set-up before any episode (outside every timing)."""

    def prior_history(self, seed: int) -> History | None:
        """The earlier run an episode resumes from, or None to start afresh."""
        return None

    def gen_fn(self):
        raise NotImplementedError

    def sim_fn(self):
        raise NotImplementedError

    def gen_params(self, seed: int, ens_dir: str) -> dict:
        raise NotImplementedError

    def sim_params(self, seed: int) -> dict:
        return {}

    def config(self, seed: int, ens_dir: str, sim_max: int) -> RunConfig:
        return RunConfig(
            n_dims=self.n_dims, nworkers=self.nworkers, comms=self.comms,
            exit_criteria=ExitCriteria(sim_max=sim_max),
            ensemble_dir=ens_dir, seed=seed,
            sim_params=self.sim_params(seed),
            gen_params=self.gen_params(seed, ens_dir))

    def expected_f(self, record, seed: int) -> float:
        """The objective value a correct simulator returns for record."""
        raise NotImplementedError

    def check_episode(self, ep: Episode, seed: int, checks: Checks) -> None:
        """Workload-specific checks beyond the per-record values."""

    def episode_metrics(self, ep: Episode) -> dict:
        """Workload-specific figures of one episode, name -> value."""
        return {}

    # -- shared machinery --------------------------------------------------

    def run_episode(self, seed: int, ens_dir: str, n_new: int,
                    sim_wrap=None, H0: History | None = None) -> Episode:
        """Run until n_new records beyond H0's have returned."""
        shutil.rmtree(ens_dir, ignore_errors=True)
        first_new = 0 if H0 is None else len(H0)
        sim_max = first_new + n_new
        config = self.config(seed, ens_dir, sim_max)
        alloc = PersistentAlloc() if H0 is None else PersistentAlloc.resuming(H0.records)
        sim = self.sim_fn()
        if sim_wrap is not None:
            sim = sim_wrap(sim)
        cpu0 = _cpu_time()
        t_call = time.time()
        t0 = time.perf_counter()
        history, flag = run_ensemble(config, timed_generator(self.gen_fn()), sim,
                                     alloc=alloc, H0=H0)
        wall = time.perf_counter() - t0
        cpu = _cpu_time() - cpu0
        return Episode(history, flag, ens_dir, sim_max, t_call, wall,
                       _read_rtts(ens_dir), cpu, first_new)

    def check(self, ep: Episode, seed: int, checks: Checks) -> None:
        hist = ep.history
        checks.check(ep.flag == "sim_max",
                     f"{ep.ens_dir}: run ended on {ep.flag!r}, not sim_max")
        checks.check(len(hist) == ep.sim_max and hist.returned_count() == ep.sim_max,
                     f"{ep.ens_dir}: {hist.returned_count()} of {len(hist)} records "
                     f"returned, expected exactly {ep.sim_max}")
        tol = self.tolerance
        bad = []
        new = ep.new
        for rec in new:
            want = self.expected_f(rec, seed)
            ok = rec.returned and math.isfinite(rec.f) and (
                rec.f == want if tol == 0.0 else abs(rec.f - want) <= tol)
            if not ok:
                bad.append(f"{ep.ens_dir}: sim {rec.sim_id} f={rec.f!r}, "
                           f"expected {want!r}")
        checks.records(len(new), bad)
        self.check_episode(ep, seed, checks)


def _cpu_time() -> float:
    """User plus system CPU seconds of this (the manager) process."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    return me.ru_utime + me.ru_stime


def _read_rtts(ens_dir: str) -> list[float]:
    path = os.path.join(ens_dir, RTT_FILENAME)
    with open(path) as fh:
        return [float(line) for line in fh if line.strip()]


def reload(wl: Workload, ep: Episode, seed: int, ens_dir: str,
           checks: Checks, sim_wrap=None) -> float | None:
    """Reload the final dump of ep and check it equals ep.history. For a
    workload that resumes, also run one more batch on top of the reload
    and return the resume time: History.load until the first new dispatch.
    """
    path = os.path.join(ep.ens_dir, "history.tsv")
    t_load = time.time()
    loaded = History.load(path)
    resume_s = None
    if wl.resumes:
        res = wl.run_episode(seed, ens_dir, wl.batch, sim_wrap=sim_wrap, H0=loaded)
        resume_s = res.setup_s + res.t_call - t_load
        wl.check(res, seed, checks)
    checks.check(histories_equal(loaded, ep.history, include_times=True),
                 f"{path}: reloaded dump differs from the in-memory history")
    return resume_s


# -- the workloads -----------------------------------------------------------


class NormStream(Workload):
    """Zero-cost sims on a long history: the manager, history and allocator
    do the work.

    Each episode resumes a 5000-record history of an earlier norm_stream
    run, so every manager cycle scans a history of 5000 to 6000 records,
    the regime where the manager's per-record cost grows with history
    size. That per-cycle work, rather than the round trip to the workers,
    then sets the pace, which also keeps the figures steadier on a shared
    host.
    """

    name = "norm_stream"
    nworkers = 3
    batch = 50
    n_dims = 2
    sim_max = 1000
    prior = 5000          # records of the earlier run each episode resumes
    resumes = True
    lb, ub = [-3.0, -2.0], [3.0, 2.0]

    def prior_history(self, seed):
        """A finished run of this workload, built through the History API:
        batches from gen worker 1, each record given to sim worker 2 or 3
        and returned 0.5 ms later with f = ||x||."""
        rng = np.random.default_rng(seed)
        hist = History(self.n_dims)
        X = rng.uniform(self.lb, self.ub, (self.prior, self.n_dims))
        t = 0.0
        for start in range(0, self.prior, self.batch):
            ids = hist.submit_points([GenPoint(x) for x in X[start:start + self.batch]], 1)
            for sid in ids:
                t += 1e-3
                hist.mark_given([sid], 2 + sid % 2, t)
                hist.update_with_results([(sid, float(np.linalg.norm(X[sid])))], t + 5e-4)
        return hist

    def gen_fn(self):
        return gen_random_batch

    def sim_fn(self):
        return sim_norm

    def gen_params(self, seed, ens_dir):
        return {"lb": self.lb, "ub": self.ub, "batch_size": self.batch}

    def expected_f(self, record, seed):
        return float(np.linalg.norm(record.x))


class GpActive(Workload):
    """GP active learning: surrogate training and selection do the work."""

    name = "gp_active"
    nworkers = 3
    comms = "gen_on_manager"
    batch = 16
    n_dims = 3
    sim_max = 240
    points_per_dim = 8
    n_test = 256

    def gen_fn(self):
        return gp_gen_loop

    def sim_fn(self):
        return sim_synthetic

    def test_set(self, seed):
        """Fixed test inputs, scored on the episode's landscape."""
        X = np.random.default_rng(12345).uniform(0.0, 1.0, (self.n_test, self.n_dims))
        return X, make_objective(self.n_dims, seed=seed)(X)

    def gen_params(self, seed, ens_dir):
        X, y = self.test_set(seed)
        return {"lb": [0.0] * self.n_dims, "ub": [1.0] * self.n_dims,
                "batch_size": self.batch, "points_per_dim": self.points_per_dim,
                "test_X": X, "test_y": y,
                "metrics_path": os.path.join(ens_dir, "metrics.csv")}

    def sim_params(self, seed):
        return {"landscape_seed": seed}

    def expected_f(self, record, seed):
        return float(make_objective(self.n_dims, seed=seed)(record.x))

    def test_mse(self, ep: Episode) -> float:
        """The last test MSE the generator logged (one row per ingest)."""
        rows = np.genfromtxt(os.path.join(ep.ens_dir, "metrics.csv"),
                             delimiter=",", names=True, dtype=None, encoding=None)
        return float(np.atleast_1d(rows["mse_test"])[-1])

    def episode_metrics(self, ep):
        # Reported, not checked: on a few seeds in a hundred the surrogate
        # ends worse than a constant predictor (see selfcheck.py), so no
        # fixed tolerance separates a regression from those seeds.
        return {"gp_test_mse": self.test_mse(ep)}


SHIM_SOURCE = textwrap.dedent("""\
    #!/bin/bash
    # Launcher stand-in speaking the mpich grammar: drops -n/--ppn and
    # --options, runs the application, then logs what it saw.
    while [[ $# -gt 0 ]]; do
      case "$1" in
        -n|--ppn) shift 2 ;;
        --*) shift ;;
        *) break ;;
      esac
    done
    start=$EPOCHREALTIME
    "$@"
    rc=$?
    end=$EPOCHREALTIME
    printf '%s\\t%s\\t%s\\t%s\\t%s\\t%s\\n' "$BENCH_SIM_ID" "$BENCH_NODES" \\
      "${CUDA_VISIBLE_DEVICES-}" "$start" "$end" "$rc" > shim.log
    exit $rc
""")


def stub_energy(particles: int, steps: int) -> float:
    """forces_stub.c's final energy, summed in the same order."""
    energy = 0.0
    for s in range(steps):
        for p in range(particles):
            energy += math.sin(1e-3 * float((p + 1) * (s + 1)))
    return energy


def _sim_stub_logged(records, params, ctx):
    """sim_stub_app, with the record and its nodes exported for the shim."""
    os.environ["BENCH_SIM_ID"] = ",".join(str(r.sim_id) for r in records)
    os.environ["BENCH_NODES"] = ",".join(n.name for n in ctx.assignment.nodes)
    return sim_stub_app(records, params, ctx)


class AppLaunch(Workload):
    """Launched applications: resource placement and the executor."""

    name = "app_launch"
    nworkers = 5
    batch = 8
    n_dims = 2
    sim_max = 24
    n_rsets = 4           # 4 slots of 2 cores and 1 GPU
    tolerance = 1e-9      # forces.stat prints 10 decimals
    steps = 10
    max_gpus = 4

    def prepare(self, run_dir):
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            raise Skipped("no C compiler (cc or gcc) on PATH")
        self.app = os.path.join(run_dir, "forces_stub")
        subprocess.run([cc, "-O1", "-o", self.app, STUB_APP_SOURCE, "-lm"],
                       check=True, capture_output=True)
        self.shim = os.path.join(run_dir, "launch_shim")
        with open(self.shim, "w") as fh:
            fh.write(SHIM_SOURCE)
        os.chmod(self.shim, 0o755)
        self.inventory_path = os.path.join(run_dir, "nodes.txt")
        with open(self.inventory_path, "w") as fh:
            fh.write("node0 8 4\n")

    def gen_fn(self):
        return gen_gpu_bucket_batch

    def sim_fn(self):
        return _sim_stub_logged

    def gen_params(self, seed, ens_dir):
        return {"lb": [1.0, 0.0], "ub": [400.0, 1.0], "batch_size": self.batch,
                "max_gpus": self.max_gpus}

    def sim_params(self, seed):
        return {"app_path": self.app, "steps": self.steps}

    def config(self, seed, ens_dir, sim_max):
        config = super().config(seed, ens_dir, sim_max)
        config.platform = PlatformSpec(
            name="benchbox", mpi_runner="mpich", runner_name=self.shim,
            cores_per_node=8, gpus_per_node=4, gpu_setting_type="env",
            gpu_setting_name="CUDA_VISIBLE_DEVICES")
        config.inventory = load_inventory_file(self.inventory_path)
        return config

    def expected_f(self, record, seed):
        return stub_energy(max(1, int(round(float(record.x[0])))), self.steps)

    def launches(self, ep: Episode) -> dict[int, tuple]:
        """sim_id -> (nodes, gpu ids, start, end, exit code) as the shim
        logged them; a launch without a log is missing from the result."""
        out = {}
        for rec in ep.new:
            path = os.path.join(ep.ens_dir, f"worker{rec.sim_worker}",
                                f"sim{rec.sim_id}", SHIM_LOG)
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                sid, nodes, gpus, start, end, rc = fh.read().rstrip("\n").split("\t")
            out[int(sid)] = (set(nodes.split(",")), {int(g) for g in gpus.split(",") if g},
                             float(start), float(end), int(rc))
        return out

    def check_episode(self, ep, seed, checks):
        launches = self.launches(ep)
        for rec in ep.new:
            _, gpus, _, _, rc = launches.get(rec.sim_id, (None, set(), 0, 0, None))
            checks.check(rc == 0 and len(gpus) == rec.num_gpus,
                         f"{ep.ens_dir}: sim {rec.sim_id} launch exit {rc} with gpus "
                         f"{sorted(gpus)}, asked for {rec.num_gpus}")
        launches = [(sid,) + v for sid, v in launches.items()]
        clashes = [
            (a[0], b[0]) for i, a in enumerate(launches) for b in launches[i + 1:]
            if a[3] < b[4] and b[3] < a[4] and a[1] & b[1] and a[2] & b[2]]
        checks.check(not clashes,
                     f"{ep.ens_dir}: concurrent apps shared GPU ids on a node: {clashes}")


WORKLOADS = {wl.name: wl for wl in (NormStream, GpActive, AppLaunch)}


# -- end-to-end figures ----------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def batch_starts(ep: Episode, batch: int) -> list[float]:
    """First dispatch time of each batch the episode generated."""
    recs = ep.new
    return [min(r.given_time for r in recs[i:i + batch])
            for i in range(0, len(recs), batch)]


def tail_us_per_sim(ep: Episode) -> float:
    """Manager wall time per returned record over the last fifth of the run."""
    times = sorted(r.returned_time for r in ep.new)
    n5 = max(1, len(times) // 5)
    return (times[-1] - times[-1 - n5]) / n5 * 1e6


def summarize(wl: Workload, ep: Episode) -> dict[str, list[float]]:
    """The episode's end-to-end samples, so the history itself can go."""
    return {
        "wall_s": [ep.wall_s],
        "setup_s": [ep.setup_s],
        "sims_per_s": [len(ep.new) / ep.wall_s],
        "manager_cpu_us_per_sim": [ep.manager_cpu_s / len(ep.new) * 1e6],
        "tail_us_per_sim": [tail_us_per_sim(ep)],
        "latency_ms": [(r.returned_time - r.given_time) * 1e3 for r in ep.new],
        "batch_rtt_ms": [t * 1e3 for t in ep.rtts],
        "iter_s": list(np.diff(batch_starts(ep, wl.batch))),
        **{k: [v] for k, v in wl.episode_metrics(ep).items()},
    }


def pool(summaries: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in summaries:
        for k, v in s.items():
            out.setdefault(k, []).extend(v)
    return out
