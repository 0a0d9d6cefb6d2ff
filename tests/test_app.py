"""Application layer: bundled functions, configuration, and the CLI."""

import argparse
import math
import os

import numpy as np
import pytest
import yaml

from dynens.app import CONFIGS_DIR, ConfigError, load_config, make_objective
from dynens.app.cli import _add_override_flags, _load
from dynens.app.cli import main as cli_main
from dynens.app.functions import (
    gen_gpu_bucket_batch,
    gen_random_batch,
    sim_norm,
    sim_sleep,
    sim_stub_app,
    sim_synthetic,
)
from dynens.executor import Executor
from dynens.history import EnsembleRecord, GenPoint, History
from dynens.resources import PlatformSpec
from dynens.runtime import DefaultAlloc, PersistentAlloc, Tag, run_ensemble
from dynens.runtime.messages import RecordBatch

from loopback import batch_of

SHIPPED = {name: os.path.join(CONFIGS_DIR, name)
           for name in os.listdir(CONFIGS_DIR)}


# -- test doubles --------------------------------------------------------


class FakeGenCtx:
    """Drives a persistent generator for a fixed number of batches."""

    def __init__(self, seed=0, batches=3):
        self.rng = np.random.default_rng(seed)
        self.sent = []
        self.recv_calls = 0
        self.remaining = batches

    def recv(self):
        self.recv_calls += 1
        return Tag.RESULT, []

    def send_recv(self, points):
        self.sent.append(list(points))
        self.remaining -= 1
        if self.remaining <= 0:
            return Tag.PERSIS_STOP, []
        return Tag.RESULT, []


class _RiggedRng:
    """uniform() replays canned rows regardless of the requested bounds."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]

    def uniform(self, lb, ub, size=None):
        return self.rows.pop(0)


def record(sim_id, x, returned=True, f=0.0):
    return EnsembleRecord(sim_id=sim_id, x=np.asarray(x, float),
                          f=f, returned=returned)


# -- objective -----------------------------------------------------------


class TestObjective:
    def test_same_seed_same_surface(self):
        a = make_objective(2, seed=7)
        b = make_objective(2, seed=7)
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        assert np.array_equal(a(pts), b(pts))

    def test_seeds_differ(self):
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        assert not np.array_equal(make_objective(2, seed=0)(pts),
                                  make_objective(2, seed=1)(pts))

    def test_vectorized_matches_scalar(self):
        f = make_objective(3, seed=2)
        pts = np.random.default_rng(1).uniform(0, 1, (10, 3))
        batch = f(pts)
        singles = np.array([f(p) for p in pts])
        assert np.allclose(batch, singles, rtol=0, atol=1e-15)

    def test_scalar_input_gives_scalar(self):
        f = make_objective(2, seed=0)
        out = f(np.array([0.5, 0.5]))
        assert np.ndim(out) == 0


# -- generators ----------------------------------------------------------


class TestRandomBatch:
    def test_batches_within_bounds(self):
        ctx = FakeGenCtx(seed=0, batches=4)
        params = {"lb": [-3, -2], "ub": [3, 2], "batch_size": 50}
        tag = gen_random_batch(RecordBatch(), params, ctx)
        assert tag == Tag.PERSIS_STOP
        assert len(ctx.sent) == 4
        for batch in ctx.sent:
            assert len(batch) == 50
            xs = np.array([p.x for p in batch])
            assert np.all(xs >= [-3, -2]) and np.all(xs < [3, 2])

    def test_identical_seeds_identical_points(self):
        params = {"lb": [0, 0], "ub": [1, 1], "batch_size": 8}
        a, b = FakeGenCtx(seed=5, batches=2), FakeGenCtx(seed=5, batches=2)
        gen_random_batch(RecordBatch(), params, a)
        gen_random_batch(RecordBatch(), params, b)
        assert np.array_equal(np.array([p.x for p in a.sent[0]]),
                              np.array([p.x for p in b.sent[0]]))

    def test_prior_history_burns_the_stream(self):
        params = {"lb": [0, 0], "ub": [1, 1], "batch_size": 2}
        fresh = FakeGenCtx(seed=9, batches=2)
        gen_random_batch(RecordBatch(), params, fresh)

        resumed = FakeGenCtx(seed=9, batches=1)
        prior = [record(i, p.x) for i, p in enumerate(fresh.sent[0])]
        gen_random_batch(batch_of(prior), params, resumed)
        # The resumed stream continues where the first run's second batch was.
        assert np.array_equal(np.array([p.x for p in resumed.sent[0]]),
                              np.array([p.x for p in fresh.sent[1]]))
        assert resumed.recv_calls == 0

    def test_unreturned_tail_waits_for_results_first(self):
        params = {"lb": [0, 0], "ub": [1, 1], "batch_size": 2}
        prior = [record(0, [0.1, 0.1]), record(1, [0.2, 0.2], returned=False)]
        ctx = FakeGenCtx(seed=9, batches=1)
        gen_random_batch(batch_of(prior), params, ctx)
        assert ctx.recv_calls == 1


class TestGpuBucketBatch:
    def test_bucket_boundaries_and_clamp(self):
        # [0, 8] with 4 buckets of width 2; the top edge stays at 4.
        rows = [np.array([[0.0, 0.5], [1.0, 0.5], [1.999, 0.5],
                          [2.0, 0.5], [7.999, 0.5], [8.0, 0.5]])]
        ctx = FakeGenCtx(batches=1)
        ctx.rng = _RiggedRng(rows)
        params = {"lb": [0, 0], "ub": [8, 1], "batch_size": 6, "max_gpus": 4}
        gen_gpu_bucket_batch(RecordBatch(), params, ctx)
        assert [p.num_gpus for p in ctx.sent[0]] == [1, 1, 1, 2, 4, 4]

    def test_single_bucket_always_one_gpu(self):
        ctx = FakeGenCtx(batches=2)
        params = {"lb": [0, 0], "ub": [8, 1], "batch_size": 5, "max_gpus": 1}
        gen_gpu_bucket_batch(RecordBatch(), params, ctx)
        assert all(p.num_gpus == 1 for batch in ctx.sent for p in batch)

    def test_rejects_nonpositive_max_gpus(self):
        with pytest.raises(ValueError, match="max_gpus"):
            gen_gpu_bucket_batch(RecordBatch(), {"lb": [0], "ub": [1], "batch_size": 1,
                                      "max_gpus": 0}, FakeGenCtx())


# -- simulators ----------------------------------------------------------


class TestSimulators:
    def test_norm(self):
        fs = sim_norm([record(0, [3.0, 4.0]), record(1, [0.0, 0.0])], {}, None)
        assert fs == [5.0, 0.0]

    def test_norm_permutation_invariant(self):
        a = sim_norm([record(0, [1.0, -2.0, 3.0])], {}, None)
        b = sim_norm([record(0, [3.0, 1.0, -2.0])], {}, None)
        assert a == b

    def test_sleep_returns_zeros(self):
        fs = sim_sleep([record(0, [0.1]), record(1, [0.2])],
                       {"seconds": 0.0}, None)
        assert fs == [0.0, 0.0]

    def test_synthetic_matches_objective(self):
        xs = [[0.25, 0.75], [0.5, 0.5]]
        fs = sim_synthetic([record(i, x) for i, x in enumerate(xs)],
                           {"landscape_seed": 3}, None)
        direct = make_objective(2, seed=3)
        assert fs == [float(direct(np.asarray(x))) for x in xs]

    def test_stub_app_requires_assignment(self, tmp_path):
        class Ctx:
            executor = Executor(PlatformSpec())
            assignment = None
            worker_id = 2
        with pytest.raises(RuntimeError, match="resource assignment"):
            sim_stub_app([record(0, [1.0, 0.0])],
                         {"app_path": str(tmp_path / "app")}, Ctx())


# -- configuration -------------------------------------------------------


def base_doc(tmp_path, **blocks):
    doc = {
        "version": 1,
        "ensemble": {"nworkers": 3,
                     "ensemble_dir": str(tmp_path / "ens")},
        "exit": {"sim_max": 8},
        "gen": {"function": "random_batch",
                "user": {"lb": [0, 0], "ub": [1, 1], "batch_size": 2}},
        "sim": {"function": "norm"},
    }
    doc.update(blocks)
    return doc


def write_doc(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_doc(tmp_path, base_doc(tmp_path)))
        run = cfg.run
        assert run.nworkers == 3
        assert run.comms == "local"
        assert run.seed == 0
        assert run.n_dims == 2
        assert run.sim_error == "nan"
        assert run.exit_criteria.sim_max == 8
        assert cfg.persistent
        assert run.gen_params["lb"] == [0.0, 0.0]
        assert isinstance(cfg.make_alloc(), PersistentAlloc)

    def test_one_shot_gen_defaults_to_default_alloc(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["gen"]["function"] = "random_sample"
        cfg = load_config(write_doc(tmp_path, doc))
        assert not cfg.persistent
        assert isinstance(cfg.make_alloc(), DefaultAlloc)

    def test_flag_overrides_beat_document(self, tmp_path):
        path = write_doc(tmp_path, base_doc(tmp_path))
        cfg = load_config(path, nworkers=7, seed=42, comms="gen_on_manager",
                          ensemble_dir=str(tmp_path / "other"))
        assert cfg.run.nworkers == 7
        assert cfg.run.seed == 42
        assert cfg.run.comms == "gen_on_manager"
        assert cfg.run.ensemble_dir == str(tmp_path / "other")

    def test_gp_metrics_path_defaults_into_ensemble_dir(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["gen"] = {"function": "gp_active_learning",
                      "user": {"lb": [0, 0], "ub": [1, 1], "batch_size": 2}}
        cfg = load_config(write_doc(tmp_path, doc))
        assert cfg.run.gen_params["metrics_path"] == os.path.join(
            cfg.run.ensemble_dir, "metrics.csv")
        doc["gen"]["user"]["metrics_path"] = "elsewhere.csv"
        cfg = load_config(write_doc(tmp_path, doc, "config2.yaml"))
        assert cfg.run.gen_params["metrics_path"] == "elsewhere.csv"

    def test_inventory_file(self, tmp_path):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("a 4 2\nb 4 2\n")
        doc = base_doc(tmp_path,
                       inventory={"source": "file", "path": str(nodes)})
        cfg = load_config(write_doc(tmp_path, doc))
        assert [n.name for n in cfg.run.inventory.nodes] == ["a", "b"]
        assert cfg.run.platform is not None  # implied by the inventory

    def test_detected_inventory_takes_explicit_node_shape(self, tmp_path):
        doc = base_doc(tmp_path,
                       platform={"overrides": {"cores_per_node": 4,
                                               "gpus_per_node": 2}},
                       inventory={"source": "detected"})
        cfg = load_config(write_doc(tmp_path, doc))
        assert all(n.cores == 4 and n.gpus == 2
                   for n in cfg.run.inventory.nodes)

    def test_detected_inventory_keeps_real_cores_without_override(
            self, tmp_path):
        doc = base_doc(tmp_path, inventory={"source": "detected"})
        cfg = load_config(write_doc(tmp_path, doc))
        assert all(n.cores == (os.cpu_count() or 1)
                   for n in cfg.run.inventory.nodes)

    def test_inventory_flag_override(self, tmp_path):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("x 8 0\n")
        path = write_doc(tmp_path, base_doc(tmp_path))
        cfg = load_config(path, inventory_path=str(nodes))
        assert [n.cores for n in cfg.run.inventory.nodes] == [8]

    def test_stop_val_round_trip(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["exit"] = {"stop_val": {"field": "f", "threshold": 0.25}}
        cfg = load_config(write_doc(tmp_path, doc))
        assert cfg.run.exit_criteria.stop_val == ("f", 0.25)


def _drop(*keys):
    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return mutate


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target.setdefault(key, {})
        target[keys[-1]] = value
    return mutate


def _all(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


CONFIG_ERRORS = [
    (_set("bogus", 1), "top level: unknown"),
    (_drop("version"), "version: expected 1"),
    (_set("version", 2), "version: expected 1"),
    (_drop("ensemble", "nworkers"), "ensemble.nworkers: required"),
    (_set("ensemble", "nworkers", 0), "ensemble.nworkers: must be >= 1"),
    (_set("ensemble", "nworkers", "five"), "ensemble.nworkers: expected an integer"),
    (_set("ensemble", "comms", "smoke"), "ensemble.comms: must be one of"),
    (_set("ensemble", "seed", 1.5), "ensemble.seed: expected an integer"),
    (_set("ensemble", "seed", -5), "ensemble.seed: must be >= 0"),
    (_set("ensemble", "dedicated_gen", True),
     "ensemble: unknown key.*'dedicated_gen'"),
    (_drop("exit"), "exit: at least one"),
    (_set("exit", "sim_max", -1), "exit.sim_max: must be >= 0"),
    (_set("exit", "surprise", 1), "exit: unknown"),
    (_set("exit", "stop_val", {"field": "x", "threshold": 1}),
     "only 'f' is supported"),
    (_set("exit", "stop_val", {"field": "f"}), "threshold: required"),
    (_drop("gen", "function"), "gen.function: required"),
    (_set("gen", "function", "napping"), "unknown generator 'napping'"),
    (_set("sim", "function", "napping"), "unknown simulator 'napping'"),
    (_drop("gen", "user", "lb"), "gen.user.lb: required"),
    (_set("gen", "user", "lb", ["a", "b"]), "list of numbers"),
    (_set("gen", "user", "ub", [1, 1, 1]), "does not match lb length"),
    (_set("gen", "user", "ub", [0, 1]), "must exceed lb"),
    (_drop("gen", "user", "batch_size"), "gen.user.batch_size: required"),
    (_set("gen", "user", "batch_size", 0), "must be >= 1"),
    (_all(_set("gen", "function", "gp_active_learning"),
          _set("gen", "user", "full_factor", 3)),
     "gen.user: unknown key.*'full_factor'"),
    (_set("gen", "persistent", False), "gen: unknown key.*'persistent'"),
    (_set("alloc", "function", "default"), "alloc: unknown key.*'function'"),
    (_all(_set("gen", "function", "random_sample"), _set("alloc", "async", True)),
     "alloc.async: .* one-shot"),
    (_set("sim", "error_policy", "shrug"), "sim.error_policy: must be one of"),
    (_set("inventory", "path", "x.txt"), "only valid with source 'file'"),
    (_set("inventory", "source", "file"), "inventory.path: required"),
    (_set("platform", "overrides", "gpu_count", 4),
     "platform.overrides: unknown"),
    (_set("platform", "name", "krakenbox"), "platform"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("mutate,match", CONFIG_ERRORS,
                             ids=[m for _, m in CONFIG_ERRORS])
    def test_rejected_with_field_path(self, tmp_path, mutate, match):
        doc = base_doc(tmp_path)
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            load_config(write_doc(tmp_path, doc))

    def test_one_shot_gen_with_persistent_alloc(self, tmp_path):
        # The allocator follows from the generator; naming one is an error.
        doc = base_doc(tmp_path)
        doc["gen"]["function"] = "random_sample"
        doc["alloc"] = {"function": "persistent"}
        with pytest.raises(ConfigError, match="alloc: unknown key.*'function'"):
            load_config(write_doc(tmp_path, doc))

    def test_negative_seed_override(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"^ensemble\.seed: must be >= 0, got -5$"):
            load_config(write_doc(tmp_path, base_doc(tmp_path)), seed=-5)

    def test_gen_on_manager_needs_persistent_pair(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["gen"]["function"] = "random_sample"
        doc["ensemble"]["comms"] = "gen_on_manager"
        with pytest.raises(ConfigError, match="gen_on_manager"):
            load_config(write_doc(tmp_path, doc))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("version: [1\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(path))


# Each override flag: the load_config keyword it becomes, a value, and the
# document edit that must give the same RunConfig. Inventory paths are
# relative to the test's working directory.
FLAG_EDITS = {
    "--nworkers": ("nworkers", 7, _set("ensemble", "nworkers", 7)),
    "--comms": ("comms", "gen_on_manager",
                _set("ensemble", "comms", "gen_on_manager")),
    "--seed": ("seed", 42, _set("ensemble", "seed", 42)),
    "--ensemble-dir": ("ensemble_dir", "elsewhere",
                       _set("ensemble", "ensemble_dir", "elsewhere")),
    "--platform": ("platform", "frontier",
                   _set("platform", "name", "frontier")),
    "--inventory": ("inventory_path", "nodes.txt",
                    _set("inventory", {"source": "file",
                                       "path": "nodes.txt"})),
}


class TestFlagsAreDocumentEdits:
    def test_every_override_flag_is_in_the_table(self):
        parser = argparse.ArgumentParser()
        _add_override_flags(parser)
        options = {opt for action in parser._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert options == set(FLAG_EDITS)

    @pytest.mark.parametrize("with_platform", [False, True],
                             ids=["no_platform", "platform"])
    @pytest.mark.parametrize("flag", sorted(FLAG_EDITS))
    def test_flag_equals_edited_document(self, tmp_path, monkeypatch, flag,
                                         with_platform):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nodes.txt").write_text("a 4 2\nb 4 2\n")
        keyword, value, edit = FLAG_EDITS[flag]
        doc = base_doc(tmp_path)
        if with_platform:
            doc["platform"] = {"overrides": {"cores_per_node": 4,
                                             "gpus_per_node": 2}}
        by_flag = load_config(write_doc(tmp_path, doc), **{keyword: value})
        edit(doc)
        by_hand = load_config(write_doc(tmp_path, doc, "edited.yaml"))
        assert by_flag.run == by_hand.run
        # The command line maps the flag to that keyword.
        parser = argparse.ArgumentParser()
        parser.add_argument("config")
        _add_override_flags(parser)
        args = parser.parse_args([str(tmp_path / "config.yaml"),
                                  flag, str(value)])
        assert _load(args).run == by_hand.run

    def test_bad_flag_value_names_its_field(self, tmp_path):
        path = write_doc(tmp_path, base_doc(tmp_path))
        with pytest.raises(ConfigError, match=r"^ensemble\.nworkers: must"):
            load_config(path, nworkers=0)
        with pytest.raises(ConfigError, match=r"^ensemble\.comms: must be"):
            load_config(path, comms="smoke")
        with pytest.raises(ConfigError, match=r"^platform: unknown platform"):
            load_config(path, platform="krakenbox")

    def test_dry_run_with_inventory_flag_and_no_platform(
            self, tmp_path, capfd, monkeypatch):
        monkeypatch.delenv("DYNENS_PLATFORM", raising=False)
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("n0 4 4\n")
        doc = base_doc(tmp_path)
        doc["gen"]["user"] = {"lb": [1, 0], "ub": [8, 1], "batch_size": 4}
        doc["exit"] = {"sim_max": 4}
        doc["sim"] = {"function": "stub_app",
                      "user": {"app_path": "./forces_stub", "steps": 2}}
        assert "platform" not in doc
        assert run_cli("run", write_doc(tmp_path, doc),
                       "--inventory", str(nodes), "--dry-run") == 0
        lines = [line for line in capfd.readouterr().out.splitlines()
                 if "[dry-run]" in line]
        assert len(lines) == 4
        assert all("./forces_stub" in line for line in lines)

    def test_run_with_no_finite_result_exits_1(self, tmp_path, capsys,
                                               monkeypatch):
        # No platform: every stub_app sim fails and comes back NaN.
        monkeypatch.delenv("DYNENS_PLATFORM", raising=False)
        doc = base_doc(tmp_path)
        doc["gen"]["user"] = {"lb": [1, 0], "ub": [8, 1], "batch_size": 4}
        doc["exit"] = {"sim_max": 4}
        doc["sim"] = {"function": "stub_app",
                      "user": {"app_path": "./forces_stub", "steps": 2}}
        assert run_cli("run", write_doc(tmp_path, doc)) == 1
        captured = capsys.readouterr()
        assert "failed: 4" in captured.out
        assert captured.err.endswith(
            "error: no returned record has a finite f\n")


# -- one-shot generator through the default allocator --------------------


class TestOneShotRun:
    def test_random_sample_fills_history(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["gen"]["function"] = "random_sample"
        doc["gen"]["user"]["batch_size"] = 3
        doc["exit"] = {"gen_max": 9}
        cfg = load_config(write_doc(tmp_path, doc))
        history, flag = run_ensemble(cfg.run, cfg.gen_fn, cfg.sim_fn,
                                     alloc=cfg.make_alloc())
        assert flag == "gen_max"
        assert len(history) >= 9
        xs = np.array([r.x for r in history])
        assert np.all(xs >= 0.0) and np.all(xs < 1.0)
        for rec in history:
            if rec.returned:
                assert rec.f == pytest.approx(float(np.linalg.norm(rec.x)))


# -- command line --------------------------------------------------------


def run_cli(*argv):
    return cli_main(list(argv))


class TestCli:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_configs_validate(self, capsys, name):
        assert run_cli("validate", SHIPPED[name]) == 0
        assert "ok" in capsys.readouterr().out

    def test_platform_flag_keeps_document_overrides(self, capsys,
                                                    monkeypatch):
        # --platform replaces platform.name only; the config's
        # cores_per_node/gpus_per_node overrides still shape the inventory.
        # Outside any batch allocation, detection finds the one local node.
        for var in ("SLURM_JOB_NODELIST", "SLURM_NODELIST", "PBS_NODEFILE",
                    "COBALT_NODEFILE", "LSB_HOSTS"):
            monkeypatch.delenv(var, raising=False)
        assert run_cli("validate", SHIPPED["gpu_bucket_stub.yaml"],
                       "--platform", "generic") == 0
        out = capsys.readouterr().out
        assert "platform: generic (mpich)" in out
        assert "inventory: 1 node(s), 4 cores, 4 gpus" in out

    @pytest.mark.parametrize("gen,alloc,line", [
        ("random_batch", {}, "(persistent), sim: norm, alloc: persistent\n"),
        ("random_batch", {"async": True},
         "(persistent), sim: norm, alloc: persistent (async)\n"),
        ("random_sample", {}, "(one-shot), sim: norm, alloc: default\n"),
    ], ids=["persistent", "async", "one-shot"])
    def test_validate_derives_the_allocator(self, tmp_path, capsys, gen,
                                            alloc, line):
        doc = base_doc(tmp_path, alloc=alloc)
        doc["gen"]["function"] = gen
        assert run_cli("validate", write_doc(tmp_path, doc)) == 0
        assert f"gen: {gen} {line}" in capsys.readouterr().out

    def test_validate_reports_field_and_exits_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path)
        del doc["exit"]
        assert run_cli("validate", write_doc(tmp_path, doc)) == 2
        assert "error: exit:" in capsys.readouterr().err

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        doc = base_doc(tmp_path)
        doc["gen"]["function"] = "napping"
        assert run_cli("run", write_doc(tmp_path, doc)) == 2
        assert "unknown generator" in capsys.readouterr().err

    def test_run_and_replay(self, tmp_path, capsys):
        ens = str(tmp_path / "ens")
        assert run_cli("run", SHIPPED["random_norm.yaml"],
                       "--ensemble-dir", ens, "--seed", "2") == 0
        out = capsys.readouterr().out
        assert "completed: sim_max" in out
        assert "500 generated, 500 returned" in out
        dump = os.path.join(ens, "history.tsv")
        assert os.path.exists(dump)
        assert run_cli("replay-metrics", dump) == 0
        assert "500 returned" in capsys.readouterr().out

    def test_replay_metrics_report(self, tmp_path, capsys):
        """The whole report for a hand-built history: a kill, a NaN
        failure, a tie of -0.0 and 0.0 on best f that the first record
        wins, and records that never returned."""
        h = History(2, start_time=0.0)
        ids = h.submit_points([GenPoint([0.5 * k, -0.25 * k]) for k in range(7)],
                              gen_worker=1)
        h.mark_given(ids[:3], sim_worker=2, given_time=1.0)
        h.mark_given(ids[3:6], sim_worker=3, given_time=1.25)
        h.update_with_results([(0, 2.5)], returned_time=1.125)
        h.update_with_results([(1, -0.0), (2, math.nan)], returned_time=1.5)
        assert h.mark_cancel([4]) == [4]
        h.mark_kill_sent([4])
        h.update_with_results([(4, math.nan)], returned_time=2.0)
        h.update_with_results([(3, 0.0)], returned_time=4.0)
        dump = str(tmp_path / "h.tsv")
        h.dump(dump)
        assert run_cli("replay-metrics", dump) == 0
        assert capsys.readouterr().out == (
            "evaluations: 7 generated, 5 returned\n"
            "killed: 1\n"
            "failed: 1\n"
            "best: f=-0.0 at x=[0.5, -0.25] (sim 1)\n"
            "sim time: median 0.500s, max 2.750s\n")

    def test_dry_run_prints_launch_lines(self, tmp_path, capfd):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("n0 4 4\n")
        assert run_cli("run", SHIPPED["random_stub.yaml"],
                       "--ensemble-dir", str(tmp_path / "ens"),
                       "--inventory", str(nodes), "--dry-run") == 0
        out = capfd.readouterr().out
        assert "[dry-run]" in out
        assert "./forces_stub" in out

    def test_dry_run_bucket_requests_vary(self, tmp_path, capfd,
                                          monkeypatch):
        # The config names no runner, so detection picks the first one on
        # PATH. Plant each runner alone on PATH and parse its own grammar.
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("n0 4 4\n")
        monkeypatch.delenv("DYNENS_PLATFORM", raising=False)
        for runner, np_flag in (("mpirun", "-np"), ("mpiexec", "-n")):
            bin_dir = tmp_path / f"bin_{runner}"
            bin_dir.mkdir()
            fake = bin_dir / runner
            fake.write_text("#!/bin/sh\nexit 0\n")
            fake.chmod(0o755)
            monkeypatch.setenv("PATH", str(bin_dir))
            assert run_cli("run", SHIPPED["gpu_bucket_stub.yaml"],
                           "--ensemble-dir", str(tmp_path / f"ens_{runner}"),
                           "--inventory", str(nodes), "--dry-run") == 0
            lines = [l for l in capfd.readouterr().out.splitlines()
                     if "[dry-run]" in l]
            assert len(lines) == 32  # sim_max: one launch per sim
            argvs = [l.split("[dry-run] ", 1)[1].split() for l in lines]
            assert all(argv[0] == runner for argv in argvs)
            widths = {argv[argv.index(np_flag) + 1] for argv in argvs}
            assert len(widths) > 1


# -- smoke matrix: generators x simulators x comms modes ------------------


def _stub_doc(tmp_path, stub_app, fake_mpiexec, gen_block, comms="local",
              sim_max=12):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("n0 4 4\n")
    return {
        "version": 1,
        "ensemble": {"nworkers": 5, "comms": comms,
                     "ensemble_dir": str(tmp_path / "ens"), "seed": 3},
        "exit": {"sim_max": sim_max},
        "platform": {"overrides": {
            "mpi_runner": "mpich",
            "runner_name": fake_mpiexec,
            "cores_per_node": 4,
            "gpus_per_node": 4,
            "gpu_setting_type": "env",
            "gpu_setting_name": "CUDA_VISIBLE_DEVICES",
        }},
        "inventory": {"source": "file", "path": str(nodes)},
        "gen": gen_block,
        "sim": {"function": "stub_app",
                "user": {"app_path": stub_app, "steps": 5}},
    }


RANDOM_STUB_GEN = {"function": "random_batch",
                   "user": {"lb": [1, 0], "ub": [8, 1], "batch_size": 4}}
GP_STUB_GEN = {"function": "gp_active_learning",
               "user": {"lb": [1, 0], "ub": [8, 1], "batch_size": 4}}


class TestSmokeMatrix:
    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_random_norm(self, tmp_path, capsys, comms):
        assert run_cli("run", SHIPPED["random_norm.yaml"],
                       "--ensemble-dir", str(tmp_path / "ens"),
                       "--comms", comms) == 0
        assert "500 returned" in capsys.readouterr().out

    def test_gp_norm_local(self, tmp_path, capsys):
        doc = base_doc(tmp_path)
        doc["gen"] = {"function": "gp_active_learning",
                      "user": {"lb": [0, 0], "ub": [1, 1], "batch_size": 4}}
        doc["exit"] = {"sim_max": 24}
        assert run_cli("run", write_doc(tmp_path, doc)) == 0
        assert "24 returned" in capsys.readouterr().out
        assert os.path.exists(os.path.join(doc["ensemble"]["ensemble_dir"],
                                           "metrics.csv"))

    def test_gp_synthetic_gen_on_manager(self, tmp_path, capsys):
        # The shipped config already runs the generator inside the manager.
        assert run_cli("run", SHIPPED["gp_synthetic.yaml"],
                       "--ensemble-dir", str(tmp_path / "ens")) == 0
        assert "160 returned" in capsys.readouterr().out

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_random_stub(self, tmp_path, capsys, stub_app, fake_mpiexec,
                         comms):
        doc = _stub_doc(tmp_path, stub_app, fake_mpiexec, RANDOM_STUB_GEN,
                        comms=comms)
        assert run_cli("run", write_doc(tmp_path, doc)) == 0
        out = capsys.readouterr().out
        assert "12 returned" in out
        assert "failed" not in out

    @pytest.mark.parametrize("comms", ["local", "gen_on_manager"])
    def test_gp_stub(self, tmp_path, capsys, stub_app, fake_mpiexec, comms):
        doc = _stub_doc(tmp_path, stub_app, fake_mpiexec, GP_STUB_GEN,
                        comms=comms)
        assert run_cli("run", write_doc(tmp_path, doc)) == 0
        out = capsys.readouterr().out
        assert "12 returned" in out
        assert "failed" not in out

    def test_stub_history_has_real_energies(self, tmp_path, stub_app,
                                            fake_mpiexec, capsys):
        doc = _stub_doc(tmp_path, stub_app, fake_mpiexec, RANDOM_STUB_GEN,
                        sim_max=8)
        assert run_cli("run", write_doc(tmp_path, doc)) == 0
        capsys.readouterr()
        history = History.load(os.path.join(doc["ensemble"]["ensemble_dir"],
                                            "history.tsv"))
        returned = [r for r in history if r.returned]
        assert len(returned) >= 8
        assert all(math.isfinite(r.f) for r in returned)
