"""Run lines against golden files; task lifecycle and supervision."""

import json
import os
import pathlib
import shutil
import signal
import time

import pytest

import dynens.executor
from dynens.executor import (
    Executor,
    ExecutorError,
    SubmitSpec,
    Task,
    TaskOutcome,
    TaskState,
    build_runline,
    polling_loop,
)
from dynens.resources import Assignment, AssignedNode, PlatformSpec, detect_platform

from conftest import one_node_assignment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "runlines"


def load_golden_case(path):
    case = json.loads(path.read_text())
    if "platform_name" in case:
        platform = detect_platform(env={}, name=case["platform_name"])
    else:
        platform = PlatformSpec(**case["platform"])
    nodes = [
        AssignedNode(node_index=i, name=n["name"], procs=n["procs"],
                     gpu_ids=tuple(n["gpu_ids"]))
        for i, n in enumerate(case["nodes"])
    ]
    assignment = Assignment(
        rset_ids=tuple(range(len(nodes))),
        nodes=nodes,
        total_procs=case["total_procs"],
        total_gpus=sum(len(n.gpu_ids) for n in nodes),
    )
    return case, platform, assignment


def golden_paths():
    return sorted(GOLDEN_DIR.glob("*.json"))


class TestRunlineGolden:
    @pytest.mark.parametrize("path", golden_paths(), ids=lambda p: p.stem)
    def test_matches_golden(self, path):
        case, platform, assignment = load_golden_case(path)
        argv, env = build_runline(
            platform, assignment,
            app_path=case["app"],
            app_args=tuple(case["app_args"]),
            extra_args=tuple(case["extra_args"]),
        )
        assert argv == case["argv"]
        assert env == case["env"]

    def test_covers_full_runner_by_gpu_matrix(self):
        stems = {p.stem for p in golden_paths()}
        for runner in ("mpich", "openmpi", "srun", "aprun", "jsrun"):
            for gtype in ("env", "runner_default", "option_gpus_per_node"):
                assert f"{runner}_{gtype}" in stems


class TestRunlineErrors:
    def test_divergent_gpu_ids_with_env_setting(self):
        platform = PlatformSpec(mpi_runner="mpich", gpu_setting_type="env",
                                gpu_setting_name="FAKE")
        nodes = [AssignedNode(0, "a", 2, (0, 1)), AssignedNode(1, "b", 2, (2, 3))]
        a = Assignment((0, 1), nodes, total_procs=4, total_gpus=4)
        with pytest.raises(ExecutorError, match="match_slots"):
            build_runline(platform, a, "/bin/app")

    def test_divergent_gpu_ids_with_fallback_variable(self):
        platform = PlatformSpec(mpi_runner="mpich", gpu_setting_type="runner_default",
                                gpu_env_fallback="FAKE_FALLBACK")
        nodes = [AssignedNode(0, "a", 2, (0, 1)), AssignedNode(1, "b", 2, (2, 3))]
        a = Assignment((0, 1), nodes, total_procs=4, total_gpus=4)
        with pytest.raises(ExecutorError, match="FAKE_FALLBACK"):
            build_runline(platform, a, "/bin/app")

    def test_divergent_gpu_counts(self):
        platform = PlatformSpec(mpi_runner="srun")
        nodes = [AssignedNode(0, "a", 2, (0, 1)), AssignedNode(1, "b", 2, (0,))]
        a = Assignment((0, 1), nodes, total_procs=4, total_gpus=3)
        with pytest.raises(ExecutorError, match="counts differ"):
            build_runline(platform, a, "/bin/app")

    def test_zero_procs_rejected(self, assignment):
        platform = PlatformSpec(mpi_runner="mpich")
        with pytest.raises(ExecutorError, match="nothing to launch"):
            build_runline(platform, assignment, "/bin/app", num_procs=0)


@pytest.mark.parametrize("fallback", ["", "FAKE_FALLBACK"])
@pytest.mark.parametrize("runner", ["mpich", "openmpi", "srun", "aprun", "jsrun"])
@pytest.mark.parametrize("setting", ["env", "runner_default", "option_gpus_per_node"])
def test_gpu_env_var_is_what_the_launch_sets(setting, runner, fallback):
    platform = PlatformSpec(mpi_runner=runner, gpu_setting_type=setting,
                            gpu_setting_name="--gpus" if setting.startswith("option")
                            else "FAKE_VIS",
                            gpu_env_fallback=fallback)
    if setting == "env":
        want = "FAKE_VIS"
    elif setting == "runner_default" and runner != "srun":
        want = fallback
    else:
        want = ""
    assert platform.gpu_env_var == want
    _, env = build_runline(platform, one_node_assignment(procs=2, gpu_ids=(0, 1)),
                           "/bin/app")
    assert env == ({want: "0,1"} if want else {})


class TestSubmitResolution:
    """How SubmitSpec fields shape the run line (all dry-run)."""

    def make_exec(self):
        platform = PlatformSpec(mpi_runner="mpich", gpu_setting_type="env",
                                gpu_setting_name="FAKE_VIS")
        ex = Executor(platform, dry_run=True)
        ex.register_app("forces", "/apps/forces")
        return ex

    def test_auto_assign_gpus_takes_all_assigned(self, tmp_path):
        ex = self.make_exec()
        a = one_node_assignment(procs=4, gpu_ids=(0, 1, 2))
        task = ex.submit(SubmitSpec(app="forces", auto_assign_gpus=True),
                         a, str(tmp_path))
        assert task.env_additions == {"FAKE_VIS": "0,1,2"}

    def test_match_procs_to_gpus_overrides_procs(self, tmp_path):
        ex = self.make_exec()
        a = one_node_assignment(procs=8, gpu_ids=(0, 1, 2))
        task = ex.submit(
            SubmitSpec(app="forces", auto_assign_gpus=True,
                       match_procs_to_gpus=True),
            a, str(tmp_path))
        assert task.argv[:5] == [ex.platform.runner_name, "-n", "3", "--ppn", "3"]

    def test_explicit_procs_win(self, tmp_path):
        ex = self.make_exec()
        task = ex.submit(SubmitSpec(app="forces", num_procs=2),
                         one_node_assignment(procs=4), str(tmp_path))
        assert task.argv[1:3] == ["-n", "2"]

    def test_unregistered_app_lists_known(self, tmp_path):
        ex = self.make_exec()
        with pytest.raises(ExecutorError, match="forces"):
            ex.submit(SubmitSpec(app="nope"), one_node_assignment(), str(tmp_path))

    def test_dry_run_prints_line_and_spawns_nothing(self, tmp_path, capsys):
        ex = self.make_exec()
        task = ex.submit(SubmitSpec(app="forces", app_args=("9", "9")),
                         one_node_assignment(), str(tmp_path))
        assert task.state is TaskState.CREATED and task._proc is None
        assert "/apps/forces 9 9" in capsys.readouterr().out
        assert polling_loop(task) is TaskOutcome.FINISHED

    def test_live_submit_checks_app_path(self, tmp_path, live_platform):
        ex = Executor(live_platform)
        ex.register_app("ghost", "/no/such/binary")
        with pytest.raises(ExecutorError, match="does not exist"):
            ex.submit(SubmitSpec(app="ghost"), one_node_assignment(), str(tmp_path))


@pytest.fixture
def live_exec(live_platform, stub_app):
    ex = Executor(live_platform)
    ex.register_app("stub", stub_app)
    return ex


class TestTaskLifecycle:
    def test_finish_and_output_files(self, live_exec, tmp_path):
        task = live_exec.submit(SubmitSpec(app="stub", app_args=("50", "3")),
                                one_node_assignment(), str(tmp_path), worker_id=2)
        assert task.state is TaskState.RUNNING
        assert task.wait(timeout=20) is TaskState.FINISHED
        assert task.return_code == 0
        stat = tmp_path / "forces.stat"
        assert stat.exists() and len(stat.read_text().splitlines()) == 3
        assert os.path.exists(task.stdout_path) and os.path.exists(task.stderr_path)
        assert task.task_id.startswith("task_w2_")

    def test_failure_reports_code(self, live_exec, tmp_path):
        task = live_exec.submit(SubmitSpec(app="stub", app_args=("0", "0")),
                                one_node_assignment(), str(tmp_path))
        assert task.wait(timeout=20) is TaskState.FAILED
        assert task.return_code == 2
        assert polling_loop(task) is TaskOutcome.FAILED

    def test_kill_is_fast_and_final(self, live_exec, tmp_path):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        time.sleep(0.2)
        t0 = time.time()
        assert task.kill(grace=2.0) is TaskState.USER_KILLED
        assert time.time() - t0 < 2.5  # TERM lands well inside the grace window
        assert task.kill() is TaskState.USER_KILLED  # idempotent

    def test_wait_timeout_raises(self, live_exec, tmp_path):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        with pytest.raises(TimeoutError):
            task.wait(timeout=0.3)
        task.kill()

    def test_kill_follows_term_after_grace(self, live_exec, tmp_path):
        app = tmp_path / "ignores_term.sh"
        app.write_text("#!/bin/sh\ntrap '' TERM\ntouch ready\nsleep 30\n")
        app.chmod(0o755)
        live_exec.register_app("stubborn", str(app))
        task = live_exec.submit(SubmitSpec(app="stubborn"),
                                one_node_assignment(), str(tmp_path))
        deadline = time.time() + 10
        while not (tmp_path / "ready").exists():  # TERM is ignored from here
            assert time.time() < deadline, "app never installed its trap"
            time.sleep(0.01)
        grace = 0.5
        t0 = time.time()
        assert task.kill(grace=grace) is TaskState.USER_KILLED
        elapsed = time.time() - t0
        assert task.return_code == -signal.SIGKILL
        assert grace * 0.9 <= elapsed <= grace + 1.0


class FakeCtx:
    """Delivers its signals on the deliver_on-th poll_signals() call."""

    def __init__(self, signals=(), current=(), deliver_on=1):
        self.signals = list(signals)
        self.current_sim_ids = set(current)
        self.deliver_on = deliver_on
        self.calls = 0

    def poll_signals(self):
        self.calls += 1
        if self.calls < self.deliver_on:
            return []
        out, self.signals = self.signals, []
        return out


class TestPollingLoop:
    def test_finished(self, live_exec, tmp_path):
        task = live_exec.submit(SubmitSpec(app="stub", app_args=("10", "1")),
                                one_node_assignment(), str(tmp_path))
        assert polling_loop(task, poll_interval=0.05) is TaskOutcome.FINISHED

    def test_timeout_kill_within_bound(self, live_exec, tmp_path):
        poll, grace, timeout = 0.5, 2.0, 2.0
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        t0 = time.time()
        outcome = polling_loop(task, timeout=timeout, poll_interval=poll,
                               grace=grace)
        elapsed = time.time() - t0
        assert outcome is TaskOutcome.KILLED_ON_TIMEOUT
        assert timeout * 0.5 <= elapsed <= timeout + 2 * poll + grace
        assert task.state is TaskState.USER_KILLED
        assert not (tmp_path / "forces.stat").exists()  # killed mid-sleep

    def test_kill_signal_for_own_sim(self, live_exec, tmp_path):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        ctx = FakeCtx(signals=[("KILL", 7)], current={7})
        assert polling_loop(task, ctx, poll_interval=0.05) is TaskOutcome.KILLED_ON_SIGNAL

    def test_kill_signal_for_other_sim_ignored(self, live_exec, tmp_path):
        task = live_exec.submit(SubmitSpec(app="stub", app_args=("10", "2")),
                                one_node_assignment(), str(tmp_path))
        ctx = FakeCtx(signals=[("KILL", 99)], current={7})
        assert polling_loop(task, ctx, poll_interval=0.05) is TaskOutcome.FINISHED

    def test_stop_signal_kills(self, live_exec, tmp_path):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        ctx = FakeCtx(signals=[("STOP", None)])
        assert polling_loop(task, ctx, poll_interval=0.05) is TaskOutcome.KILLED_ON_SIGNAL

    def test_exit_seen_before_poll_interval(self, live_exec, tmp_path):
        task = live_exec.submit(SubmitSpec(app="stub", app_args=("10", "1")),
                                one_node_assignment(), str(tmp_path))
        t0 = time.time()
        assert polling_loop(task, poll_interval=5.0) is TaskOutcome.FINISHED
        assert time.time() - t0 < 1.0

    def test_timeout_kill_at_deadline_not_poll_tick(self, live_exec, tmp_path):
        grace, timeout = 2.0, 0.5
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        t0 = time.time()
        outcome = polling_loop(task, timeout=timeout, poll_interval=5.0,
                               grace=grace)
        elapsed = time.time() - t0
        assert outcome is TaskOutcome.KILLED_ON_TIMEOUT
        assert timeout * 0.5 <= elapsed <= timeout + grace + 1.0
        assert not (tmp_path / "forces.stat").exists()

    def test_timeout_ignores_wall_clock_steps(self, live_exec, tmp_path, monkeypatch):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "0.3")),
            one_node_assignment(), str(tmp_path))
        wall = time.time
        monkeypatch.setattr(dynens.executor.time, "time", lambda: wall() + 3600)
        outcome = polling_loop(task, timeout=30, poll_interval=0.05)
        assert outcome is TaskOutcome.FINISHED

    def test_signals_checked_while_waiting(self, live_exec, tmp_path):
        task = live_exec.submit(
            SubmitSpec(app="stub", app_args=("10", "1", "30")),
            one_node_assignment(), str(tmp_path))
        ctx = FakeCtx(signals=[("KILL", 7)], current={7}, deliver_on=3)
        outcome = polling_loop(task, ctx, poll_interval=0.1)
        assert outcome is TaskOutcome.KILLED_ON_SIGNAL
        assert ctx.calls == 3
        assert not (tmp_path / "forces.stat").exists()


class TestEnvScript:
    def test_sourced_env_reaches_app_only(self, live_platform, tmp_path):
        script = tmp_path / "setup.sh"
        script.write_text("export STAGE_FLAVOR=banana\n")
        app = tmp_path / "show_env.sh"
        app.write_text("#!/bin/bash\necho flavor=$STAGE_FLAVOR\n")
        app.chmod(0o755)
        ex = Executor(live_platform)
        ex.register_app("show", str(app))
        task = ex.submit(SubmitSpec(app="show", env_script=str(script)),
                         one_node_assignment(), str(tmp_path / "wd"))
        assert task.wait(timeout=20) is TaskState.FINISHED
        out = pathlib.Path(task.stdout_path).read_text()
        assert "flavor=banana" in out
        assert os.environ.get("STAGE_FLAVOR") is None  # worker env untouched


@pytest.mark.skipif(shutil.which("mpirun") is None, reason="no mpirun")
def test_real_openmpi_launch(tmp_path, stub_app):
    platform = PlatformSpec(mpi_runner="openmpi", cores_per_node=4,
                            gpu_setting_type="runner_default")
    ex = Executor(platform)
    ex.register_app("stub", stub_app)
    spec = SubmitSpec(app="stub", app_args=("20", "2"),
                      extra_args=("--allow-run-as-root", "--oversubscribe"))
    task = ex.submit(spec, one_node_assignment(), str(tmp_path))
    assert task.wait(timeout=60) is TaskState.FINISHED
    assert (tmp_path / "forces.stat").exists()
