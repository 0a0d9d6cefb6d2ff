"""Launching and controlling applications from worker processes.

Run lines are assembled from the platform's MPI runner family and the node
assignment; GPU visibility goes through an environment variable or a runner
option depending on the platform. Tasks are OS process groups so a kill
takes the whole tree, gracefully first.
"""

from __future__ import annotations

import enum
import logging
import math
import os
import shlex
import signal
import stat
import subprocess
import sys
import time
from dataclasses import dataclass

from dynens.resources import Assignment, PlatformSpec

log = logging.getLogger(__name__)

DEFAULT_POLL_INTERVAL = 0.5
DEFAULT_KILL_GRACE = 2.0


class TaskState(enum.Enum):
    CREATED = "CREATED"
    RUNNING = "RUNNING"
    FINISHED = "FINISHED"
    FAILED = "FAILED"
    USER_KILLED = "USER_KILLED"


TERMINAL_STATES = {TaskState.FINISHED, TaskState.FAILED, TaskState.USER_KILLED}


class TaskOutcome(enum.Enum):
    """How a supervised task ended, from polling_loop's point of view."""

    FINISHED = "FINISHED"
    FAILED = "FAILED"
    KILLED_ON_SIGNAL = "KILLED_ON_SIGNAL"
    KILLED_ON_TIMEOUT = "KILLED_ON_TIMEOUT"


class ExecutorError(Exception):
    pass


def build_runline(
    platform: PlatformSpec,
    assignment: Assignment,
    app_path: str,
    app_args: tuple[str, ...] = (),
    num_procs: int | None = None,
    num_gpus_per_node: int | None = None,
    extra_args: tuple[str, ...] = (),
) -> tuple[list[str], dict[str, str]]:
    """Compose (argv, extra environment) for one launch.

    num_procs defaults to the assignment's total and num_gpus_per_node to
    its per-node GPU count; GPU ids are always the assignment's. Per-node
    GPU counts and (for env settings) id lists must agree across nodes.
    """
    procs = num_procs if num_procs is not None else assignment.total_procs
    n_nodes = len(assignment.nodes)
    if procs < 1 or n_nodes < 1:
        raise ExecutorError(f"nothing to launch: procs={procs}, nodes={n_nodes}")
    ppn = math.ceil(procs / n_nodes)

    id_sets = {n.gpu_ids for n in assignment.nodes}
    if len(id_sets) > 1 and platform.gpu_setting_type == "env":
        raise ExecutorError(
            f"GPU ids differ across nodes {sorted(id_sets)}; an environment "
            "setting needs identical ids (schedule with match_slots)"
        )
    gpu_ids = assignment.nodes[0].gpu_ids
    if num_gpus_per_node is None:
        counts = {len(n.gpu_ids) for n in assignment.nodes}
        if len(counts) > 1:
            raise ExecutorError(
                "GPU counts differ across nodes; request a multiple of the node count"
            )
        num_gpus_per_node = len(gpu_ids)

    runner = platform.mpi_runner
    name = platform.runner_name
    if runner == "mpich":
        argv = [name, "-n", str(procs), "--ppn", str(ppn)]
    elif runner == "openmpi":
        argv = [name, "-np", str(procs), "--npernode", str(ppn)]
    elif runner == "srun":
        argv = [name, "-n", str(procs), "--nodes", str(n_nodes),
                "--ntasks-per-node", str(ppn)]
    elif runner == "aprun":
        argv = [name, "-n", str(procs), "-N", str(ppn)]
    elif runner == "jsrun":
        argv = [name, "-n", str(procs)]
    else:  # pragma: no cover - PlatformSpec validates the family
        raise ExecutorError(f"no run-line grammar for runner {runner!r}")

    env: dict[str, str] = {}
    if num_gpus_per_node > 0:
        joined = ",".join(str(i) for i in gpu_ids)
        if platform.gpu_setting_type == "env":
            env[platform.gpu_setting_name] = joined
        elif platform.gpu_setting_type == "option_gpus_per_node":
            argv += [platform.gpu_setting_name, str(num_gpus_per_node)]
        else:  # runner_default
            if runner == "srun":
                argv += ["--gpus-per-node", str(num_gpus_per_node)]
            elif platform.gpu_env_fallback:
                # The runner has no GPU mechanism of its own: fall back to
                # the platform's environment variable.
                env[platform.gpu_env_fallback] = joined

    argv += list(extra_args)
    argv.append(app_path)
    argv += [str(a) for a in app_args]
    return argv, env


@dataclass
class SubmitSpec:
    """One application launch request from a simulation function."""

    app: str
    app_args: tuple = ()
    num_procs: int | None = None
    num_gpus: int | None = None
    auto_assign_gpus: bool = False
    match_procs_to_gpus: bool = False
    extra_args: tuple = ()
    env_script: str | None = None
    timeout: float | None = None


class Task:
    """A launched application instance."""

    def __init__(self, task_id: str, argv: list[str], env: dict[str, str],
                 workdir: str, dry_run: bool = False):
        self.task_id = task_id
        self.argv = argv
        self.env_additions = env
        self.workdir = workdir
        self.dry_run = dry_run
        self.state = TaskState.CREATED
        self.return_code: int | None = None
        self.submit_time: float | None = None
        self.end_time: float | None = None
        self.stdout_path = os.path.join(workdir, f"{task_id}.out")
        self.stderr_path = os.path.join(workdir, f"{task_id}.err")
        self._proc: subprocess.Popen | None = None
        self._files: list = []

    @property
    def runline(self) -> str:
        return shlex.join(self.argv)

    def runtime(self) -> float:
        if self.submit_time is None:
            return 0.0
        end = self.end_time if self.end_time is not None else time.time()
        return end - self.submit_time

    def _start(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        out = open(self.stdout_path, "wb")
        err = open(self.stderr_path, "wb")
        self._files = [out, err]
        env = dict(os.environ)
        env.update(self.env_additions)
        try:
            self._proc = subprocess.Popen(
                self.argv,
                cwd=self.workdir,
                env=env,
                stdout=out,
                stderr=err,
                start_new_session=True,  # own process group: kills take the tree
            )
        except OSError as exc:
            self._close_files()
            raise ExecutorError(f"failed to launch {self.argv[0]!r}: {exc}") from exc
        self.submit_time = time.time()
        self.state = TaskState.RUNNING

    def _close_files(self) -> None:
        for fh in self._files:
            try:
                fh.close()
            except OSError:
                pass
        self._files = []

    def poll(self) -> TaskState:
        return self.wait_exit(0)

    def wait_exit(self, seconds: float | None) -> TaskState:
        """Block up to seconds (None: no limit) until a running task ends.

        Returns as soon as the process exits, with the task's state; the
        state is still RUNNING when the process outlived the wait.
        """
        if self.state is not TaskState.RUNNING:
            return self.state
        try:
            rc = self._proc.wait(seconds)
        except subprocess.TimeoutExpired:
            return self.state
        self.return_code = rc
        self.end_time = time.time()
        self.state = TaskState.FINISHED if rc == 0 else TaskState.FAILED
        self._close_files()
        return self.state

    def wait(self, timeout: float | None = None) -> TaskState:
        if self.wait_exit(timeout) is TaskState.RUNNING:
            raise TimeoutError(
                f"task {self.task_id} still running after {timeout} s"
            )
        return self.state

    def kill(self, grace: float = DEFAULT_KILL_GRACE) -> TaskState:
        """SIGTERM the process group, wait up to grace, then SIGKILL.

        A no-op on tasks that already ended.
        """
        if self.poll() in TERMINAL_STATES or self.state is TaskState.CREATED:
            if self.state is TaskState.CREATED:
                self.state = TaskState.USER_KILLED
            return self.state
        pgid = os.getpgid(self._proc.pid) if self._proc.pid else None
        self._signal_group(pgid, signal.SIGTERM)
        if self.wait_exit(grace) is TaskState.RUNNING:
            self._signal_group(pgid, signal.SIGKILL)
            self.wait_exit(None)
        self.state = TaskState.USER_KILLED
        return self.state

    def _signal_group(self, pgid: int | None, sig: int) -> None:
        try:
            if pgid is not None:
                os.killpg(pgid, sig)
            else:
                self._proc.send_signal(sig)
        except ProcessLookupError:
            pass


class Executor:
    """Registers applications and launches them per worker."""

    def __init__(self, platform: PlatformSpec, dry_run: bool = False):
        self.platform = platform
        self.dry_run = dry_run
        self._apps: dict[str, str] = {}
        self._counter = 0

    def register_app(self, name: str, path: str) -> None:
        if not name:
            raise ExecutorError("application name must be non-empty")
        self._apps[name] = os.fspath(path)

    def app_path(self, name: str) -> str:
        try:
            return self._apps[name]
        except KeyError:
            raise ExecutorError(
                f"no application registered as {name!r}; "
                f"registered: {sorted(self._apps)}"
            ) from None

    def submit(
        self,
        spec: SubmitSpec,
        assignment: Assignment,
        workdir: str,
        worker_id: int = 0,
    ) -> Task:
        """Launch one task for the given assignment.

        When the executor was built with dry_run, the run line is composed
        and printed but no process starts; the task stays CREATED.
        """
        path = self.app_path(spec.app)
        if not self.dry_run and not os.path.exists(path):
            raise ExecutorError(f"application path {path!r} does not exist")

        gpus_total = None
        if spec.auto_assign_gpus:
            gpus_total = sum(len(n.gpu_ids) for n in assignment.nodes)
        elif spec.num_gpus is not None:
            gpus_total = spec.num_gpus
        n_nodes = len(assignment.nodes)
        gpn = None
        if gpus_total is not None:
            if gpus_total % n_nodes:
                raise ExecutorError(
                    f"{gpus_total} gpus do not divide over {n_nodes} node(s)"
                )
            gpn = gpus_total // n_nodes

        procs = spec.num_procs
        if spec.match_procs_to_gpus:
            total = gpus_total if gpus_total is not None else sum(
                len(n.gpu_ids) for n in assignment.nodes
            )
            if total < 1:
                raise ExecutorError("match_procs_to_gpus with no GPUs assigned")
            procs = total

        argv, env = build_runline(
            self.platform,
            assignment,
            app_path=path,
            app_args=tuple(spec.app_args),
            num_procs=procs,
            num_gpus_per_node=gpn,
            extra_args=tuple(spec.extra_args),
        )
        self._counter += 1
        task_id = f"task_w{worker_id}_{self._counter}"

        if spec.env_script:
            argv = [_wrap_with_env_script(spec.env_script, argv, workdir, task_id)]

        task = Task(task_id, argv, env, workdir, dry_run=self.dry_run)
        if self.dry_run:
            # One write per line: workers share stdout, and print's separate
            # newline write lets lines from two workers run together.
            sys.stdout.write(f"[dry-run] {task.runline}\n")
            sys.stdout.flush()
        else:
            task._start()
            log.debug("launched %s: %s", task_id, task.runline)
        return task


def _wrap_with_env_script(env_script: str, argv: list[str], workdir: str,
                          task_id: str) -> str:
    """Write a wrapper that sources the script, then execs the run line.

    Keeps the sourced environment inside the task's own shell.
    """
    os.makedirs(workdir, exist_ok=True)
    wrapper = os.path.join(workdir, f"{task_id}_env_wrap.sh")
    with open(wrapper, "w") as fh:
        fh.write("#!/bin/bash\n")
        fh.write(f"source {shlex.quote(env_script)}\n")
        fh.write(f"exec {shlex.join(argv)}\n")
    os.chmod(wrapper, os.stat(wrapper).st_mode | stat.S_IXUSR)
    return wrapper


def polling_loop(
    task: Task,
    ctx=None,
    timeout: float | None = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    grace: float = DEFAULT_KILL_GRACE,
) -> TaskOutcome:
    """Supervise a task until it ends, honoring manager signals and a timeout.

    The loop blocks on the task's process, so an app's exit is seen when it
    happens and a timeout kill fires at the deadline. poll_interval bounds
    only how late a manager KILL or STOP signal is acted on: signals are
    drained before each wait, and no wait lasts longer than poll_interval.

    ctx, when given, must provide poll_signals() yielding ("STOP", None) or
    ("KILL", sim_id) tuples, and a current_sim_ids set; a KILL for a sim this
    worker is not running is ignored. Timeout is measured from task submit.
    """
    if task.dry_run:
        return TaskOutcome.FINISHED
    if task.state is TaskState.CREATED:
        raise ExecutorError("polling_loop needs a started task")
    state = task.poll()
    while state is TaskState.RUNNING:
        if ctx is not None:
            for kind, sim_id in ctx.poll_signals():
                if kind == "STOP" or (
                    kind == "KILL"
                    and (sim_id is None or sim_id in ctx.current_sim_ids)
                ):
                    task.kill(grace)
                    return TaskOutcome.KILLED_ON_SIGNAL
        wait = poll_interval
        if timeout is not None:
            left = timeout - task.runtime()
            if left <= 0:
                task.kill(grace)
                return TaskOutcome.KILLED_ON_TIMEOUT
            wait = min(wait, left)
        state = task.wait_exit(wait)
    if state is TaskState.FINISHED:
        return TaskOutcome.FINISHED
    return TaskOutcome.FAILED
