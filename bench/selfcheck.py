"""Smoke-size self-check of the benchmark; finishes in well under a minute.

    python3 bench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints a correct result with every declared metric. Then shows that
a deliberately wrong simulator makes the command exit 1, and that the
command fails without a result in a directory that holds only the
benchmark. Finally it reproduces two known program findings that the
workloads are built to avoid, and prints whether they still hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

run._import_dynens()

import numpy as np  # noqa: E402
import workloads as w  # noqa: E402
from dynens.app.functions import sim_norm  # noqa: E402
from dynens.executor import Executor, ExecutorError, SubmitSpec  # noqa: E402
from dynens.resources import (  # noqa: E402
    Node, NodeInventory, PlatformSpec, ResourcePool, ResourceRequest)


class SmokeNorm(w.NormStream):
    sim_max = 200
    prior = 500


class SmokeGp(w.GpActive):
    sim_max = 48


class SmokeApp(w.AppLaunch):
    sim_max = 16


SMOKE = {cls.name: cls for cls in (SmokeNorm, SmokeGp, SmokeApp)}


def wrong_norm(records, params, ctx):
    """sim_norm with one value in a hundred off in the last place."""
    out = sim_norm(records, params, ctx)
    if records[0].sim_id % 100 == 7:
        out[0] = float(out[0]) * (1 + 2**-52)
    return out


class WrongNorm(SmokeNorm):
    def sim_fn(self):
        return wrong_norm


def split_gpu_request_fails() -> str | None:
    """Known program defect, kept out of app_launch (a workload must not
    fail) and reproduced here instead: a 3-GPU request that the scheduler
    splits over two nodes cannot be launched. Returns the error, or None
    once the defect is fixed."""
    pool = ResourcePool(NodeInventory([Node("node0", 8, 4), Node("node1", 8, 4)]),
                        num_workers=5, dedicated_gen=True)
    pool.rsets[0].free = pool.rsets[2].free = False   # slot 0 busy on both nodes
    assignment = pool.schedule(ResourceRequest(num_gpus=3))
    executor = Executor(PlatformSpec(name="split", cores_per_node=8, gpus_per_node=4,
                                     gpu_setting_type="env",
                                     gpu_setting_name="CUDA_VISIBLE_DEVICES"),
                        dry_run=True)
    executor.register_app("app", "/bin/true")
    spec = SubmitSpec(app="app", auto_assign_gpus=True, match_procs_to_gpus=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            executor.submit(spec, assignment, os.path.join(run.RUN_BASE, "split"))
    except ExecutorError as exc:
        return str(exc)
    return None


def poor_fit_share() -> float:
    """Known learning-quality finding, reproduced here because gp_active
    only reports its test MSE: with the workload's settings, the episode
    seeded 206000 ends with a test MSE above the test-set variance, worse
    than predicting a constant."""
    wl = w.GpActive()
    ens_dir = os.path.join(run.RUN_BASE, "poor-fit")
    ep = wl.run_episode(206000, ens_dir, wl.sim_max)
    share = wl.test_mse(ep) / float(np.var(wl.test_set(206000)[1]))
    shutil.rmtree(ens_dir, ignore_errors=True)
    return share


def _run(name, trace, table):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run(name, seed=3, seconds=1.0, trace=trace, workloads=table)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    bench = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    want = {False: {m["name"] for m in bench["end_to_end"]},
            True: {m["name"] for m in bench["per_layer"]}}
    failures = []
    for name in SMOKE:
        for trace in (False, True):
            code, result = _run(name, trace, SMOKE)
            label = f"{name} trace={int(trace)}"
            if "skipped" in result:
                print(f"skip {label}: {result['skipped']}")
                continue
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == want[trace])
            print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {code}, "
                  f"{result['attempted']} checked, {result['failed']} failed")
            if not ok:
                failures.append(label)

    code, result = _run("norm_stream", False, {"norm_stream": WrongNorm})
    ok = code == 1 and not result["correct"] and result["failed"] >= 1
    print(f"{'ok  ' if ok else 'FAIL'} wrong simulator: exit {code}, "
          f"correct={result['correct']}, {result['failed']} failed")
    if not ok:
        failures.append("wrong simulator")

    # The command must refuse to run without the dynens sources beside it.
    bare = os.path.join(run.RUN_BASE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "norm_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if ok else 'FAIL'} bare directory: exit {proc.returncode}")
    if not ok:
        failures.append("bare directory")

    error = split_gpu_request_fails()
    print(f"note known defect {'still present: ' + error if error else 'fixed'} "
          "(3-GPU request split over two nodes)")

    share = poor_fit_share()
    print(f"note known finding {'still present' if share >= 1 else 'gone'}: "
          f"GP test MSE of the episode seeded 206000 is {share:.2f} x the test-set variance")

    print("self-check " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
