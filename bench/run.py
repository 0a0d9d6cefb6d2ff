"""Benchmark command: run one workload and print its metrics.

    python3 bench/run.py --workload norm_stream --seed 1 --seconds 40 --trace 0

Runs from the root of a dynens source checkout and imports dynens from its
``src/``. A run repeats full episodes of the workload (one ``run_ensemble``
call each) while they fit in ``--seconds``, then reloads the last
episode's dump, checks it against the in-memory history and, on
norm_stream, resumes it for one more batch. Every record and every
run-level check is verified; a wrong output makes the command exit 1.
With ``--trace 1`` the second half of the episodes run under the layer
tracer (tracer.py) and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The same result,
stamped with a host fingerprint, is written to
``.bench_run/results/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_BASE = os.path.join(ROOT, ".bench_run")

# Metrics in the result line: name -> (unit, better, what). On a shared
# 2-core VM the speed of the CPU drifts by a fifth or more within a minute,
# so only these four, whose medians over a run hold steadiest, are gated;
# the rest are printed (README.md).
END_TO_END = {
    "sims_per_s": ("1/s", "higher", "new records returned per second of run_ensemble"),
    "setup_s": ("s", "lower", "call into run_ensemble until the first dispatch"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the manager process, first episode"),
    "manager_cpu_us_per_sim": ("us", "lower", "manager process CPU time per new record"),
}
# Printed in the report and kept in the result file, not gated.
ALSO = {
    "tail_us_per_sim": ("us", "manager wall time per record, last fifth of a run"),
    "latency_ms.p50": ("ms", "record dispatch to result, median"),
    "latency_ms.p90": ("ms", "record dispatch to result, 90th percentile"),
    "batch_rtt_ms.p50": ("ms", "generator round trip per batch, median"),
    "batch_rtt_ms.p90": ("ms", "generator round trip per batch, 90th percentile"),
    "iter_s.p50": ("s", "time between consecutive batch dispatches, median"),
    "resume_s": ("s", "History.load of the final dump until the first new dispatch"),
    "gp_test_mse": ("mse", "final test-set MSE of the surrogate, median"),
    "failed_frac": ("frac", "failed checks and records over those attempted"),
}


def _import_dynens():
    if not os.path.isfile(os.path.join(SRC, "dynens", "__init__.py")):
        sys.exit(f"error: {SRC}/dynens not found; run from a dynens source checkout")
    sys.path.insert(0, SRC)
    import dynens  # noqa: F401


# -- host fingerprint ------------------------------------------------------


def fingerprint(ens_dir: str) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "ensemble_fs": _fs_type(ens_dir),
    }


def _fs_type(path: str) -> str | None:
    """Filesystem type of the longest mount point containing path."""
    path = os.path.realpath(path)
    best, kind = "", None
    with open("/proc/self/mounts") as fh:
        for line in fh:
            mnt, fstype = line.split()[1:3]
            inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
            if inside and len(mnt) >= len(best):
                best, kind = mnt, fstype
    return kind


def _cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters, user through steal, from /proc/stat."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def _steal_share(before: list[int], after: list[int]) -> float:
    """Share of this machine's CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


# -- figures ---------------------------------------------------------------


def figures(summaries: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """Metric values and their sample counts, from episode summaries."""
    from workloads import percentile, pool

    s = pool(summaries)
    med = statistics.median
    values = {
        "sims_per_s": med(s["sims_per_s"]),
        "setup_s": med(s["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "manager_cpu_us_per_sim": med(s["manager_cpu_us_per_sim"]),
        "tail_us_per_sim": med(s["tail_us_per_sim"]),
        "latency_ms.p50": percentile(s["latency_ms"], 50),
        "latency_ms.p90": percentile(s["latency_ms"], 90),
        "batch_rtt_ms.p50": percentile(s["batch_rtt_ms"], 50),
        "batch_rtt_ms.p90": percentile(s["batch_rtt_ms"], 90),
        "iter_s.p50": percentile(s["iter_s"], 50),
    }
    if s.get("gp_test_mse"):
        values["gp_test_mse"] = med(s["gp_test_mse"])
    counts = {name: len(s[name.split(".")[0]]) for name in values if name != "peak_rss_mb"}
    counts["peak_rss_mb"] = 1
    return values, counts


# -- one run ---------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        workloads=None) -> int:
    """Run one workload; print the report and the result line; return the
    exit code. workloads overrides the name -> class table (self-check)."""
    import workloads as wmod

    table = workloads if workloads is not None else wmod.WORKLOADS
    if workload not in table:
        print(f"error: unknown workload {workload!r}; known: {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[workload]()
    # Deferral warnings are expected on app_launch; keep the report readable.
    logging.getLogger("dynens").setLevel(logging.ERROR)
    run_dir = os.path.join(RUN_BASE, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.join(RUN_BASE, "results"), exist_ok=True)
    os.environ["TMPDIR"] = run_dir
    try:
        return _run(wl, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(wl, seed, seconds, trace, run_dir) -> int:
    from workloads import Checks, Skipped, reload, summarize

    host = fingerprint(run_dir)
    try:
        wl.prepare(run_dir)
    except Skipped as exc:
        print(f"workload {wl.name} skipped: {exc}")
        print(json.dumps({"skipped": str(exc), "host": host}))
        return 3
    recorder = None
    if trace:
        from tracer import Recorder
        recorder = Recorder(os.path.join(run_dir, "spans"))

    checks = Checks()
    ticks = _cpu_ticks()
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def episode(n, traced):
        eseed = seed * 1000 + n
        ens_dir = os.path.join(run_dir, f"ep{n}")
        H0 = wl.prior_history(eseed)
        gc.collect()
        if traced:
            with recorder.active():
                ep = wl.run_episode(eseed, ens_dir, wl.sim_max,
                                    sim_wrap=recorder.wrap_sim, H0=H0)
            recorder.close_episode(wl, ep)
        else:
            ep = wl.run_episode(eseed, ens_dir, wl.sim_max, H0=H0)
        wl.check(ep, eseed, checks)
        return ep

    def fits(until, factor=1.0):
        return time.perf_counter() + factor * last.wall_s <= until

    # Untraced episodes fill the run (its first half when tracing), traced
    # ones the rest; at least one of each. Only summaries are kept, plus the
    # last episode, whose dump is reloaded.
    plain, traced, last = [], [], None
    while last is None or fits(t_start + (seconds / 2 if trace else seconds)):
        if last is not None:
            shutil.rmtree(last.ens_dir, ignore_errors=True)
        last = None
        last = episode(len(plain), False)
        if not plain:
            # A user's process runs one ensemble. Resident memory grows by a
            # few MB with each further episode in one process, so a later
            # peak would depend on how many episodes fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain.append(summarize(wl, last))
    while trace and (not traced or fits(deadline, 1.5)):
        shutil.rmtree(last.ens_dir, ignore_errors=True)
        last = None
        last = episode(len(plain) + len(traced), True)
        traced.append(last.wall_s)

    rseed = seed * 1000 + len(plain) + len(traced)
    resume_dir = os.path.join(run_dir, "resume")
    gc.collect()
    if trace:
        with recorder.active():
            resume_s = reload(wl, last, rseed, resume_dir, checks, sim_wrap=recorder.wrap_sim)
        recorder.close_reload()
    else:
        resume_s = reload(wl, last, rseed, resume_dir, checks)
    elapsed = time.perf_counter() - t_start
    host["steal_share"] = _steal_share(ticks, _cpu_ticks())

    values, counts = figures(plain, peak_rss_mb)
    if resume_s is not None:
        values["resume_s"], counts["resume_s"] = resume_s, 1
    values["failed_frac"] = checks.failed / checks.attempted
    counts["failed_frac"] = checks.attempted
    if trace:
        from tracer import UNITS

        metrics = recorder.report([p["wall_s"][0] for p in plain], traced)
        units = UNITS
        recorder.write_spans(os.path.join(RUN_BASE, "results",
                                          f"{wl.name}-s{seed}-spans.jsonl.gz"))
    else:
        metrics = {name: values[name] for name in END_TO_END}
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}

    print(f"workload {wl.name}: seed {seed}, {len(plain)} episodes"
          f"{f' + {len(traced)} traced' if trace else ''} of {wl.sim_max} new records,"
          f" {elapsed:.1f} s")
    for name, (unit, better, what) in END_TO_END.items():
        print(f"  {name:24s} {values[name]:14.6g} {unit:5s} n={counts[name]:<6d} "
              f"{better} is better; {what}")
    for name, (unit, what) in ALSO.items():
        if name in values:
            print(f"  {name:24s} {values[name]:14.6g} {unit:5s} n={counts[name]:<6d} "
                  f"(not gated) {what}")
    if trace:
        for name in sorted(metrics):
            print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}")
    for problem in checks.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"host {json.dumps(host)}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = os.path.join(RUN_BASE, "results", f"{wl.name}-s{seed}-t{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, workload=wl.name, seed=seed, seconds=seconds, host=host,
                       figures=values, samples=counts,
                       episodes={k: [p[k][0] for p in plain] for k in
                                 ("wall_s", "sims_per_s", "manager_cpu_us_per_sim")}),
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_dynens()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
