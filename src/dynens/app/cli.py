"""Command-line front end.

dynens run CONFIG       run an ensemble from a YAML configuration
dynens validate CONFIG  check a configuration and report what it resolves to
dynens replay-metrics HISTORY  summarize a dumped history table
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from ..history import History, HistoryError
from ..runtime import EnsembleError, run_ensemble
from ..runtime.manager import HISTORY_FILENAME
from .config import COMMS_MODES, ConfigError, load_config


def _add_override_flags(parser):
    parser.add_argument("--nworkers", type=int, metavar="N",
                        help="override ensemble.nworkers")
    parser.add_argument("--comms", metavar="MODE", help="override "
                        f"ensemble.comms ({' or '.join(COMMS_MODES)})")
    parser.add_argument("--platform", metavar="NAME",
                        help="override platform.name")
    parser.add_argument("--inventory", metavar="PATH",
                        help="node inventory file: the document's inventory "
                             "becomes {source: file, path: PATH}")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override ensemble.seed")
    parser.add_argument("--ensemble-dir", metavar="DIR",
                        help="override ensemble.ensemble_dir")


def _load(args):
    return load_config(
        args.config,
        nworkers=args.nworkers,
        comms=args.comms,
        platform=args.platform,
        inventory_path=args.inventory,
        seed=args.seed,
        ensemble_dir=args.ensemble_dir,
    )


def _summarize(history):
    returned, kill_sent, f = history.columns("returned", "kill_sent", "f")
    lines = [
        f"evaluations: {len(history)} generated, "
        f"{history.returned_count()} returned",
    ]
    killed = int(kill_sent.sum())
    failed = int((returned & np.isnan(f) & ~kill_sent).sum())
    if killed:
        lines.append(f"killed: {killed}")
    if failed:
        lines.append(f"failed: {failed}")
    best = history.best_f()
    if not math.isnan(best):
        # The first returned record that holds the best f.
        sid = int(np.flatnonzero(returned & (f == best))[0])
        coords = ", ".join(repr(v) for v in history.field(sid, "x").tolist())
        lines.append(f"best: f={history.field(sid, 'f')!r} at x=[{coords}] "
                     f"(sim {sid})")
    return lines


def _cmd_run(args):
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = dataclasses.replace(cfg.run, dry_run=args.dry_run)
    start = time.perf_counter()
    try:
        history, flag = run_ensemble(run, cfg.gen_fn, cfg.sim_fn,
                                     alloc=cfg.make_alloc())
    except (EnsembleError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(f"completed: {flag}")
    for line in _summarize(history):
        print(line)
    print(f"wall time: {elapsed:.2f}s")
    print(f"history: {os.path.join(run.ensemble_dir, HISTORY_FILENAME)}")
    # Dry-run stub sims return NaN by design.
    returned, f = history.columns("returned", "f")
    if not args.dry_run and history.returned_count() and not np.isfinite(
            f[returned]).any():
        print("error: no returned record has a finite f", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = cfg.run
    print(f"{args.config}: ok")
    print(f"gen: {cfg.gen_name} "
          f"({'persistent' if cfg.persistent else 'one-shot'}), "
          f"sim: {cfg.sim_name}, "
          f"alloc: {'persistent' if cfg.persistent else 'default'}"
          f"{' (async)' if cfg.async_mode else ''}")
    print(f"nworkers: {run.nworkers}, comms: {run.comms}, "
          f"n_dims: {run.n_dims}, seed: {run.seed}")
    crit = run.exit_criteria
    parts = []
    if crit.sim_max is not None:
        parts.append(f"sim_max={crit.sim_max}")
    if crit.gen_max is not None:
        parts.append(f"gen_max={crit.gen_max}")
    if crit.wallclock_max is not None:
        parts.append(f"wallclock_max={crit.wallclock_max}")
    if crit.stop_val is not None:
        parts.append(f"stop_val={crit.stop_val[1]}")
    print(f"exit: {', '.join(parts)}")
    if run.platform is not None:
        print(f"platform: {run.platform.name} ({run.platform.mpi_runner})")
    if run.inventory is not None:
        nodes = run.inventory.nodes
        gpus = sum(n.gpus for n in nodes)
        print(f"inventory: {len(nodes)} node(s), "
              f"{sum(n.cores for n in nodes)} cores, {gpus} gpus")
    return 0


def _cmd_replay_metrics(args):
    try:
        history = History.load(args.history)
    except (HistoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in _summarize(history):
        print(line)
    given_time, returned_time = history.columns("given_time", "returned_time")
    # An absent time is NaN, so only records with both times are kept.
    times = returned_time - given_time
    times = np.sort(times[~np.isnan(times)]).tolist()
    if times:
        print(f"sim time: median {times[len(times) // 2]:.3f}s, "
              f"max {times[-1]:.3f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynens",
        description="Run dynamic ensembles of simulations steered by a "
                    "generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an ensemble from a configuration")
    p_run.add_argument("config", help="YAML configuration file")
    _add_override_flags(p_run)
    p_run.add_argument("--dry-run", action="store_true",
                       help="print launch lines instead of executing apps")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a configuration")
    p_val.add_argument("config", help="YAML configuration file")
    _add_override_flags(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("replay-metrics",
                           help="summarize a dumped history table")
    p_rep.add_argument("history", help="history .tsv written by a run")
    p_rep.set_defaults(func=_cmd_replay_metrics)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
