"""Layer tracer for the traced benchmark run.

Wraps the public entry points of each dynens layer from the outside (by
patching module and class attributes for the duration of a traced
episode; nothing under ``src/`` changes) and records one span per call:
name, start, end, the enclosing span on the same thread, and a few
attributes. Spans stay in memory in the manager process. Workers are
forked and return no memory, so the wrapped simulator appends each
worker's spans to a per-process file after every call. All times come
from ``time.monotonic`` (CLOCK_MONOTONIC, shared across processes), so
manager and worker spans line up.

A span's self time is its duration minus the durations of its direct
children. Per-layer metrics are computed per traced episode and reported
as the median over the traced episodes of a run.
"""

from __future__ import annotations

import functools
import glob
import gzip
import itertools
import json
import multiprocessing.queues
import os
import pickle
import statistics
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

import dynens.app.functions
import dynens.gp_generator
import dynens.runtime.manager
from dynens.executor import Executor
from dynens.history import History
from dynens.resources import ResourcePool
from dynens.runtime import HistoryView, PersistentAlloc
from dynens.runtime.messages import KillMsg, ResultsMsg, StopMsg, WorkMsg
from dynens.surrogate import GaussianProcess
from workloads import SHIM_LOG

TO_WORKER = (WorkMsg, ResultsMsg, StopMsg, KillMsg)


class Span(NamedTuple):
    pid: int
    tid: int
    sid: int
    parent: int      # sid of the enclosing span on the same thread, 0 if none
    name: str
    t0: float
    t1: float
    attrs: dict | None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


# -- attribute extractors: (args, kwargs, result, exc) -> dict -------------


def _ids_given(args, kwargs, result, exc):
    return {"ids": list(args[1])}


def _ids_returned(args, kwargs, result, exc):
    return {"ids": [sid for sid, _ in args[1]]}


def _dump_bytes(args, kwargs, result, exc):
    return {"bytes": os.path.getsize(args[1])} if exc is None else None


def _put_bytes(args, kwargs, result, exc):
    if isinstance(args[1], TO_WORKER):
        return {"bytes": len(pickle.dumps(args[1]))}
    return None


def _train(args, kwargs, result, exc):
    method = args[1] if len(args) > 1 else kwargs.get("method", "global")
    return {"method": method, "evals": result.evaluations if result else 0}


def _candidates(args, kwargs, result, exc):
    return {"n": len(args[0].points)}


def _placed(args, kwargs, result, exc):
    return {"ok": exc is None, "rsets": len(result.rset_ids) if result else 0}


def _released(args, kwargs, result, exc):
    return {"rsets": len(args[1].rset_ids)}


def _task_end(args, kwargs, result, exc):
    return {"wall_end": time.time(), "workdir": args[0].workdir}


# (owner, attribute, span name, attribute extractor)
LAYER_ENTRY_POINTS = (
    (dynens.runtime.manager, "check_exit", "manager.check_exit", None),
    (PersistentAlloc, "__call__", "alloc", None),
    (HistoryView, "gen_record_ids", "HistoryView.gen_record_ids", None),
    (History, "returned_count", "History.returned_count", None),
    (History, "pending_sims", "History.pending_sims", None),
    (History, "submit_points", "History.submit_points", None),
    (History, "mark_given", "History.mark_given", _ids_given),
    (History, "update_with_results", "History.update_with_results", _ids_returned),
    (History, "dump", "History.dump", _dump_bytes),
    (History, "load", "History.load", None),
    (multiprocessing.queues.Queue, "put", "queue.put", _put_bytes),
    (GaussianProcess, "train", "GaussianProcess.train", _train),
    (GaussianProcess, "posterior", "GaussianProcess.posterior", None),
    (dynens.gp_generator, "select_batch", "gp.select_batch", _candidates),
    (dynens.gp_generator, "metrics", "gp.metrics", None),
    (dynens.gp_generator._OnlineLearner, "ingest", "gp.ingest", None),
    (ResourcePool, "schedule", "ResourcePool.schedule", _placed),
    (ResourcePool, "schedule_default", "ResourcePool.schedule", _placed),
    (ResourcePool, "release", "ResourcePool.release", _released),
    (Executor, "submit", "Executor.submit", None),
    (dynens.app.functions, "polling_loop", "polling_loop", _task_end),
)

# Per-layer metric name -> unit.
UNITS = {
    "history.dump_s": "s", "history.dump_bytes": "bytes", "history.dumps": "count",
    "history.returned_count_s": "s", "history.pending_sims_s": "s",
    "history.gen_record_ids_s": "s", "history.scan_calls": "count",
    "history.load_s": "s",
    "manager.cycles": "count", "manager.check_exit_s": "s", "manager.idle_wait_s": "s",
    "alloc.calls": "count", "alloc.self_s": "s", "alloc.deferred": "count",
    "worker.sim_s": "s", "worker.busy_frac": "frac",
    "transit.to_worker_ms.p50": "ms", "transit.to_manager_ms.p50": "ms",
    "messages.puts": "count", "messages.bytes": "bytes",
    "surrogate.train_s": "s", "surrogate.train_calls.global": "count",
    "surrogate.train_calls.local": "count", "surrogate.lml_evals": "count",
    "surrogate.posterior_s": "s",
    "gp.select_s": "s", "gp.ingest_s": "s", "gp.metrics_s": "s",
    "gp.candidates": "count", "gp.test_mse": "mse",
    "resources.schedule_calls": "count", "resources.schedule_s": "s",
    "resources.place_ratio": "frac", "resources.rset_busy_frac": "frac",
    "executor.launches": "count", "executor.submit_ms.p50": "ms",
    "executor.detect_lag_ms.p50": "ms",
    "trace.overhead_frac": "frac",
}


class Recorder:
    """Records spans while active() is entered; see the module docstring."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        os.makedirs(span_dir, exist_ok=True)
        self._reset()
        self.per_episode: list[dict] = []
        self.load_s = 0.0
        self.kept: list[Span] = []

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        if os.getpid() != self.pid:
            self._reset()  # a forked worker starts with no spans of its own
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = exc = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.monotonic()
                stack.pop()
                extra = attrs(args, kwargs, result, exc) if attrs else None
                self.spans.append(Span(os.getpid(), threading.get_ident(), sid,
                                       parent, name, t0, t1, extra))

        return traced

    @contextmanager
    def active(self):
        saved = []
        for owner, attr, name, attrs in LAYER_ENTRY_POINTS:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap_sim(self, sim_fn):
        """The simulator as a traced span that flushes the worker's spans."""
        traced = self.wrap("worker.sim", sim_fn,
                           lambda a, k, r, e: {"ids": [rec.sim_id for rec in a[0]]})

        def sim(records, params, ctx):
            try:
                return traced(records, params, ctx)
            finally:
                self._flush_worker()

        return sim

    def _flush_worker(self):
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def _collect(self) -> list[Span]:
        spans, self.spans = self.spans, []
        for path in sorted(glob.glob(os.path.join(self.span_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans += [Span(*json.loads(line)) for line in fh]
            os.remove(path)
        return spans

    # -- per-layer metrics ---------------------------------------------------

    def close_episode(self, wl, ep) -> None:
        spans = self._collect()
        self.kept = spans
        metrics = layer_metrics(spans, ep.wall_s, wl)
        metrics["gp.test_mse"] = wl.episode_metrics(ep).get("gp_test_mse", 0.0)
        self.per_episode.append(metrics)

    def close_reload(self) -> None:
        spans = self._collect()
        self.load_s = sum(s.dur for s in spans if s.name == "History.load")

    def write_spans(self, path: str) -> None:
        """Spans of the last traced episode, one JSON list per line."""
        with gzip.open(path, "wt") as fh:
            for s in self.kept:
                fh.write(json.dumps(s) + "\n")

    def report(self, untraced_walls: list[float], traced_walls: list[float]) -> dict:
        out = {name: statistics.median(ep.get(name, 0.0) for ep in self.per_episode)
               for name in UNITS}
        out["history.load_s"] = self.load_s
        out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0)
        return {k: float(v) for k, v in out.items()}


def _p50(values) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], wall: float, wl) -> dict:
    """Per-layer figures for one traced episode."""
    manager_pid = os.getpid()
    by_name: dict[str, list[Span]] = {}
    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent:
            key = (s.pid, s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.dur

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.dur for s in named(name))

    def self_time(name):
        return sum(s.dur - child_time.get((s.pid, s.sid), 0.0) for s in named(name))

    main_tid = threading.main_thread().ident
    top = sum(s.dur for s in spans
              if s.pid == manager_pid and s.tid == main_tid and not s.parent)

    given_end = {i: s.t1 for s in named("History.mark_given") for i in s.attrs["ids"]}
    returned_start = {i: s.t0 for s in named("History.update_with_results")
                      for i in s.attrs["ids"]}
    to_worker, to_manager = [], []
    for s in named("worker.sim"):
        for i in s.attrs["ids"]:
            if i in given_end:
                to_worker.append((s.t0 - given_end[i]) * 1e3)
            if i in returned_start:
                to_manager.append((returned_start[i] - s.t1) * 1e3)

    puts = [s for s in named("queue.put") if s.pid == manager_pid and s.attrs]
    trains = named("GaussianProcess.train")
    places = named("ResourcePool.schedule")
    in_alloc = {s.sid for s in named("alloc")}

    # Resource sets held over time: +n at each placement, -n at each release.
    events = sorted([(s.t1, s.attrs["rsets"]) for s in places if s.attrs["ok"]]
                    + [(s.t0, -s.attrs["rsets"]) for s in named("ResourcePool.release")])
    busy = held = 0.0
    for (t, delta), (t_next, _) in zip(events, events[1:]):
        held += delta
        busy += held * (t_next - t)

    lags = []
    for s in named("polling_loop"):
        log = os.path.join(s.attrs["workdir"], SHIM_LOG)
        if os.path.exists(log):
            with open(log) as fh:
                app_end = float(fh.read().split("\t")[4])
            lags.append((s.attrs["wall_end"] - app_end) * 1e3)

    n_sim_workers = wl.nworkers - 1
    return {
        "history.dump_s": total("History.dump"),
        "history.dump_bytes": sum(s.attrs["bytes"] for s in named("History.dump")),
        "history.dumps": len(named("History.dump")),
        "history.returned_count_s": total("History.returned_count"),
        "history.pending_sims_s": total("History.pending_sims"),
        "history.gen_record_ids_s": total("HistoryView.gen_record_ids"),
        "history.scan_calls": sum(len(named(n)) for n in (
            "History.returned_count", "History.pending_sims",
            "HistoryView.gen_record_ids")),
        "manager.cycles": len(named("manager.check_exit")),
        "manager.check_exit_s": self_time("manager.check_exit"),
        "manager.idle_wait_s": wall - top,
        "alloc.calls": len(named("alloc")),
        "alloc.self_s": self_time("alloc"),
        "alloc.deferred": sum(1 for s in places
                              if not s.attrs["ok"] and s.parent in in_alloc),
        "worker.sim_s": total("worker.sim"),
        "worker.busy_frac": total("worker.sim") / (n_sim_workers * wall),
        "transit.to_worker_ms.p50": _p50(to_worker),
        "transit.to_manager_ms.p50": _p50(to_manager),
        "messages.puts": len(puts),
        "messages.bytes": sum(s.attrs["bytes"] for s in puts),
        "surrogate.train_s": total("GaussianProcess.train"),
        "surrogate.train_calls.global": sum(1 for s in trains if s.attrs["method"] == "global"),
        "surrogate.train_calls.local": sum(1 for s in trains if s.attrs["method"] == "local"),
        "surrogate.lml_evals": sum(s.attrs["evals"] for s in trains),
        "surrogate.posterior_s": total("GaussianProcess.posterior"),
        "gp.select_s": total("gp.select_batch"),
        "gp.ingest_s": total("gp.ingest"),
        "gp.metrics_s": total("gp.metrics"),
        "gp.candidates": sum(s.attrs["n"] for s in named("gp.select_batch")),
        "resources.schedule_calls": len(places),
        "resources.schedule_s": total("ResourcePool.schedule"),
        "resources.place_ratio": (sum(1 for s in places if s.attrs["ok"]) / len(places)
                                  if places else 0.0),
        "resources.rset_busy_frac": busy / (wl.n_rsets * wall) if wl.n_rsets else 0.0,
        "executor.launches": len(named("Executor.submit")),
        "executor.submit_ms.p50": _p50([s.dur * 1e3 for s in named("Executor.submit")]),
        "executor.detect_lag_ms.p50": _p50(lags),
    }
