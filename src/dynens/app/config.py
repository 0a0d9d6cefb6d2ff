"""YAML run configuration: parsing, validation, and assembly into the
objects run_ensemble consumes.

Validation errors name the offending field by its path in the document
(e.g. "gen.user.lb") so a config problem is fixable without reading this
module.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

import yaml

from ..resources import (
    Node,
    NodeInventory,
    PlatformSpec,
    detect_nodes,
    detect_platform,
    load_inventory_file,
)
from ..runtime import DefaultAlloc, ExitCriteria, PersistentAlloc, RunConfig
from .functions import GENERATORS, SIMULATORS

CONFIG_VERSION = 1

_TOP_KEYS = ("version", "ensemble", "exit", "platform", "inventory",
             "gen", "sim", "alloc")
_ENSEMBLE_KEYS = ("nworkers", "comms", "ensemble_dir", "seed", "dump_every")
_EXIT_KEYS = ("sim_max", "gen_max", "wallclock_max", "stop_val")
_PLATFORM_KEYS = ("name", "overrides")
_INVENTORY_KEYS = ("source", "path")
_GEN_KEYS = ("function", "user")
_SIM_KEYS = ("function", "error_policy", "user")
_ALLOC_KEYS = ("async",)
COMMS_MODES = ("local", "gen_on_manager")


class ConfigError(Exception):
    pass


def _mapping(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value

def _check_keys(block, allowed, path):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")

def _get_int(block, key, path, default=None, minimum=None):
    value = block.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value

def _get_number(block, key, path, default=None):
    value = block.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)

def _get_bool(block, key, path, default=None):
    value = block.get(key, default)
    if value is None:
        return None
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {value!r}")
    return value

def _get_str(block, key, path, default=None, choices=None):
    value = block.get(key, default)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"{path}.{key}: must be one of {', '.join(choices)}, got {value!r}")
    return value

def _get_box_edge(user, key, path, n_dims=None):
    value = user.get(key)
    if value is None:
        raise ConfigError(f"{path}.{key}: required")
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise ConfigError(f"{path}.{key}: expected a non-empty list of numbers")
    if n_dims is not None and len(value) != n_dims:
        raise ConfigError(
            f"{path}.{key}: length {len(value)} does not match lb length {n_dims}")
    return [float(v) for v in value]


@dataclass
class EnsembleConfig:
    """A validated configuration, ready to run."""

    run: RunConfig
    gen_name: str
    sim_name: str
    gen_fn: Callable
    sim_fn: Callable
    persistent: bool
    async_mode: bool = False

    def make_alloc(self):
        """Fresh allocator for one run, a resumed one included. A
        persistent generator needs the allocator that serves it; a
        one-shot one is called afresh for each batch."""
        if self.persistent:
            return PersistentAlloc(async_mode=self.async_mode)
        return DefaultAlloc()


def _resolve_function(block, registry, kind, path):
    name = _get_str(block, "function", path)
    if name is None:
        raise ConfigError(f"{path}.function: required")
    if name not in registry:
        raise ConfigError(
            f"{path}.function: unknown {kind} {name!r}; "
            f"available: {', '.join(sorted(registry))}")
    return name


def _build_exit(block) -> ExitCriteria:
    stop_val = None
    raw = block.get("stop_val")
    if raw is not None:
        raw = _mapping(raw, "exit.stop_val")
        _check_keys(raw, ("field", "threshold"), "exit.stop_val")
        fld = _get_str(raw, "field", "exit.stop_val", default="f")
        if fld != "f":
            raise ConfigError(
                f"exit.stop_val.field: only 'f' is supported, got {fld!r}")
        threshold = _get_number(raw, "threshold", "exit.stop_val")
        if threshold is None:
            raise ConfigError("exit.stop_val.threshold: required")
        stop_val = ("f", threshold)
    try:
        return ExitCriteria(
            sim_max=_get_int(block, "sim_max", "exit", minimum=0),
            gen_max=_get_int(block, "gen_max", "exit", minimum=0),
            wallclock_max=_get_number(block, "wallclock_max", "exit"),
            stop_val=stop_val,
        )
    except ValueError as exc:
        raise ConfigError(f"exit: {exc}") from exc


def _build_platform(block) -> PlatformSpec:
    name = _get_str(block, "name", "platform")
    overrides = _mapping(block.get("overrides"), "platform.overrides")
    valid = {f.name for f in dataclasses.fields(PlatformSpec)}
    _check_keys(overrides, sorted(valid), "platform.overrides")
    try:
        return detect_platform(name=name, overrides=overrides)
    except Exception as exc:
        raise ConfigError(f"platform: {exc}") from exc


def _build_inventory(block, platform, explicit) -> NodeInventory:
    source = _get_str(block, "source", "inventory",
                      default="detected", choices=("detected", "file"))
    path = _get_str(block, "path", "inventory")
    if source == "file":
        if path is None:
            raise ConfigError("inventory.path: required when source is 'file'")
        try:
            return load_inventory_file(path)
        except Exception as exc:
            raise ConfigError(f"inventory: {exc}") from exc
    if path is not None:
        raise ConfigError("inventory.path: only valid with source 'file'")
    inventory = detect_nodes()
    # Node detection cannot see GPUs, and an explicit cores_per_node
    # override beats whatever detection guessed.
    gpus = None
    if platform.gpus_per_node > 0 and all(n.gpus == 0 for n in inventory.nodes):
        gpus = platform.gpus_per_node
    cores = platform.cores_per_node if "cores_per_node" in explicit else None
    if gpus is None and cores is None:
        return inventory
    return NodeInventory([
        Node(name=n.name, cores=cores if cores is not None else n.cores,
             gpus=gpus if gpus is not None else n.gpus)
        for n in inventory.nodes])


def load_config(
    path: str | os.PathLike,
    nworkers: int | None = None,
    comms: str | None = None,
    platform: str | None = None,
    inventory_path: str | os.PathLike | None = None,
    seed: int | None = None,
    ensemble_dir: str | None = None,
) -> EnsembleConfig:
    """Load and validate a run configuration.

    Keyword arguments are command-line flags. Each edits the document
    before anything is validated, so its value is checked and reported as
    the field it sets: ensemble.*, platform.name, or, for inventory_path,
    an inventory block {source: file, path: ...}, which implies a platform.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {os.fspath(path)!s}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{os.fspath(path)!s}: invalid YAML: {exc}") from exc

    doc = _mapping(doc, "top level")
    for block, key, value in (("ensemble", "nworkers", nworkers),
                              ("ensemble", "comms", comms),
                              ("ensemble", "seed", seed),
                              ("ensemble", "ensemble_dir", ensemble_dir),
                              ("platform", "name", platform)):
        if value is not None:
            doc[block] = {**_mapping(doc.get(block), block), key: value}
    if inventory_path is not None:
        doc["inventory"] = {"source": "file", "path": os.fspath(inventory_path)}

    _check_keys(doc, _TOP_KEYS, "top level")
    version = doc.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"version: expected {CONFIG_VERSION}, got {version!r}")

    ens = _mapping(doc.get("ensemble"), "ensemble")
    _check_keys(ens, _ENSEMBLE_KEYS, "ensemble")
    nworkers = _get_int(ens, "nworkers", "ensemble", minimum=1)
    if nworkers is None:
        raise ConfigError("ensemble.nworkers: required")
    comms = _get_str(ens, "comms", "ensemble", default="local",
                     choices=COMMS_MODES)
    seed = _get_int(ens, "seed", "ensemble", default=0, minimum=0)
    ensemble_dir = _get_str(ens, "ensemble_dir", "ensemble",
                            default="ensemble")
    dump_every = _get_int(ens, "dump_every", "ensemble", minimum=1)

    exit_block = _mapping(doc.get("exit"), "exit")
    _check_keys(exit_block, _EXIT_KEYS, "exit")
    criteria = _build_exit(exit_block)

    block = _mapping(doc.get("platform"), "platform")
    _check_keys(block, _PLATFORM_KEYS, "platform")
    platform_overrides = _mapping(block.get("overrides"), "platform.overrides")
    platform_spec = inventory = None
    # Launching anything needs a platform; a bare inventory implies one.
    if "platform" in doc or "inventory" in doc:
        platform_spec = _build_platform(block)
    if "inventory" in doc:
        block = _mapping(doc["inventory"], "inventory")
        _check_keys(block, _INVENTORY_KEYS, "inventory")
        inventory = _build_inventory(block, platform_spec, platform_overrides)

    gen_block = _mapping(doc.get("gen"), "gen")
    _check_keys(gen_block, _GEN_KEYS, "gen")
    gen_name = _resolve_function(gen_block, GENERATORS, "generator", "gen")
    gen_fn, persistent = GENERATORS[gen_name]
    gen_user = dict(_mapping(gen_block.get("user"), "gen.user"))
    lb = _get_box_edge(gen_user, "lb", "gen.user")
    ub = _get_box_edge(gen_user, "ub", "gen.user", n_dims=len(lb))
    bad = [i for i in range(len(lb)) if lb[i] >= ub[i]]
    if bad:
        raise ConfigError(
            f"gen.user.ub: must exceed lb in every dimension "
            f"(violated at index {bad[0]})")
    if _get_int(gen_user, "batch_size", "gen.user", minimum=1) is None:
        raise ConfigError("gen.user.batch_size: required")
    gen_user["lb"], gen_user["ub"] = lb, ub
    if gen_name == "gp_active_learning":
        # Imported here: the GP stack is heavy, and only GP runs need it.
        from ..gp_generator import PARAM_KEYS
        _check_keys(gen_user, PARAM_KEYS, "gen.user")
        gen_user.setdefault("metrics_path",
                            os.path.join(ensemble_dir, "metrics.csv"))

    sim_block = _mapping(doc.get("sim"), "sim")
    _check_keys(sim_block, _SIM_KEYS, "sim")
    sim_name = _resolve_function(sim_block, SIMULATORS, "simulator", "sim")
    sim_fn = SIMULATORS[sim_name]
    sim_error = _get_str(sim_block, "error_policy", "sim", default="nan",
                         choices=("nan", "abort"))
    sim_user = dict(_mapping(sim_block.get("user"), "sim.user"))

    alloc_block = _mapping(doc.get("alloc"), "alloc")
    _check_keys(alloc_block, _ALLOC_KEYS, "alloc")
    async_mode = _get_bool(alloc_block, "async", "alloc", default=False)
    if async_mode and not persistent:
        raise ConfigError(
            f"alloc.async: streams results to a persistent generator; "
            f"{gen_name!r} is one-shot")
    if comms == "gen_on_manager" and not persistent:
        raise ConfigError(
            f"ensemble.comms: gen_on_manager hosts a persistent generator; "
            f"{gen_name!r} is one-shot")

    run_kwargs = dict(
        n_dims=len(lb),
        nworkers=nworkers,
        exit_criteria=criteria,
        comms=comms,
        ensemble_dir=ensemble_dir,
        seed=seed,
        sim_params=sim_user,
        gen_params=gen_user,
        platform=platform_spec,
        inventory=inventory,
        sim_error=sim_error,
    )
    if dump_every is not None:
        run_kwargs["dump_every"] = dump_every
    try:
        run = RunConfig(**run_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return EnsembleConfig(run=run, gen_name=gen_name, sim_name=sim_name,
                          gen_fn=gen_fn, sim_fn=sim_fn, persistent=persistent,
                          async_mode=async_mode)
