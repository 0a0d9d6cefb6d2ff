"""Platform knowledge, node inventories, and resource-set scheduling.

A node's CPU (and GPU) capacity is partitioned into equal resource sets, one
per simulation worker. The scheduler hands out free resource sets against
requests expressed in processes and GPUs, using an even split across the
smallest workable number of nodes.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
import shutil
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

log = logging.getLogger(__name__)

PLATFORM_ENV_VAR = "DYNENS_PLATFORM"

GPU_SETTING_TYPES = ("env", "runner_default", "option_gpus_per_node")


class ResourceError(Exception):
    """Inventory or partitioning contract violation (fatal)."""


class InsufficientResources(Exception):
    """The request cannot be met from currently free resource sets.

    Non-fatal: the caller may retry after releases.
    """


@dataclass
class PlatformSpec:
    """Launch-relevant facts about a machine."""

    name: str = "generic"
    mpi_runner: str = "mpich"        # grammar family: mpich|openmpi|srun|aprun|jsrun
    runner_name: str = ""            # executable; defaults per runner family
    cores_per_node: int = 1
    gpus_per_node: int = 0
    gpu_setting_type: str = "runner_default"
    gpu_setting_name: str = ""       # env var or runner option, per setting type
    gpu_env_fallback: str = ""       # env var used when the runner has no GPU mechanism

    def __post_init__(self):
        if self.mpi_runner not in _RUNNER_DEFAULT_NAMES:
            raise ResourceError(
                f"unknown mpi_runner {self.mpi_runner!r}; "
                f"known: {sorted(_RUNNER_DEFAULT_NAMES)}"
            )
        if not self.runner_name:
            self.runner_name = _RUNNER_DEFAULT_NAMES[self.mpi_runner]
        if self.gpu_setting_type not in GPU_SETTING_TYPES:
            raise ResourceError(
                f"unknown gpu_setting_type {self.gpu_setting_type!r}; "
                f"known: {list(GPU_SETTING_TYPES)}"
            )
        if self.gpu_setting_type == "env" and not self.gpu_setting_name:
            raise ResourceError("gpu_setting_type 'env' requires gpu_setting_name")
        if self.cores_per_node < 1:
            raise ResourceError("cores_per_node must be positive")

    @property
    def gpu_env_var(self) -> str:
        """The environment variable through which a launch names GPU ids,
        or "" when the runner takes a GPU count or nothing sets GPUs.

        Such a variable holds one id list for the whole launch, so a
        multi-node placement must use the same slot indices on every node.
        """
        if self.gpu_setting_type == "env":
            return self.gpu_setting_name
        if self.gpu_setting_type == "runner_default" and self.mpi_runner != "srun":
            return self.gpu_env_fallback
        return ""


_RUNNER_DEFAULT_NAMES = {
    "mpich": "mpiexec",
    "openmpi": "mpirun",
    "srun": "srun",
    "aprun": "aprun",
    "jsrun": "jsrun",
}


def _known_platforms() -> dict[str, PlatformSpec]:
    return {
        "generic": PlatformSpec(
            name="generic",
            mpi_runner="mpich",
            cores_per_node=os.cpu_count() or 1,
            gpu_setting_type="env",
            gpu_setting_name="CUDA_VISIBLE_DEVICES",
        ),
        "aurora": PlatformSpec(
            name="aurora",
            mpi_runner="mpich",
            runner_name="mpiexec",
            cores_per_node=104,
            gpus_per_node=6,
            gpu_setting_type="env",
            gpu_setting_name="ZE_AFFINITY_MASK",
        ),
        "frontier": PlatformSpec(
            name="frontier",
            mpi_runner="srun",
            runner_name="srun",
            cores_per_node=64,
            gpus_per_node=8,
            gpu_setting_type="runner_default",
            gpu_env_fallback="ROCR_VISIBLE_DEVICES",
        ),
    }


KNOWN_PLATFORM_NAMES = tuple(sorted(_known_platforms()))

# PATH probe order when nothing names the platform.
_RUNNER_PROBE = (
    ("mpirun", "openmpi"),
    ("srun", "srun"),
    ("jsrun", "jsrun"),
    ("aprun", "aprun"),
    ("mpiexec", "mpich"),
)


def detect_platform(
    env: Mapping[str, str] | None = None,
    name: str | None = None,
    overrides: Mapping[str, object] | None = None,
) -> PlatformSpec:
    """Resolve the platform spec.

    Precedence: explicit name > DYNENS_PLATFORM env var > an MPI runner found
    on PATH > generic default. Field overrides are applied last on top of
    whatever base was resolved.
    """
    env = os.environ if env is None else env
    known = _known_platforms()
    requested = name or env.get(PLATFORM_ENV_VAR)
    if requested:
        key = requested.lower()
        if key not in known:
            raise ResourceError(
                f"unknown platform {requested!r}; known: {list(KNOWN_PLATFORM_NAMES)}"
            )
        spec = known[key]
    else:
        spec = known["generic"]
        for prog, runner in _RUNNER_PROBE:
            if shutil.which(prog, path=env.get("PATH")):
                spec = replace(spec, mpi_runner=runner, runner_name=prog)
                break
    if overrides:
        valid = {f.name for f in fields(PlatformSpec)}
        bad = set(overrides) - valid
        if bad:
            raise ResourceError(f"unknown platform fields {sorted(bad)}; known: {sorted(valid)}")
        spec = replace(spec, **dict(overrides))
    return spec


# -- node inventories ----------------------------------------------------


@dataclass
class Node:
    name: str
    cores: int
    gpus: int = 0

    def __post_init__(self):
        if self.cores < 1:
            raise ResourceError(f"node {self.name!r}: cores must be positive")
        if self.gpus < 0:
            raise ResourceError(f"node {self.name!r}: gpus must be >= 0")


@dataclass
class NodeInventory:
    nodes: list[Node]

    def __post_init__(self):
        if not self.nodes:
            raise ResourceError("inventory has no nodes")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ResourceError(f"duplicate node names in inventory: {names}")

    def __len__(self):
        return len(self.nodes)


_RANGE_PART = re.compile(r"^(\d+)(?:-(\d+))?$")


def parse_node_list(text: str) -> list[str]:
    """Expand compressed scheduler node-list syntax.

    'nid[00001-00003,00005],login2' -> nid00001, nid00002, nid00003,
    nid00005, login2. Zero padding is preserved from the range tokens.
    """
    text = text.strip()
    if not text:
        raise ResourceError("empty node list")
    # Split on commas not inside brackets.
    chunks, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ResourceError(f"unbalanced ']' in node list {text!r}")
        if ch == "," and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ResourceError(f"unbalanced '[' in node list {text!r}")
    chunks.append("".join(cur))

    out: list[str] = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise ResourceError(f"empty entry in node list {text!r}")
        m = re.match(r"^([^\[\]]*)\[([^\[\]]+)\]([^\[\]]*)$", chunk)
        if not m:
            if "[" in chunk or "]" in chunk:
                raise ResourceError(f"malformed node entry {chunk!r}")
            out.append(chunk)
            continue
        prefix, body, suffix = m.groups()
        for part in body.split(","):
            pm = _RANGE_PART.match(part.strip())
            if not pm:
                raise ResourceError(f"malformed range {part!r} in {chunk!r}")
            lo, hi = pm.group(1), pm.group(2) or pm.group(1)
            width = len(lo)
            if int(hi) < int(lo):
                raise ResourceError(f"reversed range {part!r} in {chunk!r}")
            for i in range(int(lo), int(hi) + 1):
                out.append(f"{prefix}{i:0{width}d}{suffix}")
    return out


def _read_nodefile(path: str) -> list[str]:
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _count_hosts(names: Sequence[str], local_cores: int) -> NodeInventory:
    """One node per distinct name, in first-seen order. Repeated entries
    encode one line per slot; a bare list does not carry core counts."""
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    repeated = any(c > 1 for c in counts.values())
    return NodeInventory(
        [Node(n, c if repeated else local_cores) for n, c in counts.items()]
    )


def detect_nodes(env: Mapping[str, str] | None = None) -> NodeInventory:
    """Build an inventory from scheduler environment variables.

    Checks SLURM, PBS, Cobalt, then LSF conventions; falls back to a single
    local node with the detected core count.
    GPU counts are left at zero here; the configuration layer overlays the
    platform's gpus_per_node when it knows better.
    """
    env = os.environ if env is None else env
    local_cores = os.cpu_count() or 1

    slurm_list = env.get("SLURM_JOB_NODELIST") or env.get("SLURM_NODELIST")
    if slurm_list:
        names = parse_node_list(slurm_list)
        cores = local_cores
        raw = env.get("SLURM_CPUS_ON_NODE")
        if raw:
            cores = int(raw.split("(")[0])
        return NodeInventory([Node(n, cores) for n in names])

    for var in ("PBS_NODEFILE", "COBALT_NODEFILE"):
        nodefile = env.get(var)
        if nodefile and os.path.exists(nodefile):
            lines = _read_nodefile(nodefile)
            if not lines:
                raise ResourceError(f"{var} file {nodefile!r} is empty")
            return _count_hosts(lines, local_cores)

    lsb = env.get("LSB_HOSTS")
    if lsb:
        return _count_hosts(lsb.split(), local_cores)

    return NodeInventory([Node("localhost", local_cores)])


def load_inventory_file(path: str | os.PathLike) -> NodeInventory:
    """Read 'name cores gpus' lines; '#' starts a comment."""
    path = os.fspath(path)
    nodes = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ResourceError(
                    f"{path}:{lineno}: expected 'name cores gpus', got {line!r}"
                )
            try:
                nodes.append(Node(parts[0], int(parts[1]), int(parts[2])))
            except (ValueError, ResourceError) as exc:
                raise ResourceError(f"{path}:{lineno}: {exc}") from exc
    if not nodes:
        raise ResourceError(f"{path}: no nodes defined")
    return NodeInventory(nodes)


# -- resource sets -------------------------------------------------------


@dataclass
class ResourceSet:
    rset_id: int
    node_index: int
    slot: int
    cores: int
    gpus: int
    gpu_ids: tuple[int, ...] = ()
    free: bool = True


def build_resource_sets(
    inventory: NodeInventory,
    num_workers: int,
    dedicated_gen: bool = False,
) -> list[ResourceSet]:
    """Partition every node into equal slots, one resource set per sim worker.

    A dedicated generator worker consumes no resource set. The division must
    be exact: workers spread evenly over nodes, cores (and GPUs, if any)
    evenly over a node's slots.
    """
    num_sim = num_workers - (1 if dedicated_gen else 0)
    nnodes = len(inventory)
    if num_sim < 1:
        raise ResourceError(f"need at least one simulation worker, got {num_sim}")
    if num_sim < nnodes or num_sim % nnodes != 0:
        raise ResourceError(
            f"{num_sim} simulation workers cannot divide evenly over "
            f"{nnodes} node(s); use a multiple of the node count"
        )
    slots_per_node = num_sim // nnodes
    rsets = []
    for node_index, node in enumerate(inventory.nodes):
        if node.cores % slots_per_node != 0:
            raise ResourceError(
                f"node {node.name!r}: {node.cores} cores do not divide into "
                f"{slots_per_node} slots"
            )
        if node.gpus and node.gpus % slots_per_node != 0:
            raise ResourceError(
                f"node {node.name!r}: {node.gpus} gpus do not divide into "
                f"{slots_per_node} slots"
            )
        cores_per = node.cores // slots_per_node
        gpus_per = node.gpus // slots_per_node
        for slot in range(slots_per_node):
            rsets.append(
                ResourceSet(
                    rset_id=len(rsets),
                    node_index=node_index,
                    slot=slot,
                    cores=cores_per,
                    gpus=gpus_per,
                    gpu_ids=tuple(range(slot * gpus_per, (slot + 1) * gpus_per)),
                )
            )
    return rsets


# -- scheduling ----------------------------------------------------------


@dataclass
class ResourceRequest:
    """What an evaluation wants. Unset fields are None; at least one of
    num_procs, num_gpus must be set."""

    num_procs: int | None = None
    num_gpus: int | None = None

    def resolved(self) -> tuple[int, int]:
        """Returns (procs, gpus) with defaults applied."""
        procs = self.num_procs
        gpus = self.num_gpus or 0
        if procs is None:
            if gpus:
                procs = gpus  # one rank per requested GPU
            else:
                raise ResourceError("empty resource request")
        if procs < 1:
            raise ResourceError(f"num_procs must be positive, got {procs}")
        return procs, gpus


@dataclass
class AssignedNode:
    node_index: int
    name: str
    procs: int
    gpu_ids: tuple[int, ...]


@dataclass
class Assignment:
    rset_ids: tuple[int, ...]
    nodes: list[AssignedNode]
    total_procs: int
    total_gpus: int

    @property
    def node_indices(self) -> list[int]:
        return [n.node_index for n in self.nodes]


def _even_split(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


def schedule(
    rsets: Sequence[ResourceSet],
    inventory: NodeInventory,
    request: ResourceRequest | None = None,
    match_slots: bool = True,
) -> Assignment:
    """Pick free resource sets for a request and mark them busy.

    Demand in resource sets is the max of the CPU and GPU needs. Placement
    uses an even split (same slot count per node) over the fewest nodes that
    can take it, preferring one node; with match_slots the chosen nodes must
    use identical slot indices. Deterministic: lowest node indices, then
    lowest slot indices. A request of None claims one whole resource set,
    GPU-bearing or not, with all its cores and GPUs: the share of a worker
    whose evaluation asks for nothing specific. Raises InsufficientResources
    when it cannot be done now (a retry after releases may succeed).
    """
    # None demands one set; the set's own cores and GPUs fill it below.
    procs, gpus = (1, 0) if request is None else request.resolved()

    def attempt(eligible: list[ResourceSet]) -> Assignment:
        if not eligible:
            raise InsufficientResources(f"no eligible resource sets for {request}")
        cores_per_rset = min(r.cores for r in eligible)
        n_demand = -(-procs // cores_per_rset)
        if gpus:
            gpus_per_rset = min(r.gpus for r in eligible)
            n_demand = max(n_demand, -(-gpus // gpus_per_rset))
        by_node: dict[int, list[ResourceSet]] = {}
        capacity: dict[int, int] = {}
        for r in eligible:
            capacity[r.node_index] = capacity.get(r.node_index, 0) + 1
            if r.free:
                by_node.setdefault(r.node_index, []).append(r)
        for slots in by_node.values():
            slots.sort(key=lambda r: r.slot)
        if not by_node:
            raise InsufficientResources("all eligible resource sets are busy")

        # The floor comes from full-node capacity; occupancy may then
        # spread the request over more nodes.
        k_min = max(1, -(-n_demand // max(capacity.values())))
        k_max = min(len(by_node), n_demand)
        for k in range(k_min, k_max + 1):
            per_node = -(-n_demand // k)
            chosen = _choose_nodes(by_node, k, per_node, match_slots)
            if chosen is not None:
                if request is None:
                    rset = chosen[0][1][0]
                    return _build_assignment(chosen, rset.cores, rset.gpus, inventory)
                return _build_assignment(chosen, procs, gpus, inventory)
        raise InsufficientResources(
            f"cannot place {n_demand} resource set(s) "
            f"(procs={procs}, gpus={gpus}) on free capacity"
        )

    if request is None:
        assignment = attempt(list(rsets))
    elif gpus:
        assignment = attempt([r for r in rsets if r.gpus > 0])
    else:
        # Keep CPU work off GPU-bearing sets when it fits elsewhere.
        cpu_only = [r for r in rsets if r.gpus == 0]
        try:
            assignment = attempt(cpu_only)
        except InsufficientResources:
            assignment = attempt(list(rsets))
    for rid in assignment.rset_ids:
        rsets[rid].free = False
    return assignment


def _choose_nodes(
    by_node: dict[int, list[ResourceSet]],
    k: int,
    per_node: int,
    match_slots: bool,
) -> list[tuple[int, list[ResourceSet]]] | None:
    """First workable k nodes in index order, each contributing per_node
    slots; with match_slots the slot-index sets must be identical.

    Under match_slots a depth-first walk in node-index order extends a
    partial choice only while its common free slots still number at least
    per_node and enough candidates remain, so the first full choice it
    reaches is the lowest-index one. Whether a partial choice completes
    depends only on its common slots, the nodes it still needs and where
    the walk resumes, and a (common, need) pair that fails from one
    position fails from every later one; each failure is remembered, so
    the walk is polynomial in the node count for a fixed slot count.
    """
    candidates = sorted(i for i, v in by_node.items() if len(v) >= per_node)
    if len(candidates) < k:
        return None
    if not match_slots or k == 1:  # one node shares all its own slots
        picked = candidates[:k]
        return [(i, by_node[i][:per_node]) for i in picked]
    slots = [frozenset(r.slot for r in by_node[i]) for i in candidates]
    n = len(candidates)
    # (common slots, nodes still needed) -> the first position from which
    # the walk found no completion.
    fails_from: dict[tuple[frozenset, int], int] = {}
    chosen: list[int] = []  # positions in candidates
    # commons[d]: the free slots the first d chosen nodes share.
    commons = [frozenset().union(*slots)]
    pos = 0
    while len(chosen) < k:
        need = k - len(chosen)
        if pos > n - need:
            if not chosen:
                return None
            fails_from[commons.pop(), need] = chosen[-1] + 1
            pos = chosen.pop() + 1
            continue
        common = commons[-1] & slots[pos]
        if (len(common) >= per_node
                and fails_from.get((common, need - 1), n + 1) > pos + 1):
            chosen.append(pos)
            commons.append(common)
        pos += 1
    shared = sorted(commons[-1])[:per_node]
    nodes = [candidates[p] for p in chosen]
    return [(i, [r for r in by_node[i] if r.slot in shared]) for i in nodes]


def _build_assignment(
    chosen: list[tuple[int, list[ResourceSet]]],
    procs: int,
    gpus: int,
    inventory: NodeInventory,
) -> Assignment:
    k = len(chosen)
    proc_split = _even_split(procs, k)
    gpu_split = _even_split(gpus, k) if gpus else [0] * k
    nodes = []
    rset_ids: list[int] = []
    for (node_index, sets), np_, ng in zip(chosen, proc_split, gpu_split):
        rset_ids.extend(r.rset_id for r in sets)
        ids = sorted(itertools.chain.from_iterable(r.gpu_ids for r in sets))
        nodes.append(
            AssignedNode(
                node_index=node_index,
                name=inventory.nodes[node_index].name,
                procs=np_,
                gpu_ids=tuple(ids[:ng]),
            )
        )
    return Assignment(
        rset_ids=tuple(sorted(rset_ids)),
        nodes=nodes,
        total_procs=procs,
        total_gpus=gpus,
    )


class ResourcePool:
    """Mutable scheduling state the manager holds for one run."""

    def __init__(
        self,
        inventory: NodeInventory,
        num_workers: int,
        dedicated_gen: bool = False,
        match_slots: bool = True,
    ):
        self.inventory = inventory
        self.rsets = build_resource_sets(inventory, num_workers, dedicated_gen)
        self.match_slots = match_slots

    def schedule(self, request: ResourceRequest | None = None) -> Assignment:
        return schedule(self.rsets, self.inventory, request,
                        match_slots=self.match_slots)

    def schedule_default(self) -> Assignment:
        """Alias of schedule(None), kept for callers that wrap it by name."""
        return self.schedule(None)

    def release(self, assignment: Assignment) -> None:
        for rid in assignment.rset_ids:
            if self.rsets[rid].free:
                raise ResourceError(f"double release of resource set {rid}")
            self.rsets[rid].free = True
