"""Platforms, node lists, resource-set partitioning, and scheduling."""

import copy
import os
import random
import re
import time
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynens.resources import (
    _choose_nodes,
    AssignedNode,
    Assignment,
    InsufficientResources,
    Node,
    NodeInventory,
    PlatformSpec,
    ResourceError,
    ResourcePool,
    ResourceRequest,
    build_resource_sets,
    detect_nodes,
    detect_platform,
    load_inventory_file,
    parse_node_list,
    schedule,
)
import scheduler_oracle


class TestPlatforms:
    def test_aurora_constants(self):
        p = detect_platform(env={}, name="aurora")
        assert p.mpi_runner == "mpich" and p.runner_name == "mpiexec"
        assert p.cores_per_node == 104
        assert p.gpus_per_node == 6
        assert p.gpu_setting_type == "env" and p.gpu_setting_name == "ZE_AFFINITY_MASK"
        assert p.gpu_env_var == "ZE_AFFINITY_MASK"

    def test_frontier_constants(self):
        p = detect_platform(env={}, name="frontier")
        assert p.mpi_runner == "srun" and p.runner_name == "srun"
        assert p.cores_per_node == 64
        assert p.gpus_per_node == 8
        assert p.gpu_setting_type == "runner_default"
        assert p.gpu_env_fallback == "ROCR_VISIBLE_DEVICES"
        assert p.gpu_env_var == ""

    def test_unknown_name_lists_known(self):
        with pytest.raises(ResourceError, match="aurora"):
            detect_platform(env={}, name="summitplus")

    def test_env_var_selects_platform(self):
        p = detect_platform(env={"DYNENS_PLATFORM": "frontier"})
        assert p.name == "frontier"

    def test_explicit_name_beats_env_var(self):
        p = detect_platform(env={"DYNENS_PLATFORM": "frontier"}, name="aurora")
        assert p.name == "aurora"

    def test_overrides_apply_last(self):
        p = detect_platform(env={}, name="frontier", overrides={"gpus_per_node": 4})
        assert p.gpus_per_node == 4 and p.mpi_runner == "srun"

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ResourceError, match="unknown platform fields"):
            detect_platform(env={}, name="generic", overrides={"gpu_count": 3})

    def test_path_probe_finds_runner(self, tmp_path):
        fake = tmp_path / "srun"
        fake.write_text("#!/bin/sh\n")
        fake.chmod(0o755)
        p = detect_platform(env={"PATH": str(tmp_path)})
        assert p.mpi_runner == "srun"

    def test_no_runner_on_path_gives_generic_default(self, tmp_path):
        p = detect_platform(env={"PATH": str(tmp_path)})
        assert p.mpi_runner == "mpich" and p.runner_name == "mpiexec"
        assert p.gpu_setting_name == "CUDA_VISIBLE_DEVICES"

    def test_env_setting_requires_name(self):
        with pytest.raises(ResourceError, match="requires gpu_setting_name"):
            PlatformSpec(gpu_setting_type="env", gpu_setting_name="")

    def test_runner_name_defaults_per_family(self):
        assert PlatformSpec(mpi_runner="openmpi").runner_name == "mpirun"
        assert PlatformSpec(mpi_runner="jsrun").runner_name == "jsrun"


class TestNodeListParsing:
    def test_range_with_zero_padding(self):
        assert parse_node_list("nid[00001-00003,00005]") == [
            "nid00001", "nid00002", "nid00003", "nid00005",
        ]

    def test_plain_names_and_suffix(self):
        assert parse_node_list("login1,gpu[05,07]-ib") == [
            "login1", "gpu05-ib", "gpu07-ib",
        ]

    def test_single_name(self):
        assert parse_node_list("worker9") == ["worker9"]

    @pytest.mark.parametrize("bad", ["", "nid[3-1]", "nid[1-", "nid]2[", "a,,b"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ResourceError):
            parse_node_list(bad)


class TestDetectNodes:
    def test_slurm_list_and_cores(self):
        inv = detect_nodes(env={"SLURM_JOB_NODELIST": "n[01-03]",
                                "SLURM_CPUS_ON_NODE": "64(x3)"})
        assert [n.name for n in inv.nodes] == ["n01", "n02", "n03"]
        assert all(n.cores == 64 for n in inv.nodes)

    def test_pbs_nodefile_multiplicity(self, tmp_path):
        nf = tmp_path / "nodes"
        nf.write_text("a\na\nb\nb\n")
        inv = detect_nodes(env={"PBS_NODEFILE": str(nf)})
        assert [(n.name, n.cores) for n in inv.nodes] == [("a", 2), ("b", 2)]

    def test_lsf_hosts(self):
        inv = detect_nodes(env={"LSB_HOSTS": "h1 h1 h1 h2 h2 h2"})
        assert [(n.name, n.cores) for n in inv.nodes] == [("h1", 3), ("h2", 3)]

    def test_localhost_default(self):
        inv = detect_nodes(env={})
        assert len(inv) == 1 and inv.nodes[0].name == "localhost"
        assert inv.nodes[0].cores == (os.cpu_count() or 1)


class TestInventoryFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "inv"
        p.write_text("# cluster\nnode1 64 8\nnode2 64 8  # gpu node\n")
        inv = load_inventory_file(p)
        assert [(n.name, n.cores, n.gpus) for n in inv.nodes] == [
            ("node1", 64, 8), ("node2", 64, 8),
        ]

    def test_bad_line_reports_position(self, tmp_path):
        p = tmp_path / "inv"
        p.write_text("node1 64 8\nnode2 sixty 8\n")
        with pytest.raises(ResourceError, match=":2:"):
            load_inventory_file(p)

    def test_node_rejected_line_names_file_and_line(self, tmp_path):
        p = tmp_path / "nodes.txt"
        p.write_text("# cluster\nn0 0 0\n")
        with pytest.raises(ResourceError, match=rf"^{re.escape(str(p))}:2: "
                           "node 'n0': cores must be positive"):
            load_inventory_file(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "inv"
        p.write_text("# nothing\n")
        with pytest.raises(ResourceError, match="no nodes"):
            load_inventory_file(p)


def make_pool(nodes, num_workers, **kw):
    inv = NodeInventory([Node(f"n{i}", c, g) for i, (c, g) in enumerate(nodes)])
    return ResourcePool(inv, num_workers, **kw)


class TestBuildResourceSets:
    def test_one_rset_per_node(self):
        pool = make_pool([(8, 0), (8, 0)], 2)
        assert [(r.node_index, r.slot, r.cores) for r in pool.rsets] == [
            (0, 0, 8), (1, 0, 8),
        ]

    def test_uneven_worker_count_rejected(self):
        with pytest.raises(ResourceError, match="divide"):
            make_pool([(64, 0)], 3)

    def test_fewer_workers_than_nodes_rejected(self):
        with pytest.raises(ResourceError, match="divide"):
            make_pool([(8, 0), (8, 0), (8, 0)], 2)

    def test_dedicated_gen_consumes_nothing(self):
        pool = make_pool([(8, 0)], 3, dedicated_gen=True)
        assert len(pool.rsets) == 2 and all(r.cores == 4 for r in pool.rsets)

    def test_gpus_split_with_ids(self):
        pool = make_pool([(64, 8)], 4)
        assert [r.gpu_ids for r in pool.rsets] == [
            (0, 1), (2, 3), (4, 5), (6, 7),
        ]

    def test_uneven_gpu_split_rejected(self):
        with pytest.raises(ResourceError, match="gpus"):
            make_pool([(64, 6)], 4)

    def test_uneven_cores_rejected(self):
        with pytest.raises(ResourceError, match="cores"):
            make_pool([(10, 0)], 4)


class TestSchedule:
    def test_proc_demand_rounds_up_to_rsets(self):
        pool = make_pool([(12, 0)], 6)  # 6 rsets of 2 cores
        a = pool.schedule(ResourceRequest(num_procs=8))
        assert len(a.rset_ids) == 4 and a.total_procs == 8

    def test_gpu_request_defaults_procs_and_picks_ids(self):
        pool = make_pool([(8, 8)], 8)  # 8 slots, 1 gpu each
        a = pool.schedule(ResourceRequest(num_gpus=4))
        assert a.total_procs == 4 and len(a.rset_ids) == 4
        assert a.nodes[0].gpu_ids == (0, 1, 2, 3)

    def test_prefers_single_node(self):
        pool = make_pool([(8, 0), (8, 0)], 8)  # 4 slots per node
        a = pool.schedule(ResourceRequest(num_procs=6))
        assert a.node_indices == [0]

    def test_splits_when_one_node_cannot_fit(self):
        pool = make_pool([(8, 0), (8, 0)], 8)
        pool.schedule(ResourceRequest(num_procs=6))  # takes 3 slots of node 0
        a = pool.schedule(ResourceRequest(num_procs=6))
        assert a.node_indices == [1]
        b = pool.schedule(ResourceRequest(num_procs=4))
        assert b.node_indices == [0, 1]  # one free slot on each

    def test_occupancy_split_accepted(self):
        pool = make_pool([(8, 0), (8, 0)], 8)
        for node in (0, 1):  # two busy slots on each node
            for r in pool.rsets:
                if r.node_index == node and r.slot < 2:
                    r.free = False
        # A 4-slot job fits one empty node, so the capacity floor is one
        # node; occupancy splits it over both.
        a = pool.schedule(ResourceRequest(num_procs=8))
        assert sorted(set(a.node_indices)) == [0, 1]

    def test_insufficient_gpus_nonfatal_and_stateless(self):
        pool = make_pool([(8, 2)], 2)
        free_before = sum(r.free for r in pool.rsets)
        with pytest.raises(InsufficientResources):
            pool.schedule(ResourceRequest(num_gpus=4))
        assert sum(r.free for r in pool.rsets) == free_before

    def test_match_slots_refuses_disjoint_free_slots(self):
        pool = make_pool([(8, 8), (8, 8)], 8, match_slots=True)
        for r in pool.rsets:  # node0 free {2,3}, node1 free {0,1}
            r.free = (r.node_index == 0 and r.slot >= 2) or \
                     (r.node_index == 1 and r.slot < 2)
        # 8 gpus needs 2 slots per node but there is no common pair...
        with pytest.raises(InsufficientResources):
            pool.schedule(ResourceRequest(num_gpus=8))
        # ...while without match_slots it fits.
        a = schedule(pool.rsets, pool.inventory,
                     ResourceRequest(num_gpus=8), match_slots=False)
        assert len(a.rset_ids) == 4

    def test_match_slots_identical_sets(self):
        pool = make_pool([(8, 4), (8, 4)], 8, match_slots=True)
        for r in pool.rsets:  # slot 0 busy on both nodes
            if r.slot == 0:
                r.free = False
        a = pool.schedule(ResourceRequest(num_gpus=4))  # 2 common slots per node
        slots = {}
        for r in pool.rsets:
            if r.rset_id in a.rset_ids:
                slots.setdefault(r.node_index, set()).add(r.slot)
        assert slots[0] == slots[1] == {1, 2}

    def test_cpu_jobs_keep_off_gpu_sets_when_possible(self):
        pool = make_pool([(8, 4), (8, 0)], 4)
        a = pool.schedule(ResourceRequest(num_procs=2))
        assert a.node_indices == [1]  # the cpu-only node, despite higher index

    def test_deterministic(self):
        def run():
            pool = make_pool([(8, 4), (8, 4), (8, 4)], 12)
            out = []
            for req in [ResourceRequest(num_procs=3), ResourceRequest(num_gpus=2),
                        ResourceRequest(num_procs=2)]:
                out.append(pool.schedule(req).rset_ids)
            return out
        assert run() == run()

    def test_release_and_double_release(self):
        pool = make_pool([(8, 0)], 4)
        a = pool.schedule(ResourceRequest(num_procs=8))
        assert sum(r.free for r in pool.rsets) == 0
        pool.release(a)
        assert sum(r.free for r in pool.rsets) == 4
        with pytest.raises(ResourceError, match="double release"):
            pool.release(a)

    def test_empty_request_rejected(self):
        pool = make_pool([(8, 0)], 4)
        with pytest.raises(ResourceError, match="empty resource request"):
            pool.schedule(ResourceRequest())


class TestChooseNodesUnderMatchSlots:
    def test_first_feasible_set_matches_oracle(self):
        """On random pools of up to 8 nodes, the walk picks the first node
        set the exhaustive oracle lists, with the lowest shared slots."""
        rng = random.Random(90210)
        compared = found = 0
        for _ in range(300):
            nnodes = rng.randint(1, 8)
            slots = rng.choice([1, 2, 4, 8])
            pool = make_pool([(slots, slots)] * nnodes, nnodes * slots,
                             match_slots=True)
            free = rng.random()
            for r in pool.rsets:
                r.free = rng.random() < free
            by_node: dict[int, list] = {}
            for r in pool.rsets:
                if r.free:
                    by_node.setdefault(r.node_index, []).append(r)
            if not by_node:
                continue
            for k in range(1, nnodes + 1):
                for n_demand in range(k, k * slots + 1):
                    per = ceil(n_demand / k)
                    want = scheduler_oracle.feasible_node_sets(
                        pool.rsets, n_demand, k, match_slots=True)
                    got = _choose_nodes(by_node, k, per, True)
                    compared += 1
                    if not want:
                        assert got is None
                        continue
                    found += 1
                    assert [i for i, _ in got] == list(want[0])
                    shared = set.intersection(
                        *({r.slot for r in by_node[i]} for i in want[0]))
                    lowest = sorted(shared)[:per]
                    assert all([r.slot for r in sets] == lowest
                               for _, sets in got)
        assert compared > 1000 and 0 < found < compared

    def test_refused_request_on_64_nodes_is_quick(self):
        """Even nodes free in slots 0-3 and odd ones in 4-7: no 33 nodes
        share 4 free slots, which the walk settles without trying every
        combination (the combinations walk took 0.30 s at 16 nodes)."""
        pool = make_pool([(8, 8)] * 64, 512, match_slots=True)
        for r in pool.rsets:
            r.free = (r.slot < 4) == (r.node_index % 2 == 0)
        t0 = time.perf_counter()
        with pytest.raises(InsufficientResources):
            pool.schedule(ResourceRequest(num_gpus=4 * 33))
        assert time.perf_counter() - t0 < 2.0
        assert all(r.free == ((r.slot < 4) == (r.node_index % 2 == 0))
                   for r in pool.rsets)


def reference_schedule_default(pool):
    """ResourcePool.schedule_default as it was before it became an alias of
    schedule(None), frozen as the reference for the fold."""
    for rset in pool.rsets:
        if rset.free:
            rset.free = False
            node = AssignedNode(
                node_index=rset.node_index,
                name=pool.inventory.nodes[rset.node_index].name,
                procs=rset.cores,
                gpu_ids=rset.gpu_ids,
            )
            return Assignment(rset_ids=(rset.rset_id,), nodes=[node],
                              total_procs=rset.cores,
                              total_gpus=len(rset.gpu_ids))
    raise InsufficientResources("all resource sets are busy")


def random_pool(rng):
    """1-4 nodes of mixed shapes, GPU-bearing or CPU-only, with a random
    busy set: none, some, or all of the resource sets busy."""
    nnodes = rng.randint(1, 4)
    slots = rng.choice([1, 2, 4])
    nodes = [(slots * rng.choice([1, 2, 3]), slots * rng.choice([0, 0, 1, 2]))
             for _ in range(nnodes)]
    pool = make_pool(nodes, nnodes * slots, match_slots=rng.random() < 0.5)
    busy = rng.choice([0.0, 0.3, 0.7, 1.0])
    for r in pool.rsets:
        r.free = rng.random() >= busy
    return pool


class TestDefaultShareMatchesFrozenReference:
    def test_seeded_sweep(self):
        rng = random.Random(20260)
        all_busy = 0
        for _ in range(400):
            pool = random_pool(rng)
            ref = copy.deepcopy(pool)
            all_busy += not any(r.free for r in pool.rsets)
            # Claim until both refuse, comparing every step.
            for _ in range(len(pool.rsets) + 1):
                try:
                    want = reference_schedule_default(ref)
                except InsufficientResources:
                    want = None
                try:
                    got = pool.schedule(None)
                except InsufficientResources:
                    got = None
                assert got == want
                assert [r.free for r in pool.rsets] == [r.free for r in ref.rsets]
                if want is None:
                    break
        assert all_busy > 0

    def test_alias_delegates(self):
        pool = make_pool([(8, 0), (8, 4)], 4)
        pool.rsets[0].free = False
        a = pool.schedule_default()
        assert a.rset_ids == (1,) and a.nodes[0].procs == 4
        assert not pool.rsets[1].free


class TestScheduleAgainstOracle:
    """Spot checks here; the 1,000-case sweep lives in the acceptance suite."""

    def check(self, pool, request, match_slots):
        procs, gpus = request.resolved()
        want = scheduler_oracle.min_node_count(pool.rsets, procs, gpus, match_slots)
        try:
            a = schedule(pool.rsets, pool.inventory, request, match_slots=match_slots)
        except InsufficientResources:
            assert want is None
            return None
        assert len(set(a.node_indices)) == want
        return a

    def test_various_states(self):
        pool = make_pool([(8, 4), (8, 4), (8, 4), (8, 4)], 16, match_slots=True)
        self.check(pool, ResourceRequest(num_procs=4), True)
        self.check(pool, ResourceRequest(num_gpus=6), True)
        self.check(pool, ResourceRequest(num_procs=30), True)
        self.check(pool, ResourceRequest(num_gpus=16), True)
        self.check(pool, ResourceRequest(num_gpus=16), True)


class TestConservation:
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 10)), min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_busy_equals_live_assignments(self, ops, match_slots):
        pool = make_pool([(8, 4), (8, 4)], 8, match_slots=match_slots)
        live: list[Assignment] = []
        for wants_gpu, amount in ops:
            if live and amount % 3 == 0:
                pool.release(live.pop(0))
                continue
            req = (ResourceRequest(num_gpus=min(amount, 8)) if wants_gpu
                   else ResourceRequest(num_procs=amount))
            try:
                live.append(pool.schedule(req))
            except InsufficientResources:
                pass
            claimed: list[int] = []
            for a in live:
                claimed.extend(a.rset_ids)
            assert len(claimed) == len(set(claimed)), "rset in two assignments"
            busy = {r.rset_id for r in pool.rsets if not r.free}
            assert busy == set(claimed)
        for a in live:
            pool.release(a)
        assert sum(r.free for r in pool.rsets) == len(pool.rsets)
