"""Platforms, node lists, resource-set partitioning, and scheduling."""

import os
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynens.resources import (
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
        assert p.cores_per_node == 104 and p.logical_cores_per_node == 208
        assert p.gpus_per_node == 6 and p.tiles_per_gpu == 2
        assert p.gpu_setting_type == "env" and p.gpu_setting_name == "ZE_AFFINITY_MASK"
        assert p.scheduler_match_slots is True

    def test_frontier_constants(self):
        p = detect_platform(env={}, name="frontier")
        assert p.mpi_runner == "srun" and p.runner_name == "srun"
        assert p.cores_per_node == 64 and p.logical_cores_per_node == 128
        assert p.gpus_per_node == 8
        assert p.gpu_setting_type == "runner_default"
        assert p.gpu_env_fallback == "ROCR_VISIBLE_DEVICES"
        assert p.scheduler_match_slots is False

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

    def test_fallback_inventory(self):
        fb = NodeInventory([Node("x", 4)])
        assert detect_nodes(env={}, fallback=fb) is fb

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

    def test_forced_node_count_splits_evenly(self):
        pool = make_pool([(12, 0), (12, 0)], 12)  # 6 rsets of 2 cores per node
        a = pool.schedule(ResourceRequest(num_procs=8, num_nodes=2))
        assert [n.procs for n in a.nodes] == [4, 4]
        per_node = {}
        for r in pool.rsets:
            if r.rset_id in a.rset_ids:
                per_node[r.node_index] = per_node.get(r.node_index, 0) + 1
        assert per_node == {0: 2, 1: 2}

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
        free_before = pool.free_count()
        with pytest.raises(InsufficientResources):
            pool.schedule(ResourceRequest(num_gpus=4))
        assert pool.free_count() == free_before

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
        assert pool.free_count() == 0
        pool.release(a)
        assert pool.free_count() == 4
        with pytest.raises(ResourceError, match="double release"):
            pool.release(a)

    def test_empty_request_rejected(self):
        pool = make_pool([(8, 0)], 4)
        with pytest.raises(ResourceError, match="empty resource request"):
            pool.schedule(ResourceRequest())

    def test_inconsistent_proc_fields_rejected(self):
        with pytest.raises(ResourceError, match="inconsistent"):
            ResourceRequest(num_procs=5, num_nodes=2, procs_per_node=3).resolved()


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
        assert pool.free_count() == len(pool.rsets)
