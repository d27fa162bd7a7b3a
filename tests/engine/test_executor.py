"""Tests for the shared kernel executor (dispatch, micro-batches, sharing)."""

import numpy as np
import pytest

from repro.analysis.fault_simulation import FaultSimulationRow, simulate_fault_row
from repro.engine.executor import KernelExecutor, cached_executor
from repro.exceptions import InvalidParameterError
from repro.topology import available_topologies, get_topology


def _random_masks(topo, count, seed, max_faults=6):
    """``count`` removed-node masks from seeded random fault sets (incl. empty)."""
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        f = int(rng.integers(0, max_faults))
        codes = rng.integers(0, topo.num_nodes, size=f)
        masks.append(topo.fault_unit_mask(codes.astype(np.int64)))
    return masks


class TestMeasureMasksBatch:
    @pytest.mark.parametrize("topology", sorted(available_topologies()))
    def test_ragged_batch_equals_scalar_per_mask(self, topology):
        executor = KernelExecutor(2, 6, topology=topology)
        masks = _random_masks(executor.topology, 24, seed=7)
        batched = executor.measure_masks_batch(masks)
        for mask, got in zip(masks, batched):
            assert got == executor.measure_mask_with_root(mask)

    def test_dead_root_lanes_fall_back_and_report_their_root(self):
        executor = KernelExecutor(2, 5)
        topo = executor.topology
        # kill the root's necklace in one lane, keep another lane fault-free
        dead = topo.fault_unit_mask(np.asarray([executor.root_code], dtype=np.int64))
        alive = np.zeros(topo.num_nodes, dtype=bool)
        results = executor.measure_masks_batch([dead, alive])
        assert results[0] == executor.measure_mask_with_root(dead)
        assert results[0][2] != executor.root_code  # measured from a fallback root
        assert results[1] == (topo.num_nodes, 5, executor.root_code)

    def test_all_nodes_removed_lane(self):
        executor = KernelExecutor(2, 4)
        everything = np.ones(executor.topology.num_nodes, dtype=bool)
        nothing = np.zeros(executor.topology.num_nodes, dtype=bool)
        assert executor.measure_masks_batch([everything, nothing])[0] == (0, 0, None)

    @pytest.mark.parametrize("topology", sorted(available_topologies()))
    def test_mixed_root_batch_equals_scalar_per_lane(self, topology):
        executor = KernelExecutor(2, 6, topology=topology)
        topo = executor.topology
        masks = _random_masks(topo, 24, seed=11)
        rng = np.random.default_rng(5)
        roots = [int(r) for r in rng.integers(0, topo.num_nodes, size=len(masks))]
        # lanes whose own root lies in a removed unit take the fallback path
        for lane in range(0, len(masks), 4):
            masks[lane] = masks[lane] | topo.fault_unit_mask([roots[lane]])
        # and lanes with every node removed answer (0, 0, None)
        masks[1] = np.ones(topo.num_nodes, dtype=bool)
        masks[6] = np.ones(topo.num_nodes, dtype=bool)
        batched = executor.measure_masks_batch(masks, roots=roots)
        assert batched[4][2] not in (None, roots[4])  # measured from a fallback root
        for mask, root, got in zip(masks, roots, batched):
            assert got == executor.measure_mask_with_root(mask, root)
        assert batched[1] == batched[6] == (0, 0, None)

    def test_root_codes_validated(self):
        executor = KernelExecutor(2, 4)
        alive = np.zeros(executor.topology.num_nodes, dtype=bool)
        with pytest.raises(InvalidParameterError):
            executor.measure_mask_with_root(alive, executor.topology.num_nodes)
        with pytest.raises(InvalidParameterError):
            executor.measure_mask_with_root(alive, -1)
        with pytest.raises(InvalidParameterError):
            executor.measure_masks_batch([alive], roots=[-1])
        with pytest.raises(InvalidParameterError):
            executor.measure_masks_batch([alive, alive], roots=[1])

    def test_intact_distances_are_bounded_per_root(self):
        executor = KernelExecutor(2, 6)
        topo = executor.topology
        for root in range(0, topo.num_nodes, 3):
            # every root dead: each measurement consults that root's distances
            executor.measure_mask_with_root(topo.fault_unit_mask([root]), root)
        assert 0 < len(executor._intact) <= executor._intact.maxsize

    def test_batch_size_validated(self):
        executor = KernelExecutor(2, 4)
        with pytest.raises(InvalidParameterError):
            executor.measure_masks_batch([])
        too_many = [np.zeros(executor.topology.num_nodes, dtype=bool)] * 65
        with pytest.raises(InvalidParameterError):
            executor.measure_masks_batch(too_many)


class TestInstrumentation:
    """Kernel profiling is always on: every launch and fallback is timed."""

    def test_every_launch_is_observed(self):
        executor = KernelExecutor(2, 5)
        launches = executor._obs_launches.value()
        timed = executor._obs_launch_seconds.count
        alive = np.zeros(executor.topology.num_nodes, dtype=bool)
        executor.measure_masks_batch([alive] * 3)
        executor.measure_masks_batch([alive])
        assert executor._obs_launches.value() == launches + 2
        assert executor._obs_launch_seconds.count == timed + 2

    def test_fallback_lanes_are_timed(self):
        executor = KernelExecutor(2, 5)
        topo = executor.topology
        dead = topo.fault_unit_mask(np.asarray([executor.root_code], dtype=np.int64))
        alive = np.zeros(topo.num_nodes, dtype=bool)
        timed = executor._obs_fallback_seconds.count
        executor.measure_masks_batch([dead, alive, dead])
        assert executor._obs_fallback_seconds.count == timed + 2


class TestMeasureChunk:
    def test_scalar_and_kernel_dispatch_agree(self):
        executor = KernelExecutor(2, 6)
        trials = [0, 1, 2, 5, 6, 7, 11, 40, 41, 64, 65, 66, 67, 68, 70, 71, 72, 80, 90, 99]
        scalar = executor.measure_chunk(3, 0, trials, batch=1)
        batched = executor.measure_chunk(3, 0, trials, batch=64)
        assert scalar == batched
        assert [t for t, _, _ in batched] == trials

    def test_narrow_remnant_takes_scalar_path_with_identical_results(self):
        # a chunk narrower than the batch but at least MIN_KERNEL_BATCH wide
        # runs through the kernel; a narrower one is below the heuristic
        # floor and runs per-trial — either way the results match the pure
        # scalar dispatch
        executor = KernelExecutor(2, 6)
        floor = KernelExecutor.MIN_KERNEL_BATCH
        for width in (floor - 1, floor, 20):
            trials = range(width)
            assert executor.measure_chunk(2, 1, trials, batch=64) == executor.measure_chunk(
                2, 1, trials, batch=1
            )


class TestSharing:
    def test_cached_executor_is_shared_across_layers(self):
        from repro.engine.service import EmbeddingService

        executor = cached_executor(2, 6, "debruijn")
        assert cached_executor(2, 6, "debruijn") is executor
        query = EmbeddingService().measure_query(2, 6)
        assert query.executor is executor

    def test_the_shared_executor_owns_the_shared_topology(self):
        # get_topology builds a fresh instance every call; the one instance
        # a process gathers through is the cached executor's
        first, second = get_topology("kautz", 2, 6), get_topology("kautz", 2, 6)
        assert first is not second
        executor = cached_executor(2, 6, "kautz")
        assert cached_executor(2, 6, "kautz") is executor
        assert executor.topology is not first and executor.topology is not second
        assert executor.topology.key == "kautz"
        assert (executor.d, executor.n, executor.topology_key) == (2, 6, "kautz")

    @pytest.mark.parametrize("d, n", [(2.9, 6), (2, 6.5), (2, float("inf"))])
    def test_cached_executor_refuses_non_integral_parameters(self, d, n):
        cached_executor(2, 6)  # a resident B(2,6) must not answer for d=2.9
        with pytest.raises(InvalidParameterError, match="must be integers"):
            cached_executor(d, n)

    def test_simulate_fault_row_is_a_thin_client(self):
        # the sequential row is run_trial on the shared executor, one rng
        executor = cached_executor(2, 6, "kautz")
        rng = np.random.default_rng(0)
        samples = np.array([executor.run_trial(2, rng) for _ in range(5)])
        want = FaultSimulationRow.from_samples(
            2, 6, 2, samples[:, 0], samples[:, 1],
            reference_size=executor.topology.reference_size(2),
        )
        got = simulate_fault_row(
            2, 6, 2, trials=5, rng=np.random.default_rng(0), topology="kautz"
        )
        assert got == want

    def test_service_measure_routes_through_shared_executor(self):
        from repro.engine.service import EmbeddingService

        topo = get_topology("debruijn", 2, 6)
        service = EmbeddingService()
        response = service.measure(2, 6, faults=[(0, 1, 0, 1, 1, 0)])
        executor = cached_executor(2, 6, "debruijn")
        removed = topo.fault_unit_mask(
            np.asarray([topo.encode((0, 1, 0, 1, 1, 0))], dtype=np.int64)
        )
        size, ecc, root = executor.measure_mask_with_root(removed)
        assert (response.region_size, response.root_eccentricity) == (size, ecc)
        assert topo.encode(response.root) == root
