"""End-to-end sweeps over every registered topology backend.

The acceptance contract of the topology registry (ISSUE 4):

* ``sweep`` runs end-to-end for ``debruijn``, ``kautz``, ``hypercube`` and
  ``shuffle_exchange``, with the bit-parallel kernel (``batch=64``) equal to
  the scalar path (``batch=1``) trial-for-trial;
* worker count never changes a row on any backend;
* checkpoints are keyed by topology name: resuming under a different
  backend fails loudly, pre-registry (PR 3 format) De Bruijn checkpoints
  still resume.

Small-graph measurements are additionally cross-checked against networkx
BFS on the explicit graph classes.
"""

import json

import networkx as nx
import numpy as np
import pytest

from repro.analysis.fault_simulation import simulate_fault_table
from repro.engine import EmbeddingService, ParallelSweepEngine
from repro.engine.executor import KernelExecutor
from repro.exceptions import CheckpointMismatchError, UnknownTopologyError
from repro.graphs.msbfs import pack_mask_lanes
from repro.topology import get_topology
from oracles.networkx_graphs import to_networkx

SWEPT = ("debruijn", "kautz", "hypercube", "shuffle_exchange", "undirected_debruijn")
FAULT_COUNTS = (0, 1, 3, 6)
TRIALS = 10
SEED = 4


@pytest.mark.parametrize("topology", SWEPT)
class TestKernelScalarEquality:
    def test_batched_rows_equal_scalar_rows(self, topology):
        scalar = ParallelSweepEngine(2, 7, batch=1, topology=topology).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        batched = ParallelSweepEngine(2, 7, batch=64, topology=topology).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert scalar == batched

    def test_worker_count_invariance(self, topology):
        serial = ParallelSweepEngine(2, 7, topology=topology).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        parallel = ParallelSweepEngine(2, 7, workers=2, topology=topology).run(
            FAULT_COUNTS, trials=TRIALS, seed=SEED
        )
        assert serial == parallel

    def test_simulate_fault_table_topology_param(self, topology):
        lib = simulate_fault_table(
            2, 7, fault_counts=(2,), trials=6, seed=1, topology=topology
        )
        eng = ParallelSweepEngine(2, 7, topology=topology).run((2,), trials=6, seed=1)
        assert lib == eng

    def test_zero_fault_row_is_whole_graph(self, topology):
        topo = get_topology(topology, 2, 7)
        [row] = ParallelSweepEngine(2, 7, topology=topology).run((0,), trials=3, seed=0)
        assert row.max_size == row.min_size == topo.num_nodes
        assert row.reference_size == topo.num_nodes


class TestExecutorAgainstNetworkx:
    """The executor's (size, eccentricity) vs plain BFS on the explicit graphs."""

    def _reference_measure(self, g: nx.Graph | nx.DiGraph, root):
        lengths = nx.single_source_shortest_path_length(g, root)
        return len(lengths), max(lengths.values())

    def test_kautz_measure_matches_networkx(self):
        from repro.graphs.kautz import KautzGraph

        executor = KernelExecutor(2, 4, topology="kautz")
        topo = executor.topology
        rng = np.random.default_rng(0)
        for _ in range(25):
            codes = rng.choice(topo.num_nodes, size=2, replace=False)
            removed = topo.fault_unit_mask(codes)
            if removed[executor.root_code]:
                continue  # fallback semantics tested separately
            g = to_networkx(KautzGraph(2, 4))
            g.remove_nodes_from(
                [topo.decode(int(c)) for c in np.flatnonzero(removed)]
            )
            expected = self._reference_measure(g, topo.decode(executor.root_code))
            assert executor.measure_mask_with_root(removed)[:2] == expected

    def test_hypercube_measure_matches_networkx(self):
        from repro.graphs.hypercube import HypercubeGraph

        executor = KernelExecutor(2, 4, topology="hypercube")
        rng = np.random.default_rng(1)
        for _ in range(25):
            codes = rng.choice(16, size=3, replace=False)
            removed = executor.topology.fault_unit_mask(codes)
            if removed[executor.root_code]:
                continue
            g = to_networkx(HypercubeGraph(4))
            g.remove_nodes_from(np.flatnonzero(removed).tolist())
            expected = self._reference_measure(g, executor.root_code)
            assert executor.measure_mask_with_root(removed)[:2] == expected

    def test_shuffle_exchange_measure_matches_networkx(self):
        from repro.graphs.shuffle_exchange import ShuffleExchangeGraph

        executor = KernelExecutor(2, 4, topology="shuffle_exchange")
        topo = executor.topology
        rng = np.random.default_rng(2)
        for _ in range(25):
            codes = rng.choice(topo.num_nodes, size=3, replace=False)
            removed = topo.fault_unit_mask(codes)
            if removed[executor.root_code]:
                continue
            g = to_networkx(ShuffleExchangeGraph(2, 4))
            g.remove_nodes_from([topo.decode(int(c)) for c in np.flatnonzero(removed)])
            root_word = topo.decode(executor.root_code)
            if root_word not in g:
                continue
            expected = self._reference_measure(g, root_word)
            assert executor.measure_mask_with_root(removed)[:2] == expected

    def test_explicit_fault_words(self):
        # service.measure() accepts tuple words on every word-coded backend
        response = EmbeddingService().measure(
            2, 5, faults=[(0, 1, 2, 0, 1)], topology="kautz"
        )
        assert 0 < response.region_size < get_topology("kautz", 2, 5).num_nodes
        assert response.root_eccentricity > 0


class TestRootFallback:
    @pytest.mark.parametrize("topology", ("kautz", "hypercube", "shuffle_exchange"))
    def test_dead_root_peels_to_fallback(self, topology):
        executor = KernelExecutor(2, 6, topology=topology)
        topo = executor.topology
        removed = topo.fault_unit_mask([executor.root_code])
        size, ecc = executor.measure_mask_with_root(removed)[:2]
        assert size > 0  # fell back to a neighbouring root
        # the lane-packed candidate race agrees bit-for-bit
        lanes = pack_mask_lanes([removed], topo.num_nodes)
        assert executor._batched_fallbacks(lanes, [0], executor.root_code) == {
            0: (size, ecc)
        }

    def test_all_nodes_removed_yields_zero(self):
        executor = KernelExecutor(2, 3, topology="shuffle_exchange")
        removed = np.ones(executor.topology.num_nodes, dtype=bool)
        assert executor.measure_mask_with_root(removed)[:2] == (0, 0)


class TestTopologyCheckpoints:
    def test_checkpoint_header_carries_topology(self, tmp_path):
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path, topology="kautz").run(
            (1,), trials=3, seed=0
        )
        data = json.loads(path.read_text())
        assert data["topology"] == "kautz"

    def test_cross_topology_resume_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path, topology="kautz").run(
            (1,), trials=3, seed=0
        )
        with pytest.raises(CheckpointMismatchError) as excinfo:
            ParallelSweepEngine(2, 6, checkpoint_path=path, topology="debruijn").run(
                (1,), trials=3, seed=0
            )
        assert "topology" in str(excinfo.value)
        assert excinfo.value.stored["topology"] == "kautz"
        assert excinfo.value.requested["topology"] == "debruijn"

    def test_seed_mismatch_raises_typed_error(self, tmp_path):
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=0)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=1)
        assert "seed" in str(excinfo.value)

    def test_pr3_format_checkpoint_resumes(self, tmp_path):
        # a pre-registry checkpoint has no "topology" field; it must load as
        # a De Bruijn sweep and resume to the exact uninterrupted rows
        path = tmp_path / "sweep.json"
        full = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            (1, 3), trials=4, seed=7
        )
        data = json.loads(path.read_text())
        del data["topology"]  # rewrite the file in PR 3 format
        half = {f: dict(list(trials.items())[:2]) for f, trials in data["completed"].items()}
        data["completed"] = half
        path.write_text(json.dumps(data))
        resumed = ParallelSweepEngine(2, 6, checkpoint_path=path).run(
            (1, 3), trials=4, seed=7
        )
        assert resumed == full

    def test_pr3_format_checkpoint_rejected_for_other_topology(self, tmp_path):
        path = tmp_path / "sweep.json"
        ParallelSweepEngine(2, 6, checkpoint_path=path).run((1,), trials=3, seed=0)
        data = json.loads(path.read_text())
        del data["topology"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointMismatchError):
            ParallelSweepEngine(2, 6, checkpoint_path=path, topology="hypercube").run(
                (1,), trials=3, seed=0
            )

    def test_checkpointed_topology_resume_equals_uninterrupted(self, tmp_path):
        from repro.engine import SweepProgress

        class _Stop(Exception):
            pass

        count = {"n": 0}

        def interrupt(progress: SweepProgress) -> None:
            count["n"] += 1
            if count["n"] == 5:
                raise _Stop

        path = tmp_path / "sweep.json"
        full = ParallelSweepEngine(2, 7, topology="shuffle_exchange").run(
            (1, 2), trials=6, seed=3
        )
        with pytest.raises(_Stop):
            ParallelSweepEngine(
                2, 7, topology="shuffle_exchange", checkpoint_path=path,
                checkpoint_every=1, progress=interrupt, batch=1,
            ).run((1, 2), trials=6, seed=3)
        resumed = ParallelSweepEngine(
            2, 7, topology="shuffle_exchange", checkpoint_path=path
        ).run((1, 2), trials=6, seed=3)
        assert resumed == full


class TestTopologyInstance:
    """The registry key drives measurement AND aggregation."""

    def test_engine_adopts_topology_instance(self):
        [row] = ParallelSweepEngine(2, 6, topology="hypercube").run((1,), trials=4, seed=0)
        assert row.reference_size == 2**6 - 1  # hypercube N - f, not d^n - nf

    @pytest.mark.parametrize("workers", [None, 2])
    def test_unknown_topology_key_is_refused(self, workers):
        with pytest.raises(UnknownTopologyError):
            ParallelSweepEngine(2, 5, topology="custom_cube_for_test", workers=workers)

    def test_checkpoint_header_uses_instance_topology(self, tmp_path):
        path = tmp_path / "ck.json"
        ParallelSweepEngine(2, 6, topology="shuffle_exchange", checkpoint_path=path).run(
            (1,), trials=2, seed=0
        )
        assert json.loads(path.read_text())["topology"] == "shuffle_exchange"


class TestRegistryReRegistration:
    def test_re_register_evicts_cached_instances(self):
        from repro.topology import HypercubeTopology, register_topology
        from repro.topology.hypercube import HypercubeTopology as Builtin

        try:
            before = get_topology("hypercube", 2, 4)

            class Patched(HypercubeTopology):
                pass

            register_topology("hypercube", Patched)
            after = get_topology("hypercube", 2, 4)
            assert type(after) is Patched and after is not before
        finally:
            register_topology("hypercube", Builtin)


class TestReferenceColumns:
    def test_hypercube_reference_counts_single_nodes(self):
        [row] = ParallelSweepEngine(2, 8, topology="hypercube").run((5,), trials=2, seed=0)
        assert row.reference_size == 2**8 - 5

    def test_kautz_reference_counts_orbits(self):
        [row] = ParallelSweepEngine(2, 6, topology="kautz").run((2,), trials=2, seed=0)
        topo = get_topology("kautz", 2, 6)
        assert row.reference_size == topo.num_nodes - 6 * 2

    def test_debruijn_reference_unchanged(self):
        [row] = ParallelSweepEngine(2, 10).run((7,), trials=2, seed=0)
        assert row.reference_size == 2**10 - 10 * 7
