"""Tests for the cluster inventory and its substrate models."""

import pytest

from repro.cluster import Cluster, DiskModel, MemoryLedger, NetworkModel
from repro.config import GB, GCModel
from repro.errors import ClusterError, OutOfMemoryError


class TestCluster:
    def test_all_machines_start_free(self):
        cluster = Cluster(5)
        assert cluster.size == 5
        assert cluster.n_free == 5
        assert cluster.n_allocated == 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(0)

    def test_allocate_returns_distinct_ids(self):
        cluster = Cluster(10)
        ids = cluster.allocate(4, "g0")
        assert len(set(ids)) == 4
        assert cluster.n_free == 6

    def test_over_allocation_raises(self):
        cluster = Cluster(3)
        with pytest.raises(ClusterError):
            cluster.allocate(4, "g0")

    def test_zero_allocation_raises(self):
        with pytest.raises(ClusterError):
            Cluster(3).allocate(0, "g0")

    def test_release_returns_machines(self):
        cluster = Cluster(4)
        ids = cluster.allocate(2, "g0")
        cluster.release(ids, "g0")
        assert cluster.n_free == 4

    def test_release_by_wrong_owner_raises(self):
        cluster = Cluster(4)
        ids = cluster.allocate(2, "g0")
        with pytest.raises(ClusterError):
            cluster.release(ids, "g1")
        # Nothing was released by the failed call.
        assert cluster.n_free == 2

    def test_release_all_counts(self):
        cluster = Cluster(6)
        cluster.allocate(2, "a")
        cluster.allocate(3, "b")
        assert cluster.release_all("b") == 3
        assert cluster.n_free == 4

    def test_owned_by_tracks_holdings(self):
        cluster = Cluster(5)
        ids = cluster.allocate(3, "g0")
        assert cluster.owned_by("g0") == ids
        assert cluster.owned_by("other") == ()



    @pytest.mark.parametrize("machine_id", [-1, 3])
    @pytest.mark.parametrize("query", ["is_failed", "owner_of",
                                       "mark_failed", "restore_machine"])
    def test_unknown_machine_id_raises(self, query, machine_id):
        cluster = Cluster(3)
        with pytest.raises(ClusterError, match="unknown machine id"):
            getattr(cluster, query)(machine_id)

    def test_repeat_fail_and_repeat_restore_are_no_ops(self):
        cluster = Cluster(3)
        cluster.mark_failed(1)
        cluster.mark_failed(1)
        assert cluster.n_failed == 1
        assert cluster.n_free == 2
        cluster.restore_machine(1)
        cluster.restore_machine(1)
        assert cluster.n_failed == 0
        assert cluster.n_free == 3
        assert not cluster.is_failed(1)

    def test_a_failed_owned_machine_returns_only_after_restore(self):
        cluster = Cluster(2)
        (held, _) = cluster.allocate(2, "g0")
        cluster.mark_failed(held)
        assert cluster.owner_of(held) == "g0"
        cluster.release_all("g0")
        assert cluster.n_free == 1
        cluster.restore_machine(held)
        assert cluster.n_free == 2
        assert cluster.owner_of(held) is None

    def test_a_machine_restored_while_owned_stays_with_its_owner(self):
        cluster = Cluster(2)
        (held, _) = cluster.allocate(2, "g0")
        cluster.mark_failed(held)
        cluster.restore_machine(held)
        assert not cluster.is_failed(held)
        assert cluster.owner_of(held) == "g0"
        assert cluster.n_free == 0
        cluster.release_all("g0")
        assert cluster.n_free == 2


class TestMemoryLedger:
    def test_empty_ledger_has_no_pressure(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        assert ledger.pressure == 0.0
        assert ledger.gc_inflation() == 1.0
        assert not ledger.is_oom()

    def test_components_accumulate(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        ledger.set_component("job", "input", 4 * GB)
        ledger.set_component("job", "model", 2 * GB)
        assert ledger.resident_bytes == pytest.approx(6 * GB)

    def test_component_overwrite_replaces(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        ledger.set_component("job", "input", 4 * GB)
        ledger.set_component("job", "input", 1 * GB)
        assert ledger.resident_bytes == pytest.approx(1 * GB)

    def test_zero_bytes_removes_component(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        ledger.set_component("job", "input", 4 * GB)
        ledger.set_component("job", "input", 0)
        assert ledger.resident_bytes == 0

    def test_negative_bytes_raises(self, machine_spec):
        with pytest.raises(ValueError):
            MemoryLedger(machine_spec).set_component("j", "x", -1)

    def test_remove_job_drops_every_component(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        ledger.set_component("a", "input", GB)
        ledger.set_component("a", "model", GB)
        ledger.set_component("b", "input", GB)
        ledger.remove_job("a")
        assert ledger.resident_bytes == pytest.approx(GB)

    def test_oom_raises_with_context(self, machine_spec):
        ledger = MemoryLedger(machine_spec)
        ledger.set_component("j1", "input",
                             machine_spec.usable_memory_bytes * 0.6)
        ledger.set_component("j2", "input",
                             machine_spec.usable_memory_bytes * 0.6)
        with pytest.raises(OutOfMemoryError) as info:
            ledger.check_oom()
        assert info.value.job_ids == ("j1", "j2")
        assert info.value.resident_gb > info.value.capacity_gb

    def test_gc_factor_is_fresh_after_every_write(self, machine_spec):
        """gc_inflation() keeps its value between reads; every write to
        the components must drop it, so a read after a write equals the
        model's inflation at the new pressure."""
        ledger = MemoryLedger(machine_spec)
        usable = machine_spec.usable_memory_bytes

        def fresh():
            return GCModel().inflation(ledger.pressure)

        ledger.set_component("a", "input", usable * 0.5)
        assert ledger.gc_inflation() == fresh() == 1.0
        # Past the GC onset: the factor rises above 1.
        ledger.set_component("b", "input", usable * 0.4)
        assert ledger.gc_inflation() == fresh() > 1.0
        ledger.set_component("b", "input", usable * 0.45)
        assert ledger.gc_inflation() == fresh()
        # A zero-byte write removes the component.
        ledger.set_component("a", "input", 0)
        assert ledger.gc_inflation() == fresh() == 1.0
        ledger.set_component("a", "model", usable * 0.5)
        assert ledger.gc_inflation() == fresh() > 1.0
        ledger.remove_job("b")
        assert ledger.gc_inflation() == fresh() == 1.0


class TestGCModel:
    def test_no_inflation_below_onset(self):
        model = GCModel(onset=0.7)
        assert model.inflation(0.5) == 1.0
        assert model.inflation(0.7) == 1.0

    def test_inflation_grows_monotonically(self):
        model = GCModel(onset=0.7, strength=2.0)
        samples = [model.inflation(rho)
                   for rho in (0.75, 0.8, 0.9, 0.99)]
        assert samples == sorted(samples)
        assert samples[0] > 1.0

    def test_full_pressure_inflation_equals_one_plus_strength(self):
        model = GCModel(onset=0.5, strength=3.0)
        assert model.inflation(1.0) == pytest.approx(4.0)

    def test_oom_threshold(self):
        model = GCModel(oom_ratio=1.0)
        assert not model.is_oom(0.99)
        assert model.is_oom(1.0)


class TestNetworkModel:
    def test_transfer_time_scales_with_bytes(self, machine_spec):
        model = NetworkModel(machine_spec)
        assert model.transfer_seconds(2 * GB) == pytest.approx(
            2 * model.transfer_seconds(GB))

    def test_efficiency_reduces_goodput(self, machine_spec):
        fast = NetworkModel(machine_spec, efficiency=1.0,
                            serialization_overhead=0.0)
        slow = NetworkModel(machine_spec, efficiency=0.5,
                            serialization_overhead=0.0)
        assert slow.transfer_seconds(GB) == pytest.approx(
            2 * fast.transfer_seconds(GB))

    def test_negative_bytes_raises(self, machine_spec):
        with pytest.raises(ValueError):
            NetworkModel(machine_spec).transfer_seconds(-1)

    def test_traffic_fraction_scales_pull(self, machine_spec):
        model = NetworkModel(machine_spec)
        assert model.pull_seconds(GB, 0.5) == pytest.approx(
            0.5 * model.pull_seconds(GB, 1.0))


class TestDiskModel:
    def test_read_includes_deserialization(self, machine_spec):
        disk = DiskModel(machine_spec, deserialization_overhead=0.25)
        raw_seconds = GB / machine_spec.disk_read_bps
        assert disk.read_seconds(GB) == pytest.approx(1.25 * raw_seconds)

    def test_write_uses_write_bandwidth(self, machine_spec):
        disk = DiskModel(machine_spec)
        assert disk.write_seconds(GB) == pytest.approx(
            GB / machine_spec.disk_write_bps)

    def test_checkpoint_restore_roundtrip_positive(self, machine_spec):
        disk = DiskModel(machine_spec)
        assert disk.checkpoint_seconds(GB) > 0
        assert disk.restore_seconds(GB) > disk.checkpoint_seconds(GB) * 0

    def test_negative_sizes_raise(self, machine_spec):
        disk = DiskModel(machine_spec)
        with pytest.raises(ValueError):
            disk.read_seconds(-1)
        with pytest.raises(ValueError):
            disk.write_seconds(-1)
