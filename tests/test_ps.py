"""Tests for the in-process Parameter Server substrate."""

import threading

import numpy as np
import pytest

from repro.errors import PSError
from repro.ps import (
    InProcessTransport,
    KVStore,
    PSClient,
    PSServer,
    RangePartitioner,
    payload_bytes,
)
from repro.ps.serialization import decode, encode


@pytest.mark.parametrize("build, match", [
    (lambda: RangePartitioner(["a"], 0), "need >= 1 shard"),
    (lambda: RangePartitioner(["a"], 1).keys_of_shard(1), "out of range"),
    (lambda: KVStore().update({"zzz": np.ones(1)}), "unknown key"),
    (lambda: decode(encode({"w": np.ones(2)}) + b"\0"), "trailing bytes"),
    (lambda: PSServer(0, n_workers=0), "need >= 1 worker"),
], ids=["no-shards", "shard-out-of-range", "update-unknown-key",
        "trailing-frame-bytes", "no-workers"])
def test_invalid_request_rejected(build, match):
    with pytest.raises(PSError, match=match):
        build()


class TestKVStore:
    def test_init_and_get_copies(self):
        store = KVStore()
        value = np.ones(3)
        store.init("w", value)
        fetched = store.get("w")
        fetched[0] = 99.0
        assert store.get("w")[0] == 1.0

    def test_double_init_raises(self):
        store = KVStore()
        store.init("w", np.ones(2))
        with pytest.raises(PSError):
            store.init("w", np.ones(2))

    def test_unknown_key_raises(self):
        with pytest.raises(PSError):
            KVStore().get("missing")

    def test_update_is_additive(self):
        store = KVStore()
        store.init("w", np.array([1.0, 2.0]))
        store.update({"w": np.array([0.5, -1.0])})
        assert np.allclose(store.get("w"), [1.5, 1.0])

    def test_update_scale(self):
        store = KVStore()
        store.init("w", np.zeros(2))
        store.update({"w": np.ones(2)}, scale=-2.0)
        assert np.allclose(store.get("w"), [-2.0, -2.0])

    def test_update_shape_mismatch_raises(self):
        store = KVStore()
        store.init("w", np.zeros(2))
        with pytest.raises(PSError):
            store.update({"w": np.zeros(3)})

    def test_version_bumps_per_update(self):
        store = KVStore()
        store.init("w", np.zeros(1))
        assert store.version == 0
        store.update({"w": np.ones(1)})
        store.update({"w": np.ones(1)})
        assert store.version == 2

    def test_snapshot_selects_keys(self):
        store = KVStore()
        store.init("a", np.ones(1))
        store.init("b", np.ones(1))
        assert set(store.snapshot(["a"])) == {"a"}
        with pytest.raises(PSError):
            store.snapshot(["missing"])

    def test_total_bytes(self):
        store = KVStore()
        store.init("w", np.zeros(4))
        assert store.total_bytes() == 32


class TestPartitioner:
    def test_round_robin_assignment_is_balanced(self):
        keys = [f"k{i}" for i in range(10)]
        part = RangePartitioner(keys, 3)
        sizes = [len(part.keys_of_shard(s)) for s in range(3)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_shards_capped_by_key_count(self):
        part = RangePartitioner(["a", "b"], 5)
        assert part.n_shards == 2

    def test_unknown_key_raises(self):
        part = RangePartitioner(["a"], 1)
        with pytest.raises(PSError):
            part.shard_of("zzz")

    def test_empty_keys_raise(self):
        with pytest.raises(PSError):
            RangePartitioner([], 2)

    def test_group_by_shard_covers_input(self):
        keys = [f"k{i}" for i in range(7)]
        part = RangePartitioner(keys, 2)
        grouped = part.group_by_shard(keys)
        flattened = [k for shard in grouped.values() for k in shard]
        assert sorted(flattened) == sorted(keys)

    def test_deterministic_across_constructions(self):
        keys = [f"k{i}" for i in range(6)]
        a = RangePartitioner(keys, 2)
        b = RangePartitioner(reversed(keys), 2)
        assert all(a.shard_of(k) == b.shard_of(k) for k in keys)


class TestSerialization:
    def test_roundtrip(self):
        arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                  "b": np.array([1.5])}
        decoded = decode(encode(arrays))
        assert set(decoded) == {"w", "b"}
        assert np.allclose(decoded["w"], arrays["w"])
        assert decoded["w"].shape == (2, 3)

    def test_roundtrip_scalar_shapes(self):
        arrays = {"s": np.float64(3.0).reshape(())}
        decoded = decode(encode(arrays))
        assert decoded["s"].shape == ()

    def test_payload_bytes_tracks_data_size(self):
        small = payload_bytes({"w": np.zeros(10)})
        large = payload_bytes({"w": np.zeros(1000)})
        assert large - small == (1000 - 10) * 8

    def test_bad_magic_rejected(self):
        with pytest.raises(PSError):
            decode(b"XXXX" + b"\x00" * 10)

    def test_encoded_size_matches_payload_bytes(self):
        arrays = {"w": np.zeros((3, 4)), "v": np.ones(5)}
        assert len(encode(arrays)) == payload_bytes(arrays)


class TestServerClient:
    def _build(self, n_workers=2, n_keys=4):
        keys = [f"k{i}" for i in range(n_keys)]
        part = RangePartitioner(keys, n_shards=2)
        transport = InProcessTransport()
        servers = []
        for shard in range(part.n_shards):
            server = PSServer(shard, n_workers=n_workers,
                              barrier_timeout=5.0)
            server.init_params({k: np.zeros(2)
                                for k in part.keys_of_shard(shard)})
            transport.register(server)
            servers.append(server)
        clients = [PSClient(w, transport, part)
                   for w in range(n_workers)]
        return part, transport, servers, clients

    def test_pull_gathers_all_keys(self):
        part, _, _, clients = self._build()
        params = clients[0].pull()
        assert sorted(params) == part.keys

    def test_push_applies_deltas_and_advances_clock(self):
        _, _, servers, clients = self._build(n_workers=1)
        client = clients[0]
        client.push({"k0": np.array([1.0, 2.0])})
        assert client.clock == 1
        params = client.pull()
        assert np.allclose(params["k0"], [1.0, 2.0])

    def test_synchronous_barrier_blocks_fast_worker(self):
        """A worker cannot pull clock 1 until every worker pushed 0."""
        _, _, _, clients = self._build(n_workers=2)
        fast, slow = clients
        fast.push({})
        progressed = threading.Event()

        def fast_worker():
            fast.pull()  # needs clock 0 complete -> blocks on slow
            progressed.set()

        thread = threading.Thread(target=fast_worker, daemon=True)
        thread.start()
        assert not progressed.wait(timeout=0.2)
        slow.push({})
        assert progressed.wait(timeout=5.0)
        thread.join(timeout=5.0)

    def test_double_push_same_clock_rejected(self):
        _, _, servers, clients = self._build(n_workers=1)
        servers[0].handle_push(0, {}, clock=0)
        with pytest.raises(PSError):
            servers[0].handle_push(0, {}, clock=0)

    def test_short_pull_answer_rejected(self, monkeypatch):
        """A shard that answers without some requested key fails the
        pull instead of handing the worker a partial model."""
        _, transport, _, clients = self._build(n_workers=1)
        answer = transport.pull
        monkeypatch.setattr(
            transport, "pull",
            lambda shard, keys, clock: answer(shard, keys[1:], clock))
        with pytest.raises(PSError, match="pull failed to gather"):
            clients[0].pull()

    def test_unknown_worker_rejected(self):
        _, _, servers, _ = self._build(n_workers=1)
        with pytest.raises(PSError):
            servers[0].handle_push(99, {}, clock=0)

    def test_barrier_timeout_raises(self):
        server = PSServer(0, n_workers=2, barrier_timeout=0.05)
        server.init_params({"k": np.zeros(1)})
        with pytest.raises(PSError, match="barrier timeout"):
            server.handle_pull(["k"], clock=1)

    def test_transport_meters_bytes(self):
        _, transport, _, clients = self._build(n_workers=1)
        clients[0].pull()
        assert transport.bytes_pulled > 0
        clients[0].push({"k0": np.ones(2)})
        assert transport.bytes_pushed > 0
        assert transport.total_bytes == (transport.bytes_pulled
                                         + transport.bytes_pushed)

    def test_duplicate_shard_registration_rejected(self):
        transport = InProcessTransport()
        server = PSServer(0, n_workers=1)
        transport.register(server)
        with pytest.raises(PSError):
            transport.register(PSServer(0, n_workers=1))
