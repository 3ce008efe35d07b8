"""Tests for transport bandwidth simulation and PS wiring details."""

import time

import numpy as np
import pytest

from repro.errors import PSError
from repro.ps import InProcessTransport, PSClient, PSServer, RangePartitioner


def build(n_workers=1, bandwidth=None):
    keys = ["k0", "k1"]
    partitioner = RangePartitioner(keys, 2)
    transport = InProcessTransport(simulated_bandwidth_bps=bandwidth)
    for shard in range(partitioner.n_shards):
        server = PSServer(shard, n_workers=n_workers,
                          barrier_timeout=5.0)
        server.init_params({k: np.zeros(64)
                            for k in partitioner.keys_of_shard(shard)})
        transport.register(server)
    clients = [PSClient(w, transport, partitioner)
               for w in range(n_workers)]
    return transport, clients


class TestBandwidthSimulation:
    def test_simulated_bandwidth_adds_latency(self):
        fast_transport, fast_clients = build()
        slow_transport, slow_clients = build(bandwidth=50_000.0)

        started = time.perf_counter()
        fast_clients[0].pull()
        fast_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        slow_clients[0].pull()
        slow_elapsed = time.perf_counter() - started
        assert slow_elapsed > fast_elapsed
        # ~1.1 KiB over 50 kB/s is ~20 ms.
        assert slow_elapsed > 0.01

    def test_request_count_increments(self):
        transport, clients = build()
        clients[0].pull()
        pulls = transport.requests
        clients[0].push({"k0": np.ones(64)})
        assert transport.requests > pulls


class TestClientWiring:
    def test_pull_subset_of_keys(self):
        _, clients = build()
        values = clients[0].pull(["k1"])
        assert set(values) == {"k1"}

    def test_push_routes_to_owning_shard_only(self):
        transport, clients = build()
        clients[0].push({"k0": np.ones(64)})
        after_first = transport.bytes_pushed
        clients[0].push({})  # empty push still syncs both shards
        assert transport.bytes_pushed > 0
        assert transport.bytes_pushed - after_first < after_first

    def test_unknown_shard_raises(self):
        transport, _ = build()
        with pytest.raises(PSError):
            transport.pull(99, ["k0"], clock=0)


class TestSleepModelRegistration:
    def test_sleep_model_is_ps_trainable(self):
        from repro.ml.base import PSTrainable
        from repro.ml.synthetic_sleep import SleepModel
        assert issubclass(SleepModel, PSTrainable)
        model = SleepModel(0.0, payload_elements=16)
        params = model.init_params(np.random.default_rng(0))
        assert params["state"].shape == (16,)
