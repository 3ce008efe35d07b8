"""Tests for model checkpointing and resume on the real runtime."""

import struct

import numpy as np
import pytest

from repro.core.local_runtime import LocalHarmonyRuntime, LocalJob
from repro.errors import PSError
from repro.ml import MLRModel
from repro.ml.datasets import make_classification, partition_rows
from repro.ps.checkpoint import load_checkpoint, save_checkpoint
from repro.ps.serialization import encode


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        params = {"w": np.arange(12, dtype=float).reshape(3, 4),
                  "b": np.array([1.0, 2.0])}
        target = save_checkpoint(tmp_path / "model.ckpt", params,
                                 clock=7)
        loaded, clock = load_checkpoint(target)
        assert clock == 7
        assert np.allclose(loaded["w"], params["w"])
        assert np.allclose(loaded["b"], params["b"])

    def test_creates_directories(self, tmp_path):
        target = save_checkpoint(tmp_path / "a/b/model.ckpt",
                                 {"w": np.ones(2)})
        assert target.exists()

    def test_negative_clock_rejected(self, tmp_path):
        with pytest.raises(PSError):
            save_checkpoint(tmp_path / "x.ckpt", {"w": np.ones(1)},
                            clock=-1)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(PSError, match="not a Harmony checkpoint"):
            load_checkpoint(bad)

    def test_unknown_version_rejected(self, tmp_path):
        future = tmp_path / "future.ckpt"
        future.write_bytes(b"HCKP" + struct.pack("<IQ", 2, 0)
                           + encode({"w": np.ones(1)}))
        with pytest.raises(PSError,
                           match="unsupported checkpoint version 2"):
            load_checkpoint(future)


class TestResumeTraining:
    def test_resumed_job_continues_from_checkpoint(self, tmp_path):
        """Train, checkpoint, resume: the resumed run starts from the
        trained loss level, not from scratch (§IV-B4's resume path)."""
        features, labels, _ = make_classification(240, 10, 3, seed=1)
        parts = partition_rows(len(labels), 2)
        partitions = [{"X": features[p], "y": labels[p]} for p in parts]

        first_leg = LocalHarmonyRuntime(
            [LocalJob("job", MLRModel(10, 3), partitions,
                      max_epochs=10, learning_rate=0.5)],
            barrier_timeout=30).run()["job"]
        path = save_checkpoint(tmp_path / "leg1.ckpt",
                               first_leg.final_params,
                               clock=first_leg.epochs)

        params, clock = load_checkpoint(path)
        assert clock == 10
        second_leg = LocalHarmonyRuntime(
            [LocalJob("job", MLRModel(10, 3), partitions,
                      max_epochs=5, learning_rate=0.5,
                      initial_params=params)],
            barrier_timeout=30).run()["job"]
        # The resumed run starts roughly where the first one ended —
        # far below a cold start's initial loss.
        cold_start_loss = first_leg.losses[0]
        assert second_leg.losses[0] < cold_start_loss * 0.8
        assert second_leg.losses[-1] <= second_leg.losses[0] * 1.05
