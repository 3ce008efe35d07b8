#!/usr/bin/env python
"""Train *real* models, co-located, through the actual PS runtime.

The paper's four applications (Table I) — multinomial logistic
regression, Lasso, NMF and LDA — run simultaneously on real threads.  Each
worker iterates PULL -> COMP -> PUSH against its job's parameter-server
shards while Harmony's subtask discipline serializes COMP subtasks on a
shared CPU token and lets COMM subtasks overlap (§IV-A, for real).
Afterwards the MLR job is paused to a checkpoint on disk and resumed
from it (§IV-B4's pause path).

Run with::

    python examples/train_colocated_models.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.local_runtime import LocalHarmonyRuntime, LocalJob
from repro.ml import LassoModel, LDAModel, MLRModel, NMFModel
from repro.ml.datasets import (
    make_classification,
    make_documents,
    make_ratings,
    make_regression,
    partition_rows,
)
from repro.ps.checkpoint import load_checkpoint, save_checkpoint


def build_jobs() -> list[LocalJob]:
    jobs = []

    # Job 1: 4-class logistic regression, 2 workers.
    features, labels, _ = make_classification(600, 20, 4, seed=1)
    parts = partition_rows(len(labels), 2)
    jobs.append(LocalJob(
        "mlr", MLRModel(20, 4),
        [{"X": features[p], "y": labels[p]} for p in parts],
        max_epochs=25, learning_rate=0.5))

    # Job 2: sparse regression, 2 workers.
    features, targets, _ = make_regression(500, 60, sparsity=0.8,
                                           seed=2)
    parts = partition_rows(len(targets), 2)
    jobs.append(LocalJob(
        "lasso", LassoModel(60, l1=0.02),
        [{"X": features[p], "y": targets[p]} for p in parts],
        max_epochs=25, learning_rate=0.3))

    # Job 3: ratings factorization, 2 workers (nnz split).
    coords, values = make_ratings(80, 60, rank=6, density=0.15, seed=3)
    halves = np.array_split(np.arange(len(values)), 2)
    rng = np.random.default_rng(4)
    jobs.append(LocalJob(
        "nmf", NMFModel(80, 60, rank=6),
        [{"coords": coords[h], "values": values[h],
          "W": rng.uniform(0.1, 0.5, size=(80, 6))} for h in halves],
        max_epochs=25, learning_rate=0.4))

    # Job 4: topic modeling by collapsed Gibbs sampling, 2 workers.
    documents = make_documents(40, vocab_size=50, n_topics=4,
                               doc_length=20, seed=5)
    jobs.append(LocalJob(
        "lda", LDAModel(50, n_topics=4),
        [{"docs": documents[:20]}, {"docs": documents[20:]}],
        max_epochs=10))
    return jobs


def main() -> None:
    jobs = build_jobs()
    runtime = LocalHarmonyRuntime(jobs, barrier_timeout=60)
    print("Training MLR + Lasso + NMF + LDA co-located "
          "(one COMP at a time, overlapping COMM)...")
    results = runtime.run()

    for job_id, result in sorted(results.items()):
        losses = result.losses
        print(f"\n{job_id}: {result.epochs} epochs, "
              f"{result.bytes_moved / 1024:.0f} KiB over the PS wire")
        print(f"  objective: {losses[0]:.4f} -> {losses[-1]:.4f} "
              f"({(1 - losses[-1] / losses[0]):.0%} reduction)")
        metrics = runtime.profiler.get(job_id)
        print(f"  profiled:  W_cpu={metrics.cpu_work * 1e3:.2f} ms, "
              f"t_net={metrics.t_net * 1e3:.2f} ms over "
              f"{metrics.samples} iterations")

    mlr = jobs[0]
    features = np.concatenate([part["X"] for part in mlr.partitions])
    labels = np.concatenate([part["y"] for part in mlr.partitions])
    accuracy = mlr.model.accuracy(results["mlr"].final_params,
                                  features, labels)
    print(f"\nmlr: training accuracy {accuracy:.1%}")

    # Pause: checkpoint the trained model on disk.  Resume: seed a new
    # run of the job with the checkpointed parameters.
    with tempfile.TemporaryDirectory() as scratch:
        path = save_checkpoint(Path(scratch) / "mlr.ckpt",
                               results["mlr"].final_params,
                               clock=results["mlr"].epochs)
        params, clock = load_checkpoint(path)
    resumed = LocalHarmonyRuntime(
        [replace(mlr, max_epochs=5, initial_params=params)],
        barrier_timeout=60).run()["mlr"]
    print(f"mlr: resumed from the epoch-{clock} checkpoint, objective "
          f"{resumed.losses[0]:.4f} -> {resumed.losses[-1]:.4f}")

    print("\nThe profiled metrics above are exactly what Harmony's "
          "scheduler consumes (T_cpu, T_net per job, §IV-B1).")


if __name__ == "__main__":
    main()
