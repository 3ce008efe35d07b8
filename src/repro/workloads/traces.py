"""Google-cluster-trace-like arrival processes.

The paper extracts "10 job arrival processes randomly from different
time windows" of the Google cluster workload traces, noting that "the
traces have more diverse pattern of arrivals and job arrival spikes"
(§V-D).  The trace files themselves are not redistributable, so this
module generates synthetic processes with the two properties the paper
relies on: bursty spikes (jobs arriving in clumps) over a variable-rate
background — a standard doubly-stochastic (Markov-modulated Poisson)
approximation of datacenter submission behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def google_trace_arrivals(n_jobs: int,
                          mean_interarrival_seconds: float = 120.0,
                          burstiness: float = 0.6,
                          window_index: int = 0,
                          seed: int = 2021) -> list[float]:
    """One synthetic trace window with bursty arrivals.

    ``window_index`` selects one of the "different time windows": each
    index derives an independent stream, mirroring the paper's ten
    random extractions.  ``burstiness`` in [0, 1) is the fraction of
    jobs arriving inside spikes.
    """
    if n_jobs < 0:
        raise WorkloadError(f"negative job count {n_jobs}")
    if not 0.0 <= burstiness < 1.0:
        raise WorkloadError(f"burstiness {burstiness} not in [0, 1)")
    if mean_interarrival_seconds <= 0:
        raise WorkloadError("mean inter-arrival time must be positive")
    if n_jobs == 0:
        return []

    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 0x900913, window_index]))

    n_burst = int(round(n_jobs * burstiness))
    n_background = n_jobs - n_burst
    horizon = mean_interarrival_seconds * n_jobs

    # Background: homogeneous Poisson over the window.
    background = rng.uniform(0.0, horizon, size=n_background)

    # Spikes: a few clumps with tight intra-spike gaps.
    n_spikes = max(1, int(rng.integers(2, 6)))
    spike_centers = rng.uniform(0.0, horizon, size=n_spikes)
    spike_assignment = rng.integers(0, n_spikes, size=n_burst)
    spike_jitter = rng.exponential(mean_interarrival_seconds * 0.05,
                                   size=n_burst)
    spikes = spike_centers[spike_assignment] + spike_jitter

    times = np.sort(np.concatenate([background, spikes]))
    times = times - times[0]  # the first job opens the experiment
    return [float(t) for t in times]

