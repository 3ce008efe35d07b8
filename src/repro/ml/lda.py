"""Latent Dirichlet allocation by collapsed Gibbs sampling (the paper's
topic-modeling workload).

The shared model on the servers is the topic-word count matrix (plus
per-topic totals); each worker keeps its documents' topic assignments
and doc-topic counts locally.  A COMP subtask resamples every token of
the partition against the pulled global counts and pushes the count
*deltas* — the standard distributed collapsed Gibbs scheme (e.g.
Bösen/Petuum LDA).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.ml.base import PSTrainable, TrainState

#: Symmetric Dirichlet prior on each document's topic mixture.
ALPHA = 0.1
#: Symmetric Dirichlet prior on each topic's word distribution.
BETA = 0.01


class LDAModel(PSTrainable):
    """Collapsed Gibbs LDA with symmetric Dirichlet priors."""

    name = "LDA"

    def __init__(self, vocab_size: int, n_topics: int = 10):
        if vocab_size < 1 or n_topics < 2:
            raise WorkloadError("LDA needs a vocabulary and >= 2 topics")
        self.vocab_size = vocab_size
        self.n_topics = n_topics

    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        return {
            "topic_word": np.zeros((self.n_topics, self.vocab_size)),
            "topic_total": np.zeros(self.n_topics),
        }

    def seed_partition(self, partition: dict,
                       rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Assign random initial topics to a partition's tokens.

        Returns the count deltas the worker must push so the global
        model reflects the random initialization.
        """
        documents: list[np.ndarray] = partition["docs"]
        assignments = [rng.integers(0, self.n_topics, size=len(doc))
                       for doc in documents]
        doc_topic = np.zeros((len(documents), self.n_topics))
        topic_word = np.zeros((self.n_topics, self.vocab_size))
        topic_total = np.zeros(self.n_topics)
        for d, (doc, topics) in enumerate(zip(documents, assignments, strict=True)):
            for word, topic in zip(doc, topics, strict=True):
                doc_topic[d, topic] += 1
                topic_word[topic, word] += 1
                topic_total[topic] += 1
        partition["assignments"] = assignments
        partition["doc_topic"] = doc_topic
        return {"topic_word": topic_word, "topic_total": topic_total}

    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        if "assignments" not in partition:
            raise WorkloadError(
                "partition not seeded; call seed_partition first")
        documents: list[np.ndarray] = partition["docs"]
        assignments: list[np.ndarray] = partition["assignments"]
        doc_topic: np.ndarray = partition["doc_topic"]
        rng: np.random.Generator = partition.setdefault(
            "rng", np.random.default_rng(state.iteration + 1))

        topic_word = params["topic_word"].copy()
        topic_total = params["topic_total"].copy()
        delta_word = np.zeros_like(topic_word)
        delta_total = np.zeros_like(topic_total)

        log_likelihood = 0.0
        n_tokens = 0
        vocab_beta = self.vocab_size * BETA
        for d, doc in enumerate(documents):
            topics = assignments[d]
            for position, word in enumerate(doc):
                old = topics[position]
                # Remove the token's current assignment.
                doc_topic[d, old] -= 1
                topic_word[old, word] -= 1
                topic_total[old] -= 1
                delta_word[old, word] -= 1
                delta_total[old] -= 1
                # Collapsed Gibbs conditional.
                weights = ((doc_topic[d] + ALPHA)
                           * (topic_word[:, word] + BETA)
                           / (topic_total + vocab_beta))
                weights = np.maximum(weights, 1e-12)
                probabilities = weights / weights.sum()
                new = int(rng.choice(self.n_topics, p=probabilities))
                # Install the new assignment.
                topics[position] = new
                doc_topic[d, new] += 1
                topic_word[new, word] += 1
                topic_total[new] += 1
                delta_word[new, word] += 1
                delta_total[new] += 1
                log_likelihood += float(np.log(
                    probabilities[new] + 1e-12))
                n_tokens += 1

        # Negative mean log-likelihood: "lower is better", like losses.
        objective = -log_likelihood / max(1, n_tokens)
        deltas = {"topic_word": delta_word, "topic_total": delta_total}
        return deltas, objective
