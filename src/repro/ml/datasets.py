"""Synthetic dataset generators.

Stand-ins for the paper's datasets (Netflix ratings, PubMed/NYTimes
bags-of-words, Bösen's synthetic classification/regression script —
Table I), shaped so each workload's access pattern and objective
behave like the real thing at example scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

#: Standard deviation of the score noise in :func:`make_classification`.
CLASSIFICATION_NOISE = 0.1
#: Standard deviation of the target noise in :func:`make_regression`.
REGRESSION_NOISE = 0.05


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def make_classification(n_samples: int, n_features: int, n_classes: int,
                        seed: int = 0) -> \
        tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linearly separable-ish multiclass data (the MLR workload).

    Returns ``(X, y, true_W)``; labels are argmax of a noisy linear
    score, like Bösen's synthetic generator.
    """
    if min(n_samples, n_features, n_classes) < 1:
        raise WorkloadError("classification dims must be positive")
    rng = _rng(seed)
    true_w = rng.normal(0.0, 1.0, size=(n_features, n_classes))
    features = rng.normal(0.0, 1.0, size=(n_samples, n_features))
    scores = features @ true_w + CLASSIFICATION_NOISE * rng.normal(
        size=(n_samples, n_classes))
    labels = np.argmax(scores, axis=1)
    return features, labels, true_w


def make_regression(n_samples: int, n_features: int, sparsity: float = 0.9,
                    seed: int = 0) -> \
        tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse linear regression data (the Lasso workload).

    ``sparsity`` is the fraction of zero coefficients in the true model.
    """
    if not 0.0 <= sparsity < 1.0:
        raise WorkloadError(f"sparsity {sparsity} not in [0, 1)")
    rng = _rng(seed)
    true_w = rng.normal(0.0, 1.0, size=n_features)
    mask = rng.random(n_features) < sparsity
    true_w[mask] = 0.0
    features = rng.normal(0.0, 1.0, size=(n_samples, n_features))
    targets = features @ true_w + REGRESSION_NOISE * rng.normal(
        size=n_samples)
    return features, targets, true_w


def make_ratings(n_users: int, n_items: int, rank: int = 8,
                 density: float = 0.05, seed: int = 0) -> \
        tuple[np.ndarray, np.ndarray]:
    """A sparse non-negative ratings matrix (the NMF workload).

    Returns ``(rows, data)`` where ``rows`` is an ``(nnz, 2)`` int array
    of (user, item) indices and ``data`` the observed ratings, generated
    from a random non-negative low-rank factorization (Netflix-like).
    """
    if not 0.0 < density <= 1.0:
        raise WorkloadError(f"density {density} not in (0, 1]")
    rng = _rng(seed)
    users = rng.gamma(2.0, 0.5, size=(n_users, rank))
    items = rng.gamma(2.0, 0.5, size=(n_items, rank))
    nnz = max(1, int(n_users * n_items * density))
    row_index = rng.integers(0, n_users, size=nnz)
    col_index = rng.integers(0, n_items, size=nnz)
    values = np.einsum("ij,ij->i", users[row_index], items[col_index])
    values += 0.05 * rng.normal(size=nnz)
    values = np.clip(values, 0.05, None)
    coords = np.stack([row_index, col_index], axis=1)
    return coords, values


def make_documents(n_docs: int, vocab_size: int, n_topics: int = 10,
                   doc_length: int = 50, seed: int = 0) -> list[np.ndarray]:
    """LDA-generated corpora (the topic-modeling workload).

    Each document is an int array of word ids drawn from a mixture of
    ``n_topics`` latent topics (PubMed/NYTimes-like bag-of-words).
    """
    if min(n_docs, vocab_size, n_topics, doc_length) < 1:
        raise WorkloadError("document dims must be positive")
    rng = _rng(seed)
    topic_word = rng.dirichlet(np.full(vocab_size, 0.1), size=n_topics)
    documents = []
    for _ in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, 0.3))
        topics = rng.choice(n_topics, size=doc_length, p=theta)
        words = np.array([rng.choice(vocab_size, p=topic_word[t])
                          for t in topics], dtype=np.int64)
        documents.append(words)
    return documents


def partition_rows(n_rows: int, n_partitions: int) -> list[np.ndarray]:
    """Even row split used to shard input data across workers."""
    if n_partitions < 1:
        raise WorkloadError(f"need >= 1 partition, got {n_partitions}")
    return [np.asarray(part, dtype=np.int64)
            for part in np.array_split(np.arange(n_rows), n_partitions)]
