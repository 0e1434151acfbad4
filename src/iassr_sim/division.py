"""Overhead accounting and cluster division between the cooperative edge
set and the per-cell center sets.

Training and feedback are charged against the coherence block: a cluster is
worth serving cooperatively only when the aligned streams survive the
triple feedback cost, which is what the effective-DoF criterion weighs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "overhead_factor",
    "divide_clusters",
]


def overhead_factor(kind, dims, k_users, nr, q_bits, f_rate, coherence_t,
                    train_len=None):
    """Fraction of the coherence block left for data, floored at zero.

    kind="edge": dims is the per-BS dimension triple, the cluster feeds back
    all three effective channels and trains for sum(dims) symbols (unless
    ``train_len`` overrides the phase length).
    kind="center": dims is the single effective dimension and ``train_len``
    is the center-phase length shared across the cell.
    """
    if coherence_t < 1:
        raise ValueError("coherence_t must be at least 1")
    if f_rate <= 0:
        raise ValueError("feedback rate must be positive")
    if kind == "edge":
        dims = tuple(int(d) for d in np.atleast_1d(dims))
        t_train = sum(dims) if train_len is None else train_len
        feedback = sum(dims) * k_users * nr * q_bits
    elif kind == "center":
        m = int(np.atleast_1d(dims)[0])
        if train_len is None:
            raise ValueError("center overhead needs the shared training length")
        t_train = train_len
        feedback = m * k_users * nr * q_bits
    else:
        raise ValueError(f"unknown kind {kind!r}")
    alpha = 1.0 - t_train / coherence_t - feedback / (f_rate * coherence_t)
    return max(alpha, 0.0)


def divide_clusters(candidates, criterion="dof"):
    """Assign each cluster to the edge set or one center set.

    ``candidates`` maps cluster id to a dict with:
      dof criterion:      "edge_streams", "edge_alpha", "center_dims" (per
                          BS), "center_alphas" (per BS)
      capacity criterion: "edge_capacity", "center_capacities" (per BS)
    Returns {cluster_id: home BS index, or None for the edge set}; center
    ties go to the lowest BS index.
    """
    out = {}
    for cid, cand in candidates.items():
        if criterion == "dof":
            edge_score = cand["edge_alpha"] * sum(cand["edge_streams"])
            center_scores = [a * m for a, m in zip(cand["center_alphas"], cand["center_dims"])]
        elif criterion == "capacity":
            edge_score = cand["edge_capacity"]
            center_scores = list(cand["center_capacities"])
        else:
            raise ValueError(f"unknown criterion {criterion!r}")
        best_center = int(np.argmax(center_scores))
        out[cid] = None if edge_score > center_scores[best_center] else best_center
    return out
