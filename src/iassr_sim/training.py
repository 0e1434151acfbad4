"""Downlink training design and least-squares estimation of the effective
channels.

Edge clusters are trained by all three BSs inside one block whose rows are
split between the BSs (per-cluster block layout), so the three estimates
decouple exactly. Center clusters reuse one row block per BS: cross-cell
training is annihilated by construction and the cross-cell projections are
recycled to estimate the equivalent-noise covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrainingPlan",
    "dft_rows",
    "design_training",
    "ls_estimate_edge",
    "ls_estimate_center",
    "estimate_noise_cov",
]


def dft_rows(n, row_slice):
    """Rows of the n-point unitary DFT matrix."""
    rows = np.arange(n)[row_slice]
    cols = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(rows, cols) / n) / np.sqrt(n)


@dataclass(frozen=True)
class TrainingPlan:
    """Row assignments of the edge and center training blocks.

    edge_dims:   cluster id -> (M^1, M^2, M^3)
    center_dims: cluster id -> (home bs, M)
    bs_max:      per-BS maximum of the center dims (block sizes of the
                 center DFT matrix)

    The DFT pilot blocks are built once, with the plan, and handed out
    read-only.
    """

    edge_dims: dict
    center_dims: dict
    bs_max: tuple[int, int, int]
    _edge_blocks: dict = field(init=False, repr=False, compare=False)
    _center_blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edge = {}
        edge_len = self.edge_len
        for cid, dims in self.edge_dims.items():
            for bs in range(3):
                offset = int(sum(dims[:bs]))
                block = dft_rows(self.edge_len_for(cid), slice(offset, offset + dims[bs]))
                pad = edge_len - block.shape[1]
                if pad:
                    block = np.pad(block, ((0, 0), (0, pad)))
                edge[(cid, bs)] = _read_only(block)
        center = tuple(
            _read_only(dft_rows(self.center_len,
                                slice(sum(self.bs_max[:bs]), sum(self.bs_max[:bs + 1]))))
            for bs in range(3))
        object.__setattr__(self, "_edge_blocks", edge)
        object.__setattr__(self, "_center_blocks", center)

    @property
    def edge_len(self) -> int:
        """Length of the edge training phase (the longest per-cluster plan)."""
        return max((sum(d) for d in self.edge_dims.values()), default=0)

    def edge_len_for(self, cluster_id) -> int:
        return int(sum(self.edge_dims[cluster_id]))

    @property
    def center_len(self) -> int:
        return int(sum(self.bs_max))

    def edge_matrix(self, cluster_id, bs) -> np.ndarray:
        """M^bs x edge_len training matrix of one (edge cluster, BS) pair."""
        return self._edge_blocks[(cluster_id, bs)]

    def center_block(self, bs) -> np.ndarray:
        """Per-BS block F_c^bs of the center DFT matrix."""
        return self._center_blocks[bs]

    def center_matrix(self, cluster_id) -> np.ndarray:
        """M x center_len training matrix of one center cluster (the first
        M rows of its BS block)."""
        bs, m = self.center_dims[cluster_id]
        return self._center_blocks[bs][:m]


def _read_only(block):
    block.flags.writeable = False
    return block


def design_training(edge_dims, center_dims) -> TrainingPlan:
    """Build the training plan from the effective dimensions.

    edge_dims:   {cluster_id: (M^1, M^2, M^3)}
    center_dims: {cluster_id: (home_bs, M)}
    """
    bs_max = [0, 0, 0]
    for bs, m in center_dims.values():
        bs_max[bs] = max(bs_max[bs], int(m))
    return TrainingPlan(edge_dims={k: tuple(int(x) for x in v) for k, v in edge_dims.items()},
                        center_dims={k: (int(b), int(m)) for k, (b, m) in center_dims.items()},
                        bs_max=tuple(bs_max))


def ls_estimate_edge(y, plan: TrainingPlan, cluster_id, bs):
    """LS estimate of one per-BS effective edge channel from the received
    edge-phase block: Hbar_hat = Y * (Te^bs)^H."""
    t = plan.edge_matrix(cluster_id, bs)
    y = np.asarray(y)
    if y.shape[1] != t.shape[1]:
        raise ValueError(f"received block has {y.shape[1]} symbols, expected {t.shape[1]}")
    return y @ t.conj().T


def ls_estimate_center(y, plan: TrainingPlan, cluster_id):
    """LS estimate of a center effective channel from the center phase."""
    t = plan.center_matrix(cluster_id)
    y = np.asarray(y)
    if y.shape[1] != t.shape[1]:
        raise ValueError(f"received block has {y.shape[1]} symbols, expected {t.shape[1]}")
    return y @ t.conj().T


def estimate_noise_cov(y, plan: TrainingPlan, cluster_id, p_cent):
    """Equivalent-noise covariance estimate for one center cluster.

    The received block is projected on the other BSs' row blocks (their
    own-cell training is annihilated there), the projections are stacked
    into Upsilon, and K_hat = I + p_cent * (Upsilon Upsilon^H - 2 Tc I)
    with the bracket clipped to the PSD cone so K_hat stays at or above the
    thermal floor.
    """
    home, _ = plan.center_dims[cluster_id]
    y = np.asarray(y)
    projections = [y @ plan.center_block(bs).conj().T for bs in range(3) if bs != home]
    upsilon = np.concatenate(projections, axis=1)
    raw = upsilon @ upsilon.conj().T - 2.0 * plan.center_len * np.eye(y.shape[0])
    w, v = np.linalg.eigh(0.5 * (raw + raw.conj().T))
    clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
    k = np.eye(y.shape[0]) + p_cent * clipped
    return 0.5 * (k + k.conj().T)
