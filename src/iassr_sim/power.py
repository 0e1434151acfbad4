"""Power allocation: per-link capacities, water-filling over the edge
streams, and the golden-section search that splits the budget between the
single center power level and the edge streams.

The center power couples into the center noise covariance, which is why an
outer one-dimensional search is needed at all: for a fixed center level the
edge side reduces to classical water-filling. Water-filling is solved in
closed form: sort 1/lambda, and the water level with the k strongest
streams active is (budget + their 1/lambda summed) / k. The search does
the power-free work once per problem (the sorted edge spectrum and its
running sum, the flattened center terms) and scores each candidate level
as a plain float; only the chosen level is expanded into a full
``PowerAllocation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CenterLink",
    "EdgeLink",
    "AllocationProblem",
    "PowerAllocation",
    "capacity_edge",
    "capacity_center",
    "waterfill",
    "allocate",
    "evaluate_candidate",
]


@dataclass(frozen=True)
class CenterLink:
    """One soft-reuse center link after zero-forcing.

    ``interference_eigs`` are the eigenvalues of the summed cross-cell
    leakage covariance restricted to the served rows, so the equivalent
    noise eigenvalues at center power p are noise_variance + p * sigma_s.
    """

    key: str
    gain: float
    interference_eigs: np.ndarray
    noise_variance: float
    n_streams: int


@dataclass(frozen=True)
class EdgeLink:
    """One aligned edge link: the eigenvalues of the S x S effective
    channel Gram matrix."""

    key: tuple
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class AllocationProblem:
    center_links: list
    edge_links: list


@dataclass
class PowerAllocation:
    p_cent: float
    edge_powers: dict            # EdgeLink.key -> per-stream power vector
    total_budget: float
    sum_capacity: float = 0.0
    center_capacities: dict = field(default_factory=dict)
    edge_capacities: dict = field(default_factory=dict)

    @property
    def mean_edge_power(self) -> float:
        if not self.edge_powers:
            return 0.0
        vals = np.concatenate([np.atleast_1d(v) for v in self.edge_powers.values()])
        return float(vals.mean()) if vals.size else 0.0

    @property
    def split_factor(self) -> float:
        """Center stream power over the average edge stream power."""
        m = self.mean_edge_power
        if m > 0:
            return self.p_cent / m
        return np.inf if self.p_cent > 0 else 0.0


def capacity_edge(eigenvalues, powers):
    """Sum of log2(1 + lambda_s * p_s) over the streams of one edge link."""
    lam = np.asarray(eigenvalues, dtype=float)
    p = np.asarray(powers, dtype=float)
    return float(np.sum(np.log2(1.0 + lam * p)))


def capacity_center(noise_eigenvalues, gain, powers):
    """Sum of log2(1 + zeta^2 * p_s / k_s) for one center link."""
    k = np.asarray(noise_eigenvalues, dtype=float)
    p = np.asarray(powers, dtype=float)
    return float(np.sum(np.log2(1.0 + (gain ** 2) * p / k)))


def _sorted_inverse(lam):
    """(order, 1/lambda in ascending order, its running sum)."""
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be positive")
    inv = 1.0 / lam
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    return order, inv_sorted, np.cumsum(inv_sorted)


def _water_level(inv_sorted, cumsum, counts, budget):
    """Closed-form water level over 1/lambda sorted ascending, with its
    running sum and ``counts`` = 1, 2, ... (Palomar & Fonollosa, IEEE TSP
    2005): with the k strongest streams active the level is (budget + sum
    of their 1/lambda) / k, and the active set is the prefix on which that
    level clears 1/lambda. Returns (level, k); budget must be positive."""
    levels = (budget + cumsum) / counts
    k = int(np.count_nonzero(levels > inv_sorted))
    return levels[k - 1], k


def waterfill(eigenvalues, budget):
    """KKT water-filling p_s = max(0, 1/mu - 1/lambda_s), budget met with
    equality. Returns (powers, mu)."""
    lam = np.asarray(eigenvalues, dtype=float)
    order, inv_sorted, cumsum = _sorted_inverse(lam)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0 or lam.size == 0:
        return np.zeros_like(lam), np.inf
    level, k = _water_level(inv_sorted, cumsum, np.arange(1, lam.size + 1), budget)
    p = np.zeros_like(lam)
    p[order[:k]] = level - inv_sorted[:k]
    return p, 1.0 / level


def _edge_eigenvalues(problem: AllocationProblem):
    """Every edge stream's eigenvalue, link after link."""
    return (np.concatenate([np.asarray(l.eigenvalues, dtype=float)
                            for l in problem.edge_links])
            if problem.edge_links else np.zeros(0))


def _center_capacity_at(link: CenterLink, p_cent: float) -> float:
    k = link.noise_variance + p_cent * np.asarray(link.interference_eigs, dtype=float)
    return capacity_center(k, link.gain, np.full(link.n_streams, p_cent))


def evaluate_candidate(problem: AllocationProblem, total_power, n_center_streams, p_cent,
                       flat_edge=False):
    """Sum capacity and per-link details for one candidate center level.

    The edge streams water-fill what the center streams leave of the
    budget or, with ``flat_edge``, each take ``p_cent`` as well (the
    equal-power policy)."""
    lam_all = _edge_eigenvalues(problem)
    if flat_edge:
        powers = np.full(lam_all.size, p_cent)
    elif lam_all.size:
        powers, _ = waterfill(lam_all, max(total_power - n_center_streams * p_cent, 0.0))
    else:
        powers = np.zeros(0)
    edge_powers, edge_caps = {}, {}
    pos = 0
    total = 0.0
    for link in problem.edge_links:
        n = np.asarray(link.eigenvalues).size
        p = powers[pos:pos + n]
        pos += n
        edge_powers[link.key] = p
        c = capacity_edge(link.eigenvalues, p)
        edge_caps[link.key] = c
        total += c
    center_caps = {}
    for link in problem.center_links:
        c = _center_capacity_at(link, p_cent)
        center_caps[link.key] = c
        total += c
    alloc = PowerAllocation(p_cent=p_cent, edge_powers=edge_powers,
                            total_budget=total_power, sum_capacity=total,
                            center_capacities=center_caps,
                            edge_capacities=edge_caps)
    return alloc


def _sum_capacity_fn(problem: AllocationProblem, total_power, n_center):
    """The sum capacity at a center level as a plain float function.

    The power-free work is done here once: the edge spectrum sorted by
    1/lambda with its running sum, the center gains, leakage eigenvalues
    and noise flattened to one entry per stream, and where each stream
    sits in a (link, stream) table. A call then costs a few array
    operations. It adds the per-stream capacities link by link and then
    the links in turn, as ``evaluate_candidate`` does, so the two agree
    bit for bit on links of fewer than 8 streams (numpy sums longer arrays
    pairwise).
    """
    lam = _edge_eigenvalues(problem)
    order, inv_sorted, cumsum = _sorted_inverse(lam)
    lam_sorted = lam[order]
    counts = np.arange(1, lam.size + 1)
    sizes = [np.asarray(l.eigenvalues).size for l in problem.edge_links]
    gain2, sigma, noise = [], [], []
    for link in problem.center_links:
        eigs = np.asarray(link.interference_eigs, dtype=float)
        n = np.broadcast_shapes(eigs.shape, (link.n_streams,))
        gain2.append(np.full(n, link.gain ** 2))
        sigma.append(np.broadcast_to(eigs, n))
        noise.append(np.full(n, float(link.noise_variance)))
        sizes.append(n[0])
    gain2, sigma, noise = (np.concatenate(v) if v else np.zeros(0)
                           for v in (gain2, sigma, noise))
    # flat position of every stream in a zero-padded (link, stream) table,
    # edge links first
    shape = (len(sizes), max(sizes))
    cells = np.concatenate([row * shape[1] + np.arange(n) for row, n in enumerate(sizes)])
    edge_cells, center_cells = cells[:lam.size][order], cells[lam.size:]

    def sum_capacity(p_cent):
        table = np.zeros(shape)
        budget = max(total_power - n_center * p_cent, 0.0)
        if budget > 0 and lam.size:
            level, k = _water_level(inv_sorted, cumsum, counts, budget)
            table.flat[edge_cells[:k]] = np.log2(1.0 + lam_sorted[:k] * (level - inv_sorted[:k]))
        table.flat[center_cells] = np.log2(1.0 + gain2 * p_cent / (noise + p_cent * sigma))
        return float(np.cumsum(np.cumsum(table, axis=1)[:, -1])[-1])

    return sum_capacity


def allocate(problem: AllocationProblem, total_power, eps) -> PowerAllocation:
    """Golden-section search over the common center power level.

    Interior points sit at the 0.382/0.618 splits of the bracket; each
    candidate re-waterfills the edge streams on the remaining budget. The
    search scores candidates as plain floats and builds the full
    allocation only for the best level visited (a guard against shallow or
    non-strict unimodality).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if total_power < 0:
        raise ValueError("total_power must be nonnegative")
    n_center = sum(l.n_streams for l in problem.center_links)
    if total_power == 0:
        return evaluate_candidate(problem, 0.0, n_center, 0.0)
    if n_center == 0:
        return evaluate_candidate(problem, total_power, 0, 0.0)

    score = _sum_capacity_fn(problem, total_power, n_center)
    lo, hi = 0.0, total_power / n_center
    best_p, best = 0.0, score(0.0)
    while hi - lo >= eps:
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        c1, c2 = score(m1), score(m2)
        for p, c in ((m1, c1), (m2, c2)):
            if c > best:
                best_p, best = p, c
        if c1 > c2:
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    if score(mid) > best:
        best_p = mid
    return evaluate_candidate(problem, total_power, n_center, best_p)
