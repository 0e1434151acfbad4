"""Interference alignment on the reduced three-BS, three-user channel.

After prebeamforming, each edge cluster sees a 3x3 interference channel:
BS i carries the data of user i, and the two cross links at every user must
collapse into a subspace its decoder can null. Stream counts come from an
exhaustive feasibility search; ``realizable_allocation`` takes its best
proper triple. Before any solver runs, an allocation that is improper on its
effective dimensions is rejected. Precoders come from the classical
chained-eigenvector construction in the square symmetric case, from a linear
chain of null-space constraints with two receive antennas, and from
alternating leakage minimization otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlignmentError",
    "InfeasibleAllocation",
    "DofAllocation",
    "IaSolution",
    "dof_search",
    "realizable_allocation",
    "allocation_feasible",
    "ia_precoders",
    "ia_decoders",
    "effective_edge_channel",
]


class AlignmentError(RuntimeError):
    """An edge cluster's alignment cannot be built. ``reason`` is one of
    ``REASONS``; ``detail`` says more. Both are the exception's arguments,
    so ``type(exc)(*exc.args)`` rebuilds it."""

    REASONS = ("infeasible", "improper", "no convergence", "no complement",
               "degenerate link")

    def __init__(self, reason, detail=""):
        super().__init__(reason, detail)
        self.reason, self.detail = reason, detail

    def __str__(self):
        return f"{self.reason}: {self.detail}" if self.detail else self.reason


class InfeasibleAllocation(AlignmentError, ValueError):
    """Reason "infeasible": the stream triple fails the stream-count test, a
    bad argument and therefore a ValueError as well."""


@dataclass(frozen=True)
class DofAllocation:
    streams: tuple[int, int, int]

    @property
    def total(self) -> int:
        return int(sum(self.streams))


@dataclass
class IaSolution:
    precoders: list[np.ndarray]   # V_i, M_i x S_i, orthonormal columns
    decoders: list[np.ndarray]    # U_k, Nr x S_k, orthonormal columns
    leakage: float


def allocation_feasible(streams, dims, nr) -> bool:
    """Stream-count feasibility of a candidate triple, by the paper's count.

    The count takes each cross pair once, so it is only an upper bound on
    what can be aligned: it admits triples that are improper, which
    ``realizable_allocation`` skips and ``ia_precoders`` screens out before
    it solves (see ``_proper``)."""
    s = tuple(int(x) for x in streams)
    m = tuple(int(x) for x in dims)
    for i in range(3):
        if s[i] < 0 or s[i] > min(m[i], nr):
            return False
    lhs = sum(s[i] * (m[i] + nr - 2 * s[i]) for i in range(3))
    rhs = s[0] * s[1] + s[1] * s[2] + s[0] * s[2]
    if lhs < rhs:
        return False
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cap = min(m[i] + m[j], 2 * nr, max(m[i], nr), max(m[j], nr))
        if s[i] + s[j] > cap:
            return False
    return True


def dof_search(m1, m2, m3, nr) -> DofAllocation:
    """Exhaustively maximize the stream sum over feasible triples.

    Ties are resolved deterministically: BSs are ranked by descending
    effective dimension (original order breaking rank ties) and the
    lexicographically largest triple in that ranking wins.
    """
    return ranked_allocations(m1, m2, m3, nr)[0]


def realizable_allocation(m1, m2, m3, nr) -> DofAllocation:
    """The best allocation that alignment can realize: the first of
    ``ranked_allocations`` that is proper (see ``_proper``). Never empty, as
    (0, 0, 0) is always proper."""
    dims, nr = (int(m1), int(m2), int(m3)), int(nr)
    return next(a for a in _ranked(dims, nr) if _proper(a.streams, dims, nr))


def ranked_allocations(m1, m2, m3, nr) -> tuple[DofAllocation, ...]:
    """All feasible stream triples, best first (same order dof_search uses
    to pick its winner)."""
    return _ranked((int(m1), int(m2), int(m3)), int(nr))


@functools.lru_cache(maxsize=None)
def _ranked(dims, nr):
    order = sorted(range(3), key=lambda i: (-dims[i], i))
    found = []
    ranges = [range(min(d, nr), -1, -1) for d in dims]
    for s in itertools.product(*ranges):
        if allocation_feasible(s, dims, nr):
            found.append(((sum(s),) + tuple(s[i] for i in order), s))
    found.sort(key=lambda kv: kv[0], reverse=True)
    return tuple(DofAllocation(streams=s) for _, s in found)


# the ordered (receiver, transmitter) pairs, each carrying one equation set
_PAIRS = tuple((k, i) for k in range(3) for i in range(3) if i != k)


@functools.lru_cache(maxsize=None)
def _proper(streams, dims, nr, pairs=_PAIRS):
    """Properness (Yetis, Gou, Jafar & Kayran, IEEE TSP 2010), necessary for
    alignment (Bresler, Cartwright & Tse, IEEE T-IT 2014): on every subset of
    the equation sets U_k^H H_ki V_i = 0 of ``pairs``, the free variables of
    the precoders and decoders involved are at least its equations."""
    sets = [(k, i) for k, i in pairs if streams[k] and streams[i]]
    for size in range(1, len(sets) + 1):
        for subset in itertools.combinations(sets, size):
            free = (sum(streams[k] * (nr - streams[k]) for k in {k for k, _ in subset})
                    + sum(streams[i] * (dims[i] - streams[i]) for i in {i for _, i in subset}))
            if free < sum(streams[k] * streams[i] for k, i in subset):
                return False
    return True


def _orth(mat):
    q, _ = np.linalg.qr(mat)
    return q[:, : mat.shape[1]]


def _smallest_eigvecs(mat, k):
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return v[:, :k]


def _closed_form_square(ch, s):
    """Chained-eigenvector alignment for square 2s x 2s effective channels.

    The first precoder spans an invariant subspace of the loop matrix built
    from the six cross links; the other two follow by exact alignment at
    users 2 and 3.
    """
    inv = np.linalg.inv
    e_loop = (inv(ch[2][0]) @ ch[2][1] @ inv(ch[0][1]) @ ch[0][2]
              @ inv(ch[1][2]) @ ch[1][0])
    w, vecs = np.linalg.eig(e_loop)
    pick = np.lexsort((-w.real, -np.abs(w)))[:s]
    v1 = vecs[:, pick]
    v2 = inv(ch[2][1]) @ ch[2][0] @ v1
    v3 = inv(ch[1][2]) @ ch[1][0] @ v1
    return [_orth(v1), _orth(v2), _orth(v3)]


def _direct_basis(ch, i, k):
    """Top right singular vectors of the direct link of BS i."""
    _, _, vh = np.linalg.svd(ch[i][i])
    return vh.conj().T[:, :k]


def _cross_leakage(ch, precoders, decoders, streams):
    worst = 0.0
    for k in range(3):
        if streams[k] == 0:
            continue
        for i in range(3):
            if i == k or streams[i] == 0:
                continue
            worst = max(worst, float(np.linalg.norm(
                decoders[k].conj().T @ ch[k][i] @ precoders[i])))
    return worst


def ia_precoders(channels, allocation, tol=1e-9, max_iter=2000) -> IaSolution:
    """Solve for aligned precoders and nulling decoders.

    ``channels[k][i]`` is the effective channel to user k from BS i
    (Nr x M_i). Raises ``InfeasibleAllocation`` (a ValueError) for stream
    triples that fail the paper's count, and ``AlignmentError`` (a
    RuntimeError) for triples that are improper on these dimensions and when
    the iterative fallback cannot push the residual cross-link leakage below
    ``tol``.
    """
    ch = [[np.asarray(channels[k][i], dtype=complex) for i in range(3)] for k in range(3)]
    streams = tuple(int(x) for x in (allocation.streams if isinstance(allocation, DofAllocation) else allocation))
    dims = tuple(ch[0][i].shape[1] for i in range(3))
    nr = ch[0][0].shape[0]
    if not allocation_feasible(streams, dims, nr):
        raise InfeasibleAllocation("infeasible", f"streams {streams} on dims {dims}, Nr {nr}")

    active = [i for i in range(3) if streams[i] > 0]
    if not active:
        sol = IaSolution(precoders=[np.zeros((dims[i], 0)) for i in range(3)],
                         decoders=[np.zeros((nr, 0)) for i in range(3)],
                         leakage=0.0)
        return sol
    # a cross link that is exactly zero (unseen) carries no equations
    pairs = tuple((k, i) for k, i in _PAIRS if ch[k][i].any())
    if not _proper(streams, dims, nr, pairs):
        raise AlignmentError("improper", f"streams {streams} on dims {dims}, Nr {nr}")

    s = streams[active[0]]
    symmetric = all(streams[i] == s for i in active)
    square_ready = (len(active) == 3 and symmetric and nr == 2 * s
                    and all(dims[i] >= 2 * s for i in range(3)))

    start = None
    if square_ready:
        try:
            if all(dims[i] == 2 * s for i in range(3)):
                precoders = _closed_form_square(ch, s)
            else:
                # shrink each BS to the 2s directions that best serve its
                # own user, then run the square construction inside that
                # subspace
                proj = [_direct_basis(ch, i, 2 * s) for i in range(3)]
                small = [[ch[k][i] @ proj[i] for i in range(3)] for k in range(3)]
                precoders = [proj[i] @ v
                             for i, v in enumerate(_closed_form_square(small, s))]
            decoders = ia_decoders(ch, precoders, streams, tol=max(tol, 1e-9))
            leak = _cross_leakage(ch, precoders, decoders, streams)
            if leak <= max(tol, 1e-9):
                return IaSolution(precoders=precoders, decoders=decoders, leakage=leak)
            start = precoders
        except (np.linalg.LinAlgError, AlignmentError):
            start = None  # degenerate links break the chain; iterate instead
    elif nr == 2 and len(active) == 3:
        sol = _linear_chain(ch, streams, tol)
        if sol is not None:
            return sol
    if start is None:
        start = [_direct_basis(ch, i, streams[i]) if streams[i] else np.zeros((dims[i], 0))
                 for i in range(3)]

    return _leakage_minimization(ch, streams, start, tol, max_iter)


def _null_basis(rows, m):
    """Orthonormal basis of the vectors in C^m that every row annihilates;
    each row is scaled to unit norm, so the rank test is relative."""
    if not rows:
        return np.eye(m, dtype=complex)
    a = np.concatenate(rows)
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return vh[rank:].conj().T


def _linear_chain(ch, streams, tol):
    """Exact alignment with two receive antennas and three active BSs, or
    None when the conditions do not chain.

    In C^2 a one-stream user is aligned when its two interference vectors
    are parallel, so once one interferer's precoder is known the decoder is
    its orthogonal complement, and the condition on the other interferer is
    one linear null-space row. A user with S_k = 2 needs H_ki V_i = 0, two
    rows on each interferer. The chain starts from the precoders that are
    fixed outright (S_i = M_i, or as many null dimensions as streams) and
    adds rows until every precoder is fixed. Where it stalls with spare
    dimensions, the first such BS whose decoder is known takes the
    directions that best serve its own user: the decoder does not depend on
    that BS's precoder. The result must pass a leakage check relative to
    the cross links.
    """
    nr = 2
    dims = [ch[0][i].shape[1] for i in range(3)]
    rows = [[] for _ in range(3)]
    precoders = [None] * 3
    decoders = [np.eye(nr, dtype=complex) if streams[k] == nr else None for k in range(3)]

    def add_row(i, row, link):
        norm = np.linalg.norm(row)
        if norm > 1e-12 * np.linalg.norm(link):  # a zero link constrains nothing
            rows[i].append(row / norm)

    for k in range(3):
        if streams[k] == nr:
            for i in range(3):
                if i != k:
                    add_row(i, ch[k][i], ch[k][i])
    while any(v is None for v in precoders):
        bases = [None if precoders[i] is not None else _null_basis(rows[i], dims[i])
                 for i in range(3)]
        if any(b is not None and b.shape[1] < streams[i] for i, b in enumerate(bases)):
            return None
        fixed = [i for i, b in enumerate(bases) if b is not None and b.shape[1] == streams[i]]
        for i in fixed:
            precoders[i] = bases[i]
        if not fixed:
            spare = [i for i, b in enumerate(bases) if b is not None and decoders[i] is not None]
            if not spare:
                return None
            i = spare[0]
            _, _, vh = np.linalg.svd(decoders[i].conj().T @ ch[i][i] @ bases[i])
            precoders[i] = bases[i] @ vh[:streams[i]].conj().T
            fixed = [i]
        for i in fixed:
            for k in range(3):
                if k == i or decoders[k] is not None or streams[i] != 1:
                    continue
                g = ch[k][i] @ precoders[i][:, 0]
                if np.linalg.norm(g) <= 1e-12 * np.linalg.norm(ch[k][i]):
                    continue  # no direction to align with
                u = np.array([[-g[1].conjugate()], [g[0].conjugate()]])
                decoders[k] = u / np.linalg.norm(u)
                j = 3 - i - k
                if precoders[j] is None:
                    add_row(j, decoders[k].conj().T @ ch[k][j], ch[k][j])
    for k in range(3):
        if decoders[k] is None:  # no interferer gave this user a direction
            interf = np.concatenate([ch[k][i] @ precoders[i] for i in range(3) if i != k],
                                    axis=1)
            decoders[k] = np.linalg.svd(interf)[0][:, -1:]
    leak = _cross_leakage(ch, precoders, decoders, streams)
    scale = max(np.linalg.norm(ch[k][i]) for k, i in _PAIRS)
    if leak > tol * scale:
        return None
    return IaSolution(precoders=precoders, decoders=decoders, leakage=leak)


def _leakage_minimization(ch, streams, precoders, tol, max_iter):
    """Alternate decoder and precoder updates along minor eigenvectors of
    the leakage covariances until the cross links vanish."""
    nr = ch[0][0].shape[0]
    precoders = [np.array(v) for v in precoders]
    decoders = [np.zeros((nr, 0))] * 3
    leak = np.inf
    for _ in range(max_iter):
        decoders = []
        for k in range(3):
            if streams[k] == 0:
                decoders.append(np.zeros((nr, 0)))
                continue
            q = np.zeros((nr, nr), dtype=complex)
            for i in range(3):
                if i == k or streams[i] == 0:
                    continue
                g = ch[k][i] @ precoders[i]
                q += g @ g.conj().T
            decoders.append(_smallest_eigvecs(q, streams[k]))
        new_pre = []
        for i in range(3):
            if streams[i] == 0:
                new_pre.append(precoders[i])
                continue
            m = ch[0][i].shape[1]
            q = np.zeros((m, m), dtype=complex)
            for k in range(3):
                if k == i or streams[k] == 0:
                    continue
                g = ch[k][i].conj().T @ decoders[k]
                q += g @ g.conj().T
            new_pre.append(_smallest_eigvecs(q, streams[i]))
        precoders = new_pre
        leak = _cross_leakage(ch, precoders, decoders, streams)
        if leak <= tol:
            return IaSolution(precoders=precoders, decoders=decoders, leakage=leak)
    raise AlignmentError("no convergence", f"leakage {leak:.2e} after {max_iter} iterations")


def ia_decoders(channels, precoders, streams, tol=1e-8):
    """Nulling decoders: U_k spans the orthogonal complement of the aligned
    interference arriving at user k.

    Raises ``AlignmentError`` with reason "no complement" when the
    interference leaves no S_k-dimensional complement.
    """
    ch = channels
    nr = np.asarray(ch[0][0]).shape[0]
    decoders = []
    for k in range(3):
        sk = int(streams[k])
        if sk == 0:
            decoders.append(np.zeros((nr, 0)))
            continue
        blocks = [np.asarray(ch[k][i]) @ precoders[i]
                  for i in range(3) if i != k and precoders[i].shape[1] > 0]
        if not blocks:
            decoders.append(np.eye(nr, dtype=complex)[:, :sk])
            continue
        interf = np.concatenate(blocks, axis=1)
        scale = np.linalg.norm(interf)
        if scale <= 1e-300:
            decoders.append(np.eye(nr, dtype=complex)[:, :sk])
            continue
        u, sv, _ = np.linalg.svd(interf, full_matrices=True)
        rank = int(np.sum(sv > max(tol * sv[0], 1e-300)))
        if nr - rank < sk:
            raise AlignmentError("no complement", f"alignment failed at user {k}")
        decoders.append(u[:, nr - sk:])
    return decoders


def effective_edge_channel(decoder, direct, precoder, tol=1e-6):
    """S x S interference-free link U^H Hbar V; degenerate links raise."""
    eff = decoder.conj().T @ direct @ precoder
    if eff.size:
        sv = np.linalg.svd(eff, compute_uv=False)
        if sv[-1] <= tol:
            # kept a plain RuntimeError (not reason "degenerate link"):
            # perfbench/run.py screens out jobs by this type name and message
            raise RuntimeError("degenerate direct link")
    return eff
