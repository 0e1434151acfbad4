"""One-ring spatial correlation model: correlation matrices, their eigen and
DFT structure, and per-block channel realizations.

All angles are radians. BS arrays are uniform linear arrays with element
spacing ``spacing_ratio`` wavelengths; azimuths are measured from array
broadside.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBasis",
    "correlation_matrix",
    "eigen_basis",
    "eigen_bases",
    "dft_index_set",
    "analytic_rank",
    "exponential_user_correlation",
    "sample_channel",
]

# 15-point Gauss-Kronrod pair (nodes on [-1, 1]); the embedded 7-point Gauss
# rule supplies the error estimate for the adaptive panels below.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_PICK = np.arange(1, 15, 2)


@dataclass(frozen=True)
class EigenBasis:
    """Dominant eigenpairs of a BS-side correlation matrix.

    ``vectors`` is Nt x r with orthonormal columns, ``values`` the matching
    eigenvalues in descending order.
    """

    vectors: np.ndarray
    values: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.values.size)


# Fewest levels of uniform panel splitting before the quadrature gives up.
# Real pairs stop at levels 2 to 5; level 11 already has 2048 panels.
_MIN_LEVELS = 12
# Most panels integrated in one array expression, which bounds a level's
# temporaries to a few (8, Nt, 15) complex arrays.
_PANEL_BLOCK = 8
# Rounding allowance of the one-lag screen, per unit of panel half-width.
# The screen and the full evaluation sum the same 15 (or 7) weighted
# unit-modulus terms, weights adding up to 2, in possibly different orders,
# so their error estimates differ by less than about 2e-14 half-widths.
_SCREEN_SLACK = 1e-13
# The helper thread of ``eigen_bases`` runs only when it has a CPU of its own
# and the BLAS is single-threaded: a multi-threaded BLAS already spreads each
# ``eigh`` over the CPUs, and two threads' calls then contend (measured on a
# 2-CPU x86_64 VM, default scenario: ``build_geometry`` 75-85 ms serial,
# 118-132 ms with the helper).
_TWO_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1) > 1


def _openblas_thread_getter():
    """numpy's bundled OpenBLAS thread-count query, or None without one.

    The query's symbol carries the library name numpy's build records as a
    prefix, and the suffix ``64_`` when that build uses 64-bit integers.
    """
    try:
        from numpy._core import _multiarray_umath
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        symbol = blas["name"].replace("-", "_") + "_get_num_threads"
        if "USE64BITINT" in blas.get("openblas configuration", ""):
            symbol += "64_"
        getter = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except (ImportError, OSError, AttributeError, KeyError, TypeError):
        return None
    getter.restype = ctypes.c_int
    getter.argtypes = ()
    return getter


_OPENBLAS_THREADS = _openblas_thread_getter()


def _blas_threads():
    """Threads numpy's BLAS runs on, or None when that cannot be told.

    Asks the bundled OpenBLAS when it can; otherwise reads the thread
    variables OpenBLAS itself reads when it loads.
    """
    if _OPENBLAS_THREADS is not None:
        return _OPENBLAS_THREADS()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


# The private helpers below do the work and call only each other; the public
# names merely delegate to them. So the helper thread of ``eigen_bases``
# never enters a public name, which a profiler may have wrapped with state
# that is not thread-safe.


def _level_sum(freqs, edges, bound):
    """Sum over the panels between consecutive ``edges`` of the integral of
    exp(-1j * f * sin(a)) for every f in ``freqs``, or None when some panel's
    Kronrod-Gauss error (the worst f) exceeds ``bound``.

    The fastest lag alone is screened first, which rejects most failing
    levels at a fraction of the cost; a level that passes the screen is
    decided by the full test. Panels are evaluated in blocks and summed in
    order, starting from 0.
    """
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = np.sin(mid[:, None] + half[:, None] * _GK_NODES)
    fast = half[:, None] * np.exp(-1j * (freqs[-1] * s))
    err = np.abs(fast @ _GK_WEIGHTS - fast[:, _G7_PICK] @ _G7_WEIGHTS)
    if np.any(err > bound + _SCREEN_SLACK * half):
        return None
    total = 0
    for k in range(0, half.size, _PANEL_BLOCK):
        ph = half[k:k + _PANEL_BLOCK, None, None] * np.exp(
            -1j * (freqs[:, None] * s[k:k + _PANEL_BLOCK, None, :]))
        full = ph @ _GK_WEIGHTS
        if not np.abs(full - ph[:, :, _G7_PICK] @ _G7_WEIGHTS).max() <= bound:
            return None
        for row in full:
            total = total + row
    return total


def _one_ring_row(theta, delta, nt, spacing_ratio, tol):
    """First row of the one-ring correlation matrix.

    Entry k is the normalized integral of exp(-2*pi*1j*k*spacing*sin(a))
    over the azimuth interval [theta - delta, theta + delta], evaluated by
    15-point Gauss-Kronrod panels: the interval is halved uniformly until
    every panel's error estimate (the worst lag) is within its share of
    the tolerance.
    """
    if delta <= 0:
        raise ValueError("degenerate spread")
    freqs = 2.0 * np.pi * spacing_ratio * np.arange(nt)
    edges = np.array([theta - delta, theta + delta])
    # absolute tolerance: the normalized entries have modulus <= 1
    budget = tol * 2.0 * delta
    # Give up at the level whose panels turn the fastest lag through at most
    # a quarter radian (the lag's phase moves by at most 2 * delta * f), or
    # at _MIN_LEVELS, whichever is later: a 15-point rule is then exact to
    # rounding, so a tolerance still missed is out of reach.
    levels = max(_MIN_LEVELS, math.ceil(math.log2(max(8.0 * freqs[-1] * delta, 1.0))) + 1)
    for _ in range(levels):
        total = _level_sum(freqs, edges, budget / (edges.size - 1))
        if total is not None:
            return total / (2.0 * delta)
        # split every panel; the integrand is smooth so this converges fast
        split = np.empty(2 * edges.size - 1)
        split[0::2] = edges
        split[1::2] = 0.5 * (edges[:-1] + edges[1:])
        edges = split
    raise RuntimeError("one-ring quadrature did not reach tolerance")


def _correlation_matrix(theta, delta, nt, spacing_ratio, tol):
    row = _one_ring_row(theta, delta, nt, spacing_ratio, tol)
    # Hermitian Toeplitz: entry (i, j) is row[i - j] on and below the
    # diagonal and conj(row[j - i]) above it
    lag = np.subtract.outer(np.arange(nt), np.arange(nt))
    r = np.where(lag >= 0, row[np.abs(lag)], row.conj()[np.abs(lag)])
    return 0.5 * (r + r.conj().T)


def _eigen_basis(r_matrix, eigen_threshold):
    asym = np.max(np.abs(r_matrix - r_matrix.conj().T))
    if asym > 1e-10:
        raise ValueError(f"correlation matrix is not Hermitian (asymmetry {asym:.2e})")
    w, v = np.linalg.eigh(r_matrix)
    w = w[::-1]
    v = v[:, ::-1]
    keep = w >= eigen_threshold * w[0]
    return EigenBasis(vectors=v[:, keep], values=w[keep])


def correlation_matrix(theta, delta, nt, spacing_ratio, tol=1e-10):
    """Nt x Nt one-ring correlation matrix (Hermitian, PSD, Toeplitz, unit
    diagonal): entry (p, q) is the ring average of the steering-phase lag
    p - q."""
    return _correlation_matrix(theta, delta, nt, spacing_ratio, tol)


def eigen_basis(r_matrix, eigen_threshold):
    """Eigenpairs of a correlation matrix above ``eigen_threshold`` relative
    to the largest eigenvalue, descending."""
    return _eigen_basis(r_matrix, eigen_threshold)


def eigen_bases(angles, nt, spacing_ratio, eigen_threshold):
    """``eigen_basis(correlation_matrix(theta, delta, ...))`` for every
    (theta, delta) in ``angles``, in order.

    With two CPUs and a single-threaded (or unknown) BLAS the calling thread
    takes the even positions and a helper thread the odd ones; the two
    overlap because LAPACK and numpy's array loops release the GIL. Each
    matrix still gets its own quadrature and one LAPACK call, so the split
    changes no bit of the result. A failing pair
    raises its own exception, the first in order, as a serial loop would.
    """
    out = [None] * len(angles)
    failed = {}

    def drain(picks):
        for i in picks:
            theta, delta = angles[i]
            try:
                out[i] = _eigen_basis(
                    _correlation_matrix(theta, delta, nt, spacing_ratio, 1e-10),
                    eigen_threshold)
            except Exception as exc:  # re-raised by the calling thread below
                failed[i] = exc
                return

    if _TWO_CPUS and len(angles) > 1 and _blas_threads() in (1, None):
        helper = threading.Thread(target=drain, args=(range(1, len(angles), 2),))
        helper.start()
        try:
            drain(range(0, len(angles), 2))
        finally:
            helper.join()
    else:
        drain(range(len(angles)))
    if failed:
        raise failed[min(failed)]
    return out


def dft_index_set(theta, delta, nt, spacing_ratio):
    """Sorted DFT column indices whose spatial frequencies fall inside the
    azimuth interval of the cluster.

    Indices n satisfy n in [Nt*s*sin(theta-delta)+Nt/2,
    Nt*s*sin(theta+delta)+Nt/2] (endpoints ordered, both inclusive) and are
    clamped to [0, Nt).
    """
    a = nt * spacing_ratio * np.sin(theta - delta) + nt / 2.0
    b = nt * spacing_ratio * np.sin(theta + delta) + nt / 2.0
    lo, hi = (a, b) if a <= b else (b, a)
    if lo < -1e-9 or hi > nt - 1 + 1e-9:
        warnings.warn("DFT index interval clipped to [0, Nt)", stacklevel=2)
    n0 = max(int(np.ceil(lo - 1e-9)), 0)
    n1 = min(int(np.floor(hi + 1e-9)), nt - 1)
    return tuple(range(n0, n1 + 1)) if n1 >= n0 else ()


def analytic_rank(theta, delta, nt, spacing_ratio):
    """Closed-form effective rank 2*Nt*s*|cos(theta)|*sin(delta)."""
    return 2.0 * nt * spacing_ratio * abs(np.cos(theta)) * np.sin(delta)


def exponential_user_correlation(rho, nr):
    """Exponential correlation matrix rho^|p-q| for the user array."""
    idx = np.arange(nr)
    return rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)


def _matrix_sqrt(mat):
    w, v = np.linalg.eigh(mat)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError("matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def sample_channel(basis, beta, phi, nr, rng):
    """Draw one Nr x Nt channel through the Karhunen-Loeve representation.

    H^H = sqrt(beta) * E * Lambda^(1/2) * W * Phi^(1/2), W an r x Nr matrix
    of i.i.d. unit complex Gaussians, so the BS-side covariance of each
    receive antenna's channel is the (truncated) correlation matrix and the
    channel rides the beams of the cluster's own angular support. ``rng`` is
    a seeded Generator (or an int seed); identical seeds reproduce the
    matrix bit for bit. ``phi`` is the Nr x Nr user-side correlation, or
    None for uncorrelated receive antennas.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    r = basis.rank
    w = (rng.standard_normal((r, nr)) + 1j * rng.standard_normal((r, nr))) / np.sqrt(2.0)
    if phi is not None:
        w = w @ _matrix_sqrt(np.asarray(phi, dtype=complex))
    h_h = np.sqrt(beta) * (basis.vectors * np.sqrt(basis.values)) @ w
    return h_h.conj().T
