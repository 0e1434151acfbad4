"""Inner precoding for center clusters: zero-forcing over the effective
channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ZfPrecoder", "zf_inner"]


@dataclass(frozen=True)
class ZfPrecoder:
    matrix: np.ndarray  # M x S
    gain: float         # normalization so that Hbar @ matrix = gain * I


def zf_inner(hbar, cond_limit=1e12) -> ZfPrecoder:
    """Zero-forcing inner precoder V = zeta * Hbar^H (Hbar Hbar^H)^-1.

    zeta = sqrt(S / tr(Z Z^H)) constrains the precoder power gain, so the
    equalized link becomes zeta * I_S.
    """
    hbar = np.asarray(hbar, dtype=complex)
    s, m = hbar.shape
    if m < s:
        raise ValueError("ZF needs at least as many beams as rows")
    gram = hbar @ hbar.conj().T
    sv = np.linalg.svd(hbar, compute_uv=False)
    if sv[0] <= 0 or sv[0] / max(sv[-1], 1e-300) > cond_limit:
        raise np.linalg.LinAlgError("ZF singular")
    z = hbar.conj().T @ np.linalg.inv(gram)
    zeta = float(np.sqrt(s / np.trace(z @ z.conj().T).real))
    return ZfPrecoder(matrix=zeta * z, gain=zeta)
