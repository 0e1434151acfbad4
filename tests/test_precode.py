import numpy as np
import pytest

from iassr_sim.harness import (build_geometry, build_plan, draw_channels,
                               solve_links, _stacked)
from iassr_sim.precode import zf_inner
from iassr_sim.scenario import default_scenario


class TestZfInner:
    def test_identity(self):
        zf = zf_inner(np.eye(2))
        assert np.allclose(zf.matrix, np.eye(2))
        assert zf.gain == pytest.approx(1.0)

    def test_diagonal_reference(self):
        zf = zf_inner(np.diag([2.0, 1.0]).astype(complex))
        zeta = np.sqrt(2.0 / 1.25)
        assert zf.gain == pytest.approx(zeta, rel=1e-12)
        assert zf.gain == pytest.approx(1.2649, abs=1e-4)
        assert np.allclose(zf.matrix, zeta * np.diag([0.5, 1.0]))

    def test_defining_property(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        zf = zf_inner(h)
        assert np.linalg.norm(h @ zf.matrix - zf.gain * np.eye(3)) <= 1e-9 * zf.gain

    def test_singular_rejected(self):
        h = np.ones((2, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            zf_inner(h)

    def test_wide_requirement(self):
        with pytest.raises(ValueError):
            zf_inner(np.ones((3, 2)))


def test_center_link_receive_model():
    """End-to-end substitution: after both stages the center link reduces to
    gain * data plus the equivalent noise."""
    config, clusters = default_scenario()
    geometry = build_geometry(config, clusters)
    plan = build_plan(geometry, "iassr")
    channels = draw_channels(geometry, 99, 0)
    cid = sorted(plan.center_ids())[0]
    ci = geometry.idx(cid)
    home = plan.home_bs(cid)
    rows = np.array(plan.center_rows[cid])
    h = _stacked(geometry, channels, ci, home)
    hbar = (h @ plan.prebeams[(cid, home)].matrix)[rows]
    zf = zf_inner(hbar)
    rng = np.random.default_rng(0)
    d = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    received = h[rows] @ (plan.prebeams[(cid, home)].matrix @ zf.matrix) @ d
    assert np.linalg.norm(received - zf.gain * d) <= 1e-9 * np.linalg.norm(zf.gain * d)


def test_center_interference_spectrum():
    """Each center link's interference spectrum is that of the leakage
    covariance sum_j G_j G_j^H, where G_j is the link's channel from another
    cell's BS through that cell's center prebeams."""
    config, clusters = default_scenario()
    geometry = build_geometry(config, clusters)
    plan = build_plan(geometry, "iassr")
    channels = draw_channels(geometry, 99, 0)
    links = solve_links(geometry, plan, channels)
    interfered = 0
    for cid in plan.center_ids():
        ci = geometry.idx(cid)
        home = plan.home_bs(cid)
        sol = links.center[cid]
        rows = np.array(plan.center_rows[cid][:sol.n_streams])
        sigma = np.zeros((rows.size, rows.size), dtype=complex)
        for other in plan.center_ids():
            bs = plan.home_bs(other)
            if bs == home or not geometry.states[ci].visible[bs]:
                continue
            h = np.concatenate([channels[(ci, u, bs)]
                                for u in range(clusters[ci].num_users)], axis=0)
            g = (h @ plan.prebeams[(other, bs)].matrix)[rows]
            sigma += g @ g.conj().T
        expect = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)[::-1]
        scale = max(float(expect.max(initial=0.0)), 1e-300)
        assert sol.interference_eigs.shape == expect.shape
        assert np.allclose(sol.interference_eigs, expect, rtol=0.0, atol=1e-9 * scale)
        interfered += bool(expect.any())
    assert interfered > 0
