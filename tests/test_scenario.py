import configparser

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iassr_sim.scenario import (_SCENARIO_KEYS, ClusterSpec, ScenarioConfig,
                                aod_and_spread, bs_boresights, bs_positions,
                                cluster_state, default_scenario, load_scenario,
                                path_loss)


def test_spread_equals_quarter_pi_when_ring_equals_distance():
    c = ClusterSpec(id="x", position=(300.0, 0.0), ring_radius_m=300.0)
    _, delta = aod_and_spread(c, np.zeros(2), 0.0)
    assert delta == pytest.approx(np.pi / 4)


def test_spread_vanishes_with_ring():
    c = ClusterSpec(id="x", position=(500.0, 0.0), ring_radius_m=1e-6)
    _, delta = aod_and_spread(c, np.zeros(2), 0.0)
    assert delta < 1e-8


def test_spread_reference_value():
    c = ClusterSpec(id="x", position=(300.0, 0.0), ring_radius_m=25.0)
    _, delta = aod_and_spread(c, np.zeros(2), 0.0)
    assert delta == pytest.approx(np.arctan(1.0 / 12.0), rel=1e-12)
    assert delta == pytest.approx(0.08314, abs=5e-6)


def test_cluster_on_bs_rejected():
    c = ClusterSpec(id="x", position=(10.0, -3.0))
    with pytest.raises(ValueError, match="coincides"):
        aod_and_spread(c, np.array([10.0, -3.0]), 0.0)
    with pytest.raises(ValueError):
        path_loss(c, np.array([10.0, -3.0]), 2e9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-np.pi, np.pi), st.floats(50.0, 2000.0), st.floats(-np.pi, np.pi))
def test_rigid_rotation_shifts_aod_only(az, dist, rot):
    base = np.array([dist * np.cos(az), dist * np.sin(az)])
    c = ClusterSpec(id="x", position=tuple(base), ring_radius_m=20.0)
    th0, d0 = aod_and_spread(c, np.zeros(2), 0.1)
    rmat = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    c2 = ClusterSpec(id="x", position=tuple(rmat @ base), ring_radius_m=20.0)
    th1, d1 = aod_and_spread(c2, np.zeros(2), 0.1 + rot)
    assert d1 == pytest.approx(d0, rel=1e-9)
    assert np.angle(np.exp(1j * (th1 - th0))) == pytest.approx(0.0, abs=1e-9)


def test_path_loss_inverse_square():
    near = ClusterSpec(id="a", position=(450.0, 0.0))
    far = ClusterSpec(id="b", position=(900.0, 0.0))
    bs = np.zeros(2)
    assert path_loss(near, bs, 2e9) == pytest.approx(4 * path_loss(far, bs, 2e9), rel=1e-12)


def test_path_loss_reference_values():
    c = ClusterSpec(id="x", position=(900.0, 0.0))
    assert path_loss(c, np.zeros(2), 2e9) == pytest.approx(1.758e-10, rel=1e-3)
    near = ClusterSpec(id="y", position=(350.0, 0.0))
    ratio = path_loss(near, np.zeros(2), 2e9) / path_loss(c, np.zeros(2), 2e9)
    assert ratio == pytest.approx((900.0 / 350.0) ** 2, rel=1e-12)
    assert ratio == pytest.approx(6.61, abs=0.01)


def test_path_loss_strictly_decreasing():
    bs = np.zeros(2)
    dists = np.linspace(100.0, 1500.0, 15)
    vals = [path_loss(ClusterSpec(id="x", position=(d, 0.0)), bs, 2e9) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDefaultScenario:
    def test_nine_clusters(self):
        _, clusters = default_scenario()
        assert len(clusters) == 9
        assert all(c.num_users == 3 for c in clusters)

    def test_edge_distances_in_band(self):
        config, clusters = default_scenario()
        pos = bs_positions(config)
        for c in clusters:
            if not c.id.startswith("e"):
                continue
            d = np.linalg.norm(pos - np.asarray(c.position), axis=1)
            assert d.min() >= 850.0 and d.max() <= 1000.0

    def test_deterministic(self):
        a = default_scenario()
        b = default_scenario()
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_analytic_ranks_near_published(self):
        from iassr_sim.channel import analytic_rank
        config, clusters = default_scenario()
        states = [cluster_state(config, c) for c in clusters]
        centers, edges = [], []
        for st_ in states:
            if st_.home_bs is None:
                for bs in range(3):
                    edges.append(analytic_rank(st_.aod[bs], st_.spread[bs],
                                               config.nt, config.spacing_ratio))
            else:
                bs = st_.home_bs
                centers.append(analytic_rank(st_.aod[bs], st_.spread[bs],
                                             config.nt, config.spacing_ratio))
        assert abs(np.mean(centers) - 8.0) <= 1.0
        assert abs(np.mean(edges) - 4.0) <= 1.0

    def test_geometric_assignment(self):
        config, clusters = default_scenario()
        for c in clusters:
            st_ = cluster_state(config, c)
            if c.id.startswith("e"):
                assert st_.home_bs is None
            else:
                assert st_.home_bs == int(c.id[1])


def dump_scenario(config: ScenarioConfig, clusters, path):
    """Write a scenario in the same format load_scenario reads."""
    parser = configparser.ConfigParser()
    parser["scenario"] = {k: repr(getattr(config, k)) for k in _SCENARIO_KEYS}
    for c in clusters:
        parser[f"cluster.{c.id}"] = {
            "position": f"{c.position[0]!r}, {c.position[1]!r}",
            "ring_radius_m": repr(c.ring_radius_m),
            "num_users": repr(c.num_users),
        }
    with open(path, "w") as fh:
        parser.write(fh)


def test_config_round_trip(tmp_path):
    config, clusters = default_scenario()
    path = tmp_path / "scenario.cfg"
    dump_scenario(config, clusters, path)
    config2, clusters2 = load_scenario(path)
    assert config2 == config
    assert clusters2 == clusters


def test_bundled_config_matches_code_default():
    from iassr_sim.scenario import bundled_config_path
    config, clusters = load_scenario(bundled_config_path())
    ref_config, ref_clusters = default_scenario()
    assert config == ref_config
    assert clusters == ref_clusters


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(nt=2, nr=2)
    with pytest.raises(ValueError):
        ScenarioConfig(spacing_ratio=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(eigen_threshold=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(coherence_t=0)
    with pytest.raises(ValueError):
        ClusterSpec(id="x", position=(0, 0), ring_radius_m=0.0)
    with pytest.raises(ValueError):
        ClusterSpec(id="x", position=(0, 0), num_users=0)


def test_boresights_point_at_meeting_point():
    config, _ = default_scenario()
    pos = bs_positions(config)
    bores = bs_boresights(config)
    for i in range(3):
        to_center = np.arctan2(-pos[i, 1], -pos[i, 0]) % (2 * np.pi)
        assert to_center == pytest.approx(bores[i], abs=1e-12)
