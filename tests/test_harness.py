import dataclasses
import functools
import gc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iassr_sim import channel as ch, harness as H, power, training
from iassr_sim.cli import main as cli_main
from iassr_sim.scenario import (ClusterSpec, ScenarioConfig, bs_boresights,
                                bs_positions, default_scenario)


@pytest.fixture(scope="module")
def geometry():
    config, clusters = default_scenario()
    return H.build_geometry(config, clusters)


@pytest.fixture(scope="module")
def iassr_plan(geometry):
    return H.build_plan(geometry, "iassr")


class TestPlans:
    def test_scheme_assignments(self, geometry):
        iassr = H.build_plan(geometry, "iassr")
        assert sorted(iassr.edge_ids()) == ["e0", "e1", "e2"]
        de = H.build_plan(geometry, "de")
        assert not de.edge_ids()
        pure = H.build_plan(geometry, "pure_ia")
        assert len(pure.edge_ids()) == 9

    def test_edge_stream_counts(self, iassr_plan):
        for cid in ("e0", "e1", "e2"):
            assert sum(iassr_plan.edge_streams[cid]) == 3

    def test_de_blocks_one_edge_user(self, geometry):
        de = H.build_plan(geometry, "de")
        for cid in ("e0", "e1", "e2"):
            rows = de.center_rows[cid]
            assert len(rows) == 2
            # one stream each for the first two users, third user unserved
            assert rows == (0, 2)

    def test_center_dimension_pattern(self, geometry, iassr_plan):
        de = H.build_plan(geometry, "de")
        ssr = sorted(iassr_plan.center_dim(c) for c in iassr_plan.center_ids())
        de_dims = sorted(de.center_dim(c) for c in iassr_plan.center_ids())
        assert np.median(ssr) == pytest.approx(2 * np.median(de_dims), abs=1.0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_service_ids_partition_clusters(self, seed):
        config = ScenarioConfig()
        clusters = H._random_clusters(config, np.random.default_rng(seed))
        geometry = H.build_geometry(config, clusters)
        closest = {s.spec.id: int(np.argmin(s.distance)) for s in geometry.states}
        expected_home = {
            "iassr": H.geometric_assignment(geometry),
            "equal_power": H.geometric_assignment(geometry),
            "de": closest,
            "pure_jsdm": closest,
            "pure_ia": dict.fromkeys(closest),
        }
        for scheme, homes in expected_home.items():
            plan = H.build_plan(geometry, scheme)
            parts = [plan.edge_ids()] + [plan.center_ids(bs) for bs in range(3)]
            flat = [cid for part in parts for cid in part]
            assert sorted(flat) == sorted(geometry.ids)
            assert len(flat) == len(set(flat))
            assert sorted(plan.edge_ids()) == sorted(c for c, h in homes.items() if h is None)
            assert sorted(plan.center_ids(0)) == sorted(c for c, h in homes.items() if h == 0)

    def test_every_edge_allocation_is_proper(self, geometry):
        nr = geometry.config.nr
        for scheme in ("iassr", "de", "pure_ia", "pure_jsdm", "equal_power"):
            plan = H.build_plan(geometry, scheme)
            for cid in plan.edge_ids():
                dims = tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
                assert H.ia._proper(plan.edge_streams[cid], dims, nr)
        # the paper's count gives both (1, 1, 1), improper on (4, 1, 1) and (1, 1, 4)
        pure = H.build_plan(geometry, "pure_ia")
        assert pure.edge_streams["c0b"] == (2, 0, 0)
        assert pure.edge_streams["c2a"] == (0, 0, 2)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(0)  # the paper's count for r20 is an improper (1, 1, 1)
    def test_plans_keep_the_search_optimum_when_it_is_proper(self, seed):
        config = ScenarioConfig()
        clusters = H._random_clusters(config, np.random.default_rng(seed))
        plan = H.build_plan(H.build_geometry(config, clusters), "pure_ia")
        for cid in plan.edge_ids():
            dims = tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
            streams = plan.edge_streams[cid]
            assert H.ia._proper(streams, dims, config.nr)
            best = H.ia.dof_search(*dims, config.nr).streams
            if H.ia._proper(best, dims, config.nr):
                assert streams == best

    def test_adaptive_assignment_keeps_centers_home(self, geometry):
        assign = H.adaptive_assignment(geometry, 550)
        for cid in ("c0a", "c0b"):
            assert assign[cid] == 0
        for cid in ("c2a", "c2b"):
            assert assign[cid] == 2


class TestTrials:
    def test_links_pass_sanity_checks(self, geometry, iassr_plan):
        channels = H.draw_channels(geometry, 7, 0)
        links = H.solve_links(geometry, iassr_plan, channels)
        assert all(l <= H.LEAKAGE_LIMIT for l in links.leakage.values())
        assert all(c.zf_residual <= H.ZF_RESIDUAL_LIMIT * max(c.gain, 1.0)
                   for c in links.center.values())

    def test_same_seed_same_rates(self, geometry, iassr_plan):
        p = geometry.config.power_for_snr(geometry.config.snr_db)
        reps = []
        for _ in range(2):
            channels = H.draw_channels(geometry, 123, 5)
            links = H.solve_links(geometry, iassr_plan, channels)
            reps.append(H.evaluate_rates(geometry, iassr_plan, links, p, "golden"))
        assert reps[0].per_cluster == reps[1].per_cluster
        assert reps[0].p_cent == reps[1].p_cent

    def test_power_budget_conserved(self, geometry, iassr_plan):
        cfg = geometry.config
        channels = H.draw_channels(geometry, 3, 1)
        links = H.solve_links(geometry, iassr_plan, channels)
        for policy in ("golden", "equal"):
            rep = H.evaluate_rates(geometry, iassr_plan, links,
                                   cfg.power_for_snr(cfg.snr_db), policy)
            assert rep.sum_capacity > 0

    def test_comp_bound_dominates_sum(self, geometry, iassr_plan):
        cfg = geometry.config
        p = cfg.power_for_snr(cfg.snr_db)
        for t in range(3):
            channels = H.draw_channels(geometry, 11, t)
            links = H.solve_links(geometry, iassr_plan, channels)
            rep = H.evaluate_rates(geometry, iassr_plan, links, p, "golden")
            bound = H.comp_bound_rates(H.comp_bound_spectra(geometry, channels), p)
            assert bound.sum_capacity >= rep.sum_capacity


def _edge_link_bytes(links):
    """The edge links and leakages of a solve, as bytes."""
    parts = [repr(sorted(links.leakage.items())).encode()]
    for cid in sorted(links.edge):
        for bs, eigs in links.edge[cid]:
            parts += [f"{cid}/{bs}".encode(), np.asarray(eigs).tobytes()]
    return b"|".join(parts)


def test_a_trial_depends_only_on_its_seed_and_the_plan(geometry):
    k = 3
    plan = H.build_plan(geometry, "pure_ia")
    streams = dict(plan.edge_streams)
    for t in range(k):
        H.solve_links(geometry, plan, H.draw_channels(geometry, 1234, t))
    after = H.solve_links(geometry, plan, H.draw_channels(geometry, 1234, k))
    alone = H.solve_links(geometry, H.build_plan(geometry, "pure_ia"),
                          H.draw_channels(geometry, 1234, k))
    assert plan.edge_streams == streams
    assert not after.center and len(after.edge) == 9
    assert _edge_link_bytes(after) == _edge_link_bytes(alone)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.edge_streams = {}


def test_equal_policy_without_center_links_shares_the_budget(geometry):
    plan = H.build_plan(geometry, "pure_ia")
    links = H.solve_links(geometry, plan, H.draw_channels(geometry, 5, 0))
    assert not links.center
    p = geometry.config.power_for_snr(20.0)
    per_stream = p / H._total_streams(links)
    expected = sum(power.capacity_edge(eigs, np.full(np.size(eigs), per_stream))
                   for cid in links.edge for _, eigs in links.edge[cid])
    rep = H.evaluate_rates(geometry, plan, links, p, "equal")
    assert rep.sum_capacity == pytest.approx(expected, rel=1e-12)
    assert 0 < rep.sum_capacity <= H.evaluate_rates(geometry, plan, links, p,
                                                    "golden").sum_capacity


def test_identity_user_correlation_is_decided_once_per_draw(geometry, monkeypatch):
    phis, roots = [], []
    sample_channel, matrix_sqrt = ch.sample_channel, ch._matrix_sqrt

    def spy(basis, beta, phi, nr, rng):
        phis.append(phi)
        return sample_channel(basis, beta, phi, nr, rng)

    monkeypatch.setattr(ch, "sample_channel", spy)
    monkeypatch.setattr(ch, "_matrix_sqrt", lambda m: roots.append(m) or matrix_sqrt(m))
    assert geometry.config.user_corr_rho == 0.0
    H.draw_channels(geometry, 5, 0)
    assert phis and all(phi is None for phi in phis) and not roots
    phis.clear()
    correlated = dataclasses.replace(
        geometry, config=dataclasses.replace(geometry.config, user_corr_rho=0.4))
    channels = H.draw_channels(correlated, 5, 0)
    expected = ch.exponential_user_correlation(0.4, geometry.config.nr)
    assert len(phis) == len(roots) == len(channels)
    assert all(np.array_equal(m, expected) for m in roots)


def _toy_disjoint_scenario():
    """Three center clusters in one cell at well-separated azimuths: the
    other two cells are empty, so there is exactly zero coupling and the
    beam rules coincide."""
    config = ScenarioConfig()
    pos = bs_positions(config)
    bores = bs_boresights(config)
    clusters = []
    for k, az in enumerate((-20.0, 0.0, 20.0)):
        ang = bores[0] + np.deg2rad(az)
        p = pos[0] + 350.0 * np.array([np.cos(ang), np.sin(ang)])
        clusters.append(ClusterSpec(id=f"t{k}", position=(float(p[0]), float(p[1]))))
    return config, clusters


def test_disjoint_geometry_matches_de_at_equal_power():
    config, clusters = _toy_disjoint_scenario()
    geometry = H.build_geometry(config, clusters)
    iassr = H.build_plan(geometry, "iassr")
    de = H.build_plan(geometry, "de")
    for cid in iassr.center_ids():
        assert iassr.center_dim(cid) == de.center_dim(cid)
    channels = H.draw_channels(geometry, 5, 0)
    li = H.solve_links(geometry, iassr, channels)
    ld = H.solve_links(geometry, de, channels)
    p = config.power_for_snr(config.snr_db)
    ri = H.evaluate_rates(geometry, iassr, li, p, "equal")
    rd = H.evaluate_rates(geometry, de, ld, p, "equal")
    for cid in ri.per_cluster:
        assert ri.per_cluster[cid] == pytest.approx(rd.per_cluster[cid], rel=1e-9)


def test_mse_monotone_and_no_floor_without_interference():
    config, clusters = _toy_disjoint_scenario()
    geometry = H.build_geometry(config, clusters)
    plan = H.build_plan(geometry, "iassr")
    boost = 10.0 ** (config.pilot_boost_db / 10.0)
    powers = [boost * config.power_for_snr(snr) for snr in (0.0, 15.0, 30.0, 45.0)]
    acc = []
    for t in range(30):
        channels = H.draw_channels(geometry, 17, t)
        acc.append([c_mse for _, c_mse in H.mse_trial(geometry, plan, channels, powers, 17, t)])
    means = np.mean(acc, axis=0)
    assert all(a >= b * 0.99 for a, b in zip(means, means[1:]))
    assert means[-1] < 1e-6


def one_power_mse_trial(geometry, plan, channels, pilot_power, base_seed, trial):
    """Reference training pass: one pilot power, everything rebuilt."""
    cfg = geometry.config
    edge_dims = {cid: tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
                 for cid in plan.edge_ids()}
    center_dims = {cid: (plan.home_bs(cid), plan.center_dim(cid))
                   for cid in plan.center_ids()}
    plan_t = training.design_training(edge_dims, center_dims)
    amp = np.sqrt(pilot_power)

    def noise(shape, tag, ci):
        rng = np.random.default_rng(
            np.random.SeedSequence(H.trial_seed_tuple(base_seed, trial, tag, ci)))
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    edge_err, center_err = [], []
    for cid in sorted(plan.edge_ids()):
        ci = geometry.idx(cid)
        rows = geometry.states[ci].spec.num_users * cfg.nr
        y = np.zeros((rows, plan_t.edge_len), dtype=complex)
        for other in plan.edge_ids():
            for bs in range(3):
                if plan.prebeams[(other, bs)].rank == 0:
                    continue
                if not geometry.states[ci].visible[bs]:
                    continue
                g = H._stacked(geometry, channels, ci, bs) @ plan.prebeams[(other, bs)].matrix
                y += amp * g @ plan_t.edge_matrix(other, bs)
        y = y / amp + noise(y.shape, 901, ci) / amp
        for bs in range(3):
            if plan_t.edge_dims[cid][bs] == 0:
                continue
            est = training.ls_estimate_edge(y, plan_t, cid, bs)
            true = H._stacked(geometry, channels, ci, bs) @ plan.prebeams[(cid, bs)].matrix
            edge_err.append(np.mean(np.abs(est - true) ** 2))
    for cid in sorted(plan.center_ids()):
        ci = geometry.idx(cid)
        rows = geometry.states[ci].spec.num_users * cfg.nr
        y = np.zeros((rows, plan_t.center_len), dtype=complex)
        for other in plan.center_ids():
            bs = plan.home_bs(other)
            if not geometry.states[ci].visible[bs] or plan.center_dim(other) == 0:
                continue
            g = H._stacked(geometry, channels, ci, bs) @ plan.prebeams[(other, bs)].matrix
            y += amp * g @ plan_t.center_matrix(other)
        y = y / amp + noise(y.shape, 902, ci) / amp
        est = training.ls_estimate_center(y, plan_t, cid)
        home = plan.home_bs(cid)
        true = H._stacked(geometry, channels, ci, home) @ plan.prebeams[(cid, home)].matrix
        center_err.append(np.mean(np.abs(est - true) ** 2))
    return (float(np.mean(edge_err)) if edge_err else np.nan,
            float(np.mean(center_err)) if center_err else np.nan)


@functools.cache
def _training_setup(scenario, scheme):
    config, clusters = default_scenario() if scenario == "default" else _toy_disjoint_scenario()
    geometry = H.build_geometry(config, clusters)
    return geometry, H.build_plan(geometry, scheme)


class TestMseTrial:
    @settings(max_examples=30, deadline=None)
    @given(scenario=st.sampled_from(["default", "toy"]),
           scheme=st.sampled_from(["iassr", "pure_jsdm", "pure_ia"]),
           base_seed=st.integers(0, 2 ** 40), trial=st.integers(0, 200),
           snrs=st.lists(st.sampled_from([0.0, 40.0]) | st.floats(-10.0, 50.0),
                         min_size=1, max_size=6))
    @example(scenario="default", scheme="iassr", base_seed=5, trial=0,
             snrs=[0.0, 40.0, 40.0, 0.0])
    def test_every_power_matches_a_pass_of_its_own(self, scenario, scheme, base_seed,
                                                  trial, snrs):
        geometry, plan = _training_setup(scenario, scheme)
        channels = H.draw_channels(geometry, base_seed, trial)
        boost = 10.0 ** (geometry.config.pilot_boost_db / 10.0)
        powers = [boost * geometry.config.power_for_snr(snr) for snr in snrs]
        got = H.mse_trial(geometry, plan, channels, powers, base_seed, trial)
        expected = [one_power_mse_trial(geometry, plan, channels, p, base_seed, trial)
                    for p in powers]
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("scenario, scheme, nan_class", [
        ("default", "pure_jsdm", 0), ("default", "pure_ia", 1),
        ("toy", "iassr", 0), ("toy", "pure_ia", 1)])
    def test_a_class_without_links_reads_nan(self, scenario, scheme, nan_class):
        geometry, plan = _training_setup(scenario, scheme)
        channels = H.draw_channels(geometry, 3, 1)
        for pair in H.mse_trial(geometry, plan, channels, [1.0, 1e4], 3, 1):
            assert np.isnan(pair[nan_class]) and np.isfinite(pair[1 - nan_class])

    def test_no_powers_no_pairs(self):
        geometry, plan = _training_setup("default", "iassr")
        assert H.mse_trial(geometry, plan, H.draw_channels(geometry, 3, 1), [], 3, 1) == []


class TestCsvAndCli:
    def test_fig2_deterministic_bytes(self, tmp_path):
        config, clusters = default_scenario()
        spec = H.ExperimentSpec(figure="fig2", config=config, clusters=clusters,
                                trials=1, base_seed=9, out_dir=tmp_path / "a")
        (p1,) = H.run(spec)
        spec2 = H.ExperimentSpec(figure="fig2", config=config, clusters=clusters,
                                 trials=1, base_seed=9, out_dir=tmp_path / "b")
        (p2,) = H.run(spec2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fig3_values(self, tmp_path):
        config, clusters = default_scenario()
        spec = H.ExperimentSpec(figure="fig3", config=config, clusters=clusters,
                                trials=1, base_seed=9, out_dir=tmp_path)
        (path,) = H.run(spec)
        rows = {}
        for line in path.read_text().splitlines()[1:]:
            sweep, scheme, metric, mean, _, _ = line.split(",")
            rows[(scheme, metric)] = float(mean)
        assert abs(rows[("iassr", "rank_r_center")] - 8.0) <= 1.0
        assert abs(rows[("iassr", "rank_r_edge")] - 4.0) <= 1.0
        assert rows[("iassr", "streams_S_edge")] == 3.0
        assert rows[("de", "streams_S_edge")] == 2.0

    def test_unknown_figure_rejected(self):
        config, clusters = default_scenario()
        with pytest.raises(ValueError, match="unknown figure"):
            H.run(H.ExperimentSpec(figure="fig99", config=config,
                                   clusters=clusters, trials=1))

    def test_cli_round_trip(self, tmp_path, capsys):
        rc = cli_main(["run", "--figure", "fig2", "--trials", "1",
                       "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and out[-1].endswith("fig2.csv")
        header = (tmp_path / "fig2.csv").read_text().splitlines()[0]
        assert header == "sweep,scheme,metric,mean,stderr,trials"

    def test_cli_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[nothing]\n")
        rc = cli_main(["run", "--figure", "fig2", "--config", str(bad),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_cli_spec_error_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--figure", "fig2", "--trials", "0",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: trials must be at least 1"

    def test_cli_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError; it must not read as a bad specification
        def singular(spec):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(H.FIGURES, "fig2", singular)
        rc = cli_main(["run", "--figure", "fig2", "--trials", "1",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.strip() == "error: numerical failure: Singular matrix"

    def test_cli_grid_overrides(self, tmp_path):
        rc = cli_main(["run", "--figure", "fig10", "--trials", "2",
                       "--seed", "4", "--out", str(tmp_path),
                       "--snr-db", "0,20"])
        assert rc == 0
        text = (tmp_path / "fig10.csv").read_text()
        assert "\n0.0," in text and "\n20.0," in text


def test_plan_alphas_match_overhead_module(geometry, iassr_plan):
    from iassr_sim.division import overhead_factor
    cfg = geometry.config
    alphas = H.plan_alphas(geometry, iassr_plan, 250)
    dims = tuple(iassr_plan.prebeams[("e0", bs)].rank for bs in range(3))
    expect = overhead_factor("edge", dims, 3, cfg.nr, cfg.quant_bits_q,
                             cfg.feedback_rate_f, 250)
    assert alphas["e0"] == pytest.approx(expect)
    tc = sum(iassr_plan.bs_center_max())
    expect_c = overhead_factor("center", iassr_plan.center_dim("c0a"), 3, cfg.nr,
                               cfg.quant_bits_q, cfg.feedback_rate_f, 250,
                               train_len=tc)
    assert alphas["c0a"] == pytest.approx(expect_c)


class TestAlignmentTable:
    """One alignment table per channel realization: solving through a shared
    table gives the same links and the same failures as a fresh solve and as
    ``ia.ia_precoders`` itself."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        solve = H.ia.ia_precoders

        def counted(eff, allocation, *args, **kwargs):
            key = tuple(np.asarray(m).tobytes() for row in eff for m in row)
            calls.append((key, tuple(allocation.streams)))
            return solve(eff, allocation, *args, **kwargs)

        monkeypatch.setattr(H.ia, "ia_precoders", counted)
        return calls

    def test_fresh_and_filled_table_give_the_same_links(self, geometry, iassr_plan,
                                                         monkeypatch):
        channels = H.draw_channels(geometry, 41, 2)
        plain = H.solve_links(geometry, iassr_plan, channels)
        table = {}
        fresh = H.solve_links(geometry, iassr_plan, channels, table)
        assert sorted(table) == [(cid, iassr_plan.edge_streams[cid])
                                 for cid in sorted(iassr_plan.edge_ids())]
        calls = self._count_calls(monkeypatch)
        filled = H.solve_links(geometry, iassr_plan, channels, table)
        assert calls == []
        for links in (fresh, filled):
            assert links.leakage == plain.leakage
            assert links.edge.keys() == plain.edge.keys()
            for cid, per_bs in plain.edge.items():
                assert [bs for bs, _ in links.edge[cid]] == [bs for bs, _ in per_bs]
                for (_, got), (_, want) in zip(links.edge[cid], per_bs):
                    np.testing.assert_array_equal(got, want)
            assert links.center.keys() == plain.center.keys()
            for cid, want in plain.center.items():
                got = links.center[cid]
                assert (got.gain, got.n_streams, got.zf_residual) == \
                    (want.gain, want.n_streams, want.zf_residual)
                np.testing.assert_array_equal(got.interference_eigs, want.interference_eigs)

    @staticmethod
    def _assert_no_exception_stored(table):
        """A stored failure is its type and string arguments: nothing reachable
        from the table is an exception, a traceback or a frame."""
        seen, todo = set(), [table]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (BaseException, types.TracebackType, types.FrameType))
            todo.extend(gc.get_referents(obj))
        for entry in table.values():
            if isinstance(entry, tuple):
                assert all(isinstance(a, str) for a in entry[1])

    def test_failed_alignment_raises_the_same_with_a_table(self, geometry, iassr_plan):
        channels = H.draw_channels(geometry, 41, 2)
        # more streams than receive antennas
        plan = dataclasses.replace(iassr_plan,
                                   edge_streams={**iassr_plan.edge_streams, "e1": (3, 3, 3)})
        eff = H._edge_channels(geometry, plan, channels, "e1")
        with pytest.raises(ValueError) as plain:
            H.ia.ia_precoders(eff, H.ia.DofAllocation((3, 3, 3)))
        table = {}
        raised = []
        for _ in range(2):  # fresh table, then filled
            with pytest.raises(H.TrialError) as info:
                H.solve_links(geometry, plan, channels, table)
            raised.append(info.value)
        for exc in raised:
            assert str(exc) == f"alignment failed for e1: {plain.value}"
        assert raised[0] is not raised[1]
        assert isinstance(table[("e1", (3, 3, 3))], tuple)
        self._assert_no_exception_stored(table)

    def test_improper_alignment_raises_the_same_with_a_table(self):
        # (1,1,1) on dims (2,1,1) with two receive antennas passes the
        # paper's count but is improper: 4 variables for 6 equations
        rng = np.random.default_rng(3)
        dims, nr = (2, 1, 1), 2
        eff = [[rng.standard_normal((nr, dims[i])) + 1j * rng.standard_normal((nr, dims[i]))
                for i in range(3)] for _ in range(3)]
        with pytest.raises(RuntimeError) as plain:
            H.ia.ia_precoders(eff, H.ia.DofAllocation((1, 1, 1)))
        table = {}
        for _ in range(2):
            with pytest.raises(RuntimeError) as info:
                H._aligned(table, "x", eff, (1, 1, 1))
            assert type(info.value) is type(plain.value)
            assert str(info.value) == str(plain.value)
            assert info.value.reason == "improper"
            assert info.value.__context__ is None
        self._assert_no_exception_stored(table)

    def test_a_programming_error_is_not_a_failed_alignment(self, geometry, iassr_plan,
                                                           monkeypatch):
        def broken(eff, allocation):
            raise TypeError("bad argument")

        monkeypatch.setattr(H.ia, "ia_precoders", broken)
        channels = H.draw_channels(geometry, 41, 2)
        table = {}
        with pytest.raises(TypeError):
            H.solve_links(geometry, iassr_plan, channels, table)
        assert table == {}

    # at 700006 the DoF division puts r02 at the edge, where the paper's
    # count (1, 1, 1) is improper: its plan aligns (1, 1, 0) at once
    @pytest.mark.parametrize("seed", [700000, 700003, 700006, 7])
    def test_fig7_aligns_each_cluster_once_per_trial(self, seed, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        config, clusters = default_scenario()
        H.run(H.ExperimentSpec(figure="fig7", config=config, clusters=clusters,
                               trials=1, base_seed=seed, out_dir=tmp_path))
        assert len(calls) == len(set(calls)) <= 9


class TestTrialEngine:
    """Figures 4-6 and 8-11 share one trial loop and one abort policy."""

    @pytest.mark.parametrize("figure", ["fig4", "fig6", "fig8", "fig9", "fig10", "fig11"])
    def test_an_aborted_trial_is_dropped_whole_and_counted(self, figure, tmp_path,
                                                           monkeypatch):
        drawn = []
        draw_channels, solve_links, mse_trial = H.draw_channels, H.solve_links, H.mse_trial

        def draw(geometry, base_seed, trial):
            drawn.append(trial)
            return draw_channels(geometry, base_seed, trial)

        def failing(solve):
            def wrapped(*args, **kwargs):
                if drawn[-1] == 1:
                    raise H.TrialError("injected")
                return solve(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(H, "draw_channels", draw)
        if figure == "fig11":
            monkeypatch.setattr(H, "mse_trial", failing(mse_trial))
        else:
            monkeypatch.setattr(H, "solve_links", failing(solve_links))
        config, clusters = default_scenario()
        paths = H.run(H.ExperimentSpec(figure=figure, config=config, clusters=clusters,
                                       trials=3, base_seed=5, out_dir=tmp_path))
        assert drawn == [0, 1, 2]
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[1] == "diagnostic,harness,aborted_trials,1,0,1"
            assert len(lines) > 2
            assert all(line.endswith(",2") for line in lines[2:])

    def test_fig9_solves_each_distinct_plan_once_per_trial(self, tmp_path, monkeypatch):
        plans = []
        solve_links = H.solve_links

        def counted(geometry, plan, channels, *args):
            plans.append(plan)
            return solve_links(geometry, plan, channels, *args)

        monkeypatch.setattr(H, "solve_links", counted)
        config, clusters = default_scenario()
        H.run(H.ExperimentSpec(figure="fig9", config=config, clusters=clusters,
                               trials=2, base_seed=5, out_dir=tmp_path))
        # pure_ia, pure_jsdm and the one adaptive division every block length shares
        assert len(plans) == 6
        assert len({id(plan) for plan in plans}) == 3
