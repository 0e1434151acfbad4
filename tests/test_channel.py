import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import toeplitz

from iassr_sim import channel as ch, harness as H
from iassr_sim.channel import (analytic_rank, correlation_matrix, dft_index_set,
                               eigen_bases, eigen_basis, exponential_user_correlation,
                               sample_channel)
from iassr_sim.prebeam import dft_columns
from iassr_sim.scenario import ScenarioConfig, cluster_state, default_scenario

NT = 128
SP = 0.5


def reconstruct(basis):
    """The truncated correlation matrix E diag(values) E^H of a basis."""
    return (basis.vectors * basis.values) @ basis.vectors.conj().T


def per_panel_row(theta, delta, nt, spacing_ratio, tol=1e-10):
    """Reference one-ring row: one panel at a time, every level evaluated in
    full, the panel vectors added with sum()."""
    freqs = 2.0 * np.pi * spacing_ratio * np.arange(nt)
    panels = [(theta - delta, theta + delta)]
    budget = tol * 2.0 * delta
    while True:
        vals, errs = [], []
        for lo, hi in panels:
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            s = np.sin(mid + half * ch._GK_NODES)
            ph = np.exp(-1j * np.outer(freqs, s))
            full = half * ph @ ch._GK_WEIGHTS
            coarse = half * ph[:, ch._G7_PICK] @ ch._G7_WEIGHTS
            vals.append(full)
            errs.append(np.max(np.abs(full - coarse)))
        if max(errs) <= budget / len(panels):
            return sum(vals) / (2.0 * delta)
        panels = [p for lo, hi in panels
                  for p in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]


def serial_basis(theta, delta, nt, spacing_ratio, eigen_threshold):
    """One pair's eigenbasis built serially from ``per_panel_row``."""
    row = per_panel_row(theta, delta, nt, spacing_ratio)
    r = toeplitz(row, row.conj())
    w, v = np.linalg.eigh(0.5 * (r + r.conj().T))
    w, v = w[::-1], v[:, ::-1]
    keep = w >= eigen_threshold * w[0]
    return v[:, keep], w[keep]


def test_unit_diagonal():
    r = correlation_matrix(0.2, 0.05, 32, SP)
    assert np.max(np.abs(np.diag(r) - 1.0)) < 1e-12


def test_degenerate_spread_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        correlation_matrix(0.0, 0.0, 16, SP)


def test_zero_spread_limit_is_rank_one():
    r = correlation_matrix(0.0, 1e-6, 16, SP)
    assert np.max(np.abs(r - np.ones((16, 16)))) < 1e-3


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(1e-3, 0.5))
def test_toeplitz_and_psd(theta, delta):
    r = correlation_matrix(theta, delta, 24, SP)
    assert np.max(np.abs(r[:-1, :-1] - r[1:, 1:])) < 1e-10
    w = np.linalg.eigvalsh(r)
    assert w.min() > -1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(1e-3, 0.6), st.integers(1, 160))
@example(0.3, 0.1, 1)
@example(-0.7, 0.05, 2)
@example(0.45, 0.2, 37)
@example(0.9, 0.1, 128)
def test_correlation_matrix_matches_scipy_toeplitz(theta, delta, nt):
    row = ch._one_ring_row(theta, delta, nt, SP, 1e-10)
    t = toeplitz(row, row.conj())
    expect = 0.5 * (t + t.conj().T)
    assert ch._correlation_matrix(theta, delta, nt, SP, 1e-10).tobytes() == expect.tobytes()


def test_quadrature_matches_reference():
    from scipy.integrate import quad
    theta, delta = 0.37, 0.081
    row = ch._one_ring_row(theta, delta, 40, SP, 1e-10)
    for k in (1, 7, 23, 39):
        re, _ = quad(lambda a: np.cos(-2 * np.pi * k * SP * np.sin(a)),
                     theta - delta, theta + delta, epsabs=1e-13, limit=300)
        im, _ = quad(lambda a: np.sin(-2 * np.pi * k * SP * np.sin(a)),
                     theta - delta, theta + delta, epsabs=1e-13, limit=300)
        assert row[k] == pytest.approx((re + 1j * im) / (2 * delta), abs=1e-11)


class TestQuadrature:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.4, 1.4), st.floats(1e-4, 0.8), st.integers(1, 160),
           st.sampled_from([1e-10, 1e-12, 1e-7]))
    def test_screened_rows_match_the_per_panel_loop(self, theta, delta, nt, tol):
        new = ch._one_ring_row(theta, delta, nt, SP, tol)
        old = per_panel_row(theta, delta, nt, SP, tol=tol)
        assert new.tobytes() == old.tobytes()

    @staticmethod
    def count_panels(monkeypatch):
        panels = []
        level_sum = ch._level_sum

        def counted(freqs, edges, bound):
            panels.append(edges.size - 1)
            return level_sum(freqs, edges, bound)

        monkeypatch.setattr(ch, "_level_sum", counted)
        return panels

    def test_wide_fast_ring_splits_past_twelve_levels(self, monkeypatch):
        # the fastest lag turns through about 5800 radians: 4096 panels
        panels = self.count_panels(monkeypatch)
        new = ch._one_ring_row(0.2, 0.9, 256, 4.0, 1e-10)
        assert panels[-1] == 4096
        assert new.tobytes() == per_panel_row(0.2, 0.9, 256, 4.0).tobytes()

    def test_unreachable_tolerance_raises_at_the_level_cap(self, monkeypatch):
        panels = self.count_panels(monkeypatch)
        with pytest.raises(RuntimeError, match="did not reach tolerance"):
            ch._one_ring_row(0.3, 0.2, NT, SP, 0.0)
        assert panels == [2 ** k for k in range(12)]


@pytest.fixture
def serial_blas(monkeypatch):
    """Report a single-threaded BLAS, so the helper thread of ``eigen_bases``
    runs whenever ``_TWO_CPUS`` allows it, pinned or not."""
    monkeypatch.setattr(ch, "_blas_threads", lambda: 1)


@pytest.mark.usefixtures("serial_blas")
class TestEigenBases:
    ANGLES = [(0.1, 0.07), (-0.4, 0.03), (0.9, 0.2), (0.0, 0.0125), (1.2, 0.05)]

    def _threads(self, monkeypatch):
        seen = set()
        correlation = ch._correlation_matrix

        def spy(*args):
            seen.add(threading.get_ident())
            return correlation(*args)

        monkeypatch.setattr(ch, "_correlation_matrix", spy)
        return seen

    @staticmethod
    def assert_serial(angles, bases):
        assert len(bases) == len(angles)
        for (theta, delta), b in zip(angles, bases):
            vectors, values = serial_basis(theta, delta, NT, SP, 0.4)
            assert b.vectors.tobytes() == vectors.tobytes()
            assert b.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("two_cpus", [True, False])
    def test_matches_the_serial_per_pair_loop(self, monkeypatch, two_cpus):
        monkeypatch.setattr(ch, "_TWO_CPUS", two_cpus)
        seen = self._threads(monkeypatch)
        self.assert_serial(self.ANGLES, eigen_bases(self.ANGLES, NT, SP, 0.4))
        assert len(seen) == (2 if two_cpus else 1)

    def test_rapid_thread_switching_changes_no_bit(self, monkeypatch):
        monkeypatch.setattr(ch, "_TWO_CPUS", True)
        angles = self.ANGLES * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bases = eigen_bases(angles, NT, SP, 0.4)
        finally:
            sys.setswitchinterval(interval)
        self.assert_serial(angles, bases)

    def test_helper_thread_error_surfaces_unchanged(self, monkeypatch):
        monkeypatch.setattr(ch, "_TWO_CPUS", True)
        raised_in = []
        correlation = ch._correlation_matrix

        def spy(theta, delta, *args):
            try:
                return correlation(theta, delta, *args)
            except ValueError:
                raised_in.append(threading.current_thread())
                raise

        monkeypatch.setattr(ch, "_correlation_matrix", spy)
        with pytest.raises(ValueError) as info:
            eigen_bases([(0.1, 0.07), (0.2, 0.0), (0.3, 0.05)], NT, SP, 0.4)
        assert type(info.value) is ValueError and info.value.args == ("degenerate spread",)
        assert len(raised_in) == 1 and raised_in[0] is not threading.main_thread()

    @pytest.mark.parametrize("threads, helper", [(1, True), (None, True), (2, False)])
    def test_helper_runs_only_beside_a_serial_blas(self, monkeypatch, threads, helper):
        monkeypatch.setattr(ch, "_TWO_CPUS", True)
        monkeypatch.setattr(ch, "_blas_threads", lambda: threads)
        seen = self._threads(monkeypatch)
        self.assert_serial(self.ANGLES, eigen_bases(self.ANGLES, NT, SP, 0.4))
        assert len(seen) == (2 if helper else 1)

    @pytest.mark.parametrize("two_cpus", [True, False])
    def test_first_failing_pair_raises(self, monkeypatch, two_cpus):
        monkeypatch.setattr(ch, "_TWO_CPUS", two_cpus)

        def fail(theta, delta, *args):
            raise RuntimeError(f"pair at {theta}")

        monkeypatch.setattr(ch, "_correlation_matrix", fail)
        with pytest.raises(RuntimeError, match="^pair at 0.1$"):
            eigen_bases(self.ANGLES, NT, SP, 0.4)


class TestBlasThreads:
    @pytest.mark.parametrize("env, threads", [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "3"}, 3),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "x"}, None),
    ])
    def test_thread_variables_tell_without_openblas(self, monkeypatch, env, threads):
        monkeypatch.setattr(ch, "_OPENBLAS_THREADS", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert ch._blas_threads() == threads

    @pytest.mark.skipif(ch._OPENBLAS_THREADS is None, reason="numpy has no bundled OpenBLAS")
    def test_openblas_reports_the_thread_count_it_loaded_with(self):
        probe = "from iassr_sim import channel; print(channel._blas_threads())"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(ch.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "1"


@pytest.mark.usefixtures("serial_blas")
class TestBuildGeometry:
    @staticmethod
    def assert_serial_bases(config, clusters):
        geometry = H.build_geometry(config, clusters)
        expected = {}
        for ci, cluster in enumerate(clusters):
            state = cluster_state(config, cluster)
            for bs in range(config.num_bs):
                if state.visible[bs]:
                    expected[(ci, bs)] = serial_basis(
                        state.aod[bs], state.spread[bs], config.nt,
                        config.spacing_ratio, config.eigen_threshold)
        assert list(geometry.bases) == list(expected)
        for key, (vectors, values) in expected.items():
            assert geometry.bases[key].vectors.tobytes() == vectors.tobytes()
            assert geometry.bases[key].values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("two_cpus", [True, False])
    def test_default_scenario_matches_the_serial_loop(self, monkeypatch, two_cpus):
        monkeypatch.setattr(ch, "_TWO_CPUS", two_cpus)
        self.assert_serial_bases(*default_scenario())

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_fig7_geometries_match_the_serial_loop(self, seed):
        config = ScenarioConfig()
        self.assert_serial_bases(config, H._random_clusters(config, np.random.default_rng(seed)))


class TestEigenBasis:
    def test_identity(self):
        b = eigen_basis(np.eye(4), 0.4)
        assert b.rank == 4
        assert np.allclose(b.values, 1.0)

    def test_all_ones_rank_one(self):
        b = eigen_basis(np.ones((4, 4)), 0.4)
        assert b.rank == 1
        assert b.values[0] == pytest.approx(4.0)

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            eigen_basis(m, 0.4)

    def test_columns_orthonormal_and_reconstruction(self):
        r = correlation_matrix(0.1, 0.07, NT, SP)
        b = eigen_basis(r, 0.4)
        g = b.vectors.conj().T @ b.vectors
        assert np.max(np.abs(g - np.eye(b.rank))) < 1e-10
        # discarded mass bounds the reconstruction error
        resid = np.linalg.norm(r - reconstruct(b), 2)
        assert resid <= 0.4 * b.values[0] + 1e-9

    def test_published_rank_at_300m(self):
        delta = np.arctan(25.0 / 300.0)
        r = correlation_matrix(0.0, delta, NT, SP)
        b = eigen_basis(r, 0.4)
        assert 7 <= b.rank <= 11

    def test_published_rank_at_900m(self):
        delta = np.arctan(25.0 / 900.0)
        r = correlation_matrix(0.0, delta, NT, SP)
        b = eigen_basis(r, 0.4)
        assert 3 <= b.rank <= 5


class TestDftIndexSet:
    def test_zero_spread_tiny(self):
        idx = dft_index_set(0.1, 1e-9, NT, SP)
        assert len(idx) <= 1
        assert analytic_rank(0.1, 0.0, NT, SP) == 0.0

    def test_edge_cardinality(self):
        idx = dft_index_set(0.0, np.arctan(25.0 / 900.0), NT, SP)
        assert 3 <= len(idx) <= 5

    def test_disjoint_angles_disjoint_sets(self):
        a = dft_index_set(-0.4, 0.05, NT, SP)
        b = dft_index_set(0.4, 0.05, NT, SP)
        assert not set(a) & set(b)

    def test_clamp_warns(self):
        with pytest.warns(UserWarning, match="clipped"):
            dft_index_set(np.pi / 2, 0.2, NT, 0.8)

    def test_sorted_within_range(self):
        idx = dft_index_set(0.3, 0.1, NT, SP)
        assert list(idx) == sorted(idx)
        assert min(idx) >= 0 and max(idx) < NT


class TestAnalyticRank:
    def test_broadside_zero_cos(self):
        assert analytic_rank(np.pi / 2, 0.3, NT, SP) == pytest.approx(0.0)

    def test_decreases_with_distance(self):
        vals = [analytic_rank(0.0, np.arctan(25.0 / d), NT, SP)
                for d in range(300, 901, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_eigen_count_within_two(self):
        for dist in (300, 500, 700, 900):
            delta = np.arctan(25.0 / dist)
            closed = analytic_rank(0.0, delta, NT, SP)
            eig = eigen_basis(correlation_matrix(0.0, delta, NT, SP), 0.4).rank
            assert abs(eig - closed) <= 2.0


class TestSampleChannel:
    def _basis(self, nt=32):
        r = correlation_matrix(0.05, 0.06, nt, SP)
        return eigen_basis(r, 0.4)

    def test_zero_gain_gives_zero(self):
        b = self._basis()
        h = sample_channel(b, 0.0, np.eye(2), 2, 7)
        assert not h.any()

    def test_seed_reproducible(self):
        b = self._basis()
        h1 = sample_channel(b, 0.5, np.eye(2), 2, 1234)
        h2 = sample_channel(b, 0.5, np.eye(2), 2, 1234)
        assert np.array_equal(h1, h2)

    def test_non_psd_phi_rejected(self):
        b = self._basis()
        phi = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            sample_channel(b, 1.0, phi, 2, 0)

    def test_second_moment_oracle(self):
        # sample covariance of the stacked per-antenna channels against
        # Phi^T kron (E Lambda E^H); the adjoint stacking carries the
        # cluster-side factor of the Karhunen-Loeve form
        nt, nr, n_draws = 16, 2, 10000
        r = correlation_matrix(0.1, 0.12, nt, SP)
        b = eigen_basis(r, 0.4)
        phi = exponential_user_correlation(0.45, nr)
        target = np.kron(phi.T, reconstruct(b))
        rng = np.random.default_rng(3)
        acc = np.zeros((nt * nr, nt * nr), dtype=complex)
        for _ in range(n_draws):
            v = sample_channel(b, 1.0, phi, nr, rng).conj().T.reshape(-1, order="F")
            acc += np.outer(v, v.conj())
        acc /= n_draws
        rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_energy_lives_on_labeled_beams(self):
        # the sampled channel's power concentrates on the DFT columns of its
        # own angular support
        theta, delta = -0.35, np.arctan(25.0 / 350.0)
        r = correlation_matrix(theta, delta, NT, SP)
        b = eigen_basis(r, 0.4)
        own = dft_columns(NT, dft_index_set(theta, delta, NT, SP))
        rng = np.random.default_rng(5)
        inside = total = 0.0
        for _ in range(200):
            h = sample_channel(b, 1.0, np.eye(2), 2, rng)
            inside += np.linalg.norm(h @ own) ** 2
            total += np.linalg.norm(h) ** 2
        assert inside / total > 0.85


def test_dft_span_tracks_eigen_span_at_256():
    # the DFT submatrix of the angular support falls inside the dominant
    # eigenspace as the array grows; the eigenspace is taken at a fine
    # spectral cutoff so the comparison spans the whole support (the
    # coarser service cutoff clips boundary modes whose tails straddle the
    # interval edge by construction)
    nt = 256
    theta, delta = np.deg2rad(-26.95), np.arctan(25.0 / 350.0)
    r = correlation_matrix(theta, delta, nt, SP)
    b = eigen_basis(r, 1e-3)
    f = dft_columns(nt, dft_index_set(theta, delta, nt, SP))
    q, _ = np.linalg.qr(f)
    s = np.linalg.svd(b.vectors.conj().T @ q[:, :f.shape[1]], compute_uv=False)
    k = min(b.rank, f.shape[1])
    angles = np.arccos(np.clip(s[:k], -1.0, 1.0))
    assert angles.max() <= 0.2
