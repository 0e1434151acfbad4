import numpy as np
import pytest

from iassr_sim import training
from iassr_sim.training import (design_training, dft_rows, estimate_noise_cov,
                                ls_estimate_center, ls_estimate_edge)

EDGE_DIMS = {"e0": (2, 2, 2)}
CENTER_DIMS = {"c0": (0, 6), "c1": (1, 6), "c2": (2, 6)}


def test_edge_length_is_sum_of_dims():
    plan = design_training(EDGE_DIMS, {})
    assert plan.edge_len == 6
    assert plan.edge_len_for("e0") == 6


def test_center_length_is_sum_of_maxima():
    plan = design_training({}, CENTER_DIMS)
    assert plan.center_len == 18


def test_cross_bs_edge_blocks_exactly_orthogonal():
    plan = design_training({"e0": (2, 3, 2), "e1": (2, 2, 3)}, {})
    for cid in ("e0", "e1"):
        for i in range(3):
            ti = plan.edge_matrix(cid, i)
            assert np.allclose(ti @ ti.conj().T, np.eye(ti.shape[0]), atol=1e-12)
            for j in range(3):
                if i == j:
                    continue
                tj = plan.edge_matrix(cid, j)
                assert np.max(np.abs(ti @ tj.conj().T)) < 1e-12


def test_cross_bs_center_blocks_exactly_orthogonal():
    plan = design_training({}, {"a": (0, 4), "b": (1, 6), "c": (2, 3)})
    for x in ("a", "b", "c"):
        tx = plan.center_matrix(x)
        assert np.allclose(tx @ tx.conj().T, np.eye(tx.shape[0]), atol=1e-12)
        for y in ("a", "b", "c"):
            if plan.center_dims[x][0] == plan.center_dims[y][0]:
                continue
            ty = plan.center_matrix(y)
            assert np.max(np.abs(tx @ ty.conj().T)) < 1e-12


def _rand(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLsEdge:
    def test_noiseless_exact(self):
        plan = design_training({"e0": (2, 3, 2)}, {})
        rng = np.random.default_rng(0)
        h = {i: _rand((6, plan.edge_dims["e0"][i]), rng) for i in range(3)}
        y = sum(h[i] @ plan.edge_matrix("e0", i) for i in range(3))
        for i in range(3):
            est = ls_estimate_edge(y, plan, "e0", i)
            assert np.max(np.abs(est - h[i])) < 1e-12

    def test_unit_noise_unit_mse(self):
        plan = design_training({"e0": (2, 2, 2)}, {})
        rng = np.random.default_rng(1)
        err = 0.0
        n_trials = 4000
        for _ in range(n_trials):
            n = _rand((2, plan.edge_len), rng) / np.sqrt(2)
            est = ls_estimate_edge(n, plan, "e0", 0)
            err += np.mean(np.abs(est) ** 2)
        assert err / n_trials == pytest.approx(1.0, rel=0.1)

    def test_dimension_mismatch(self):
        plan = design_training({"e0": (2, 2, 2)}, {})
        with pytest.raises(ValueError):
            ls_estimate_edge(np.zeros((2, 5)), plan, "e0", 0)


class TestLsCenter:
    def test_noiseless_exact_with_interference(self):
        plan = design_training({}, {"a": (0, 4), "b": (1, 5)})
        rng = np.random.default_rng(2)
        ha = _rand((6, 4), rng)
        hb_cross = _rand((6, 5), rng)
        y = ha @ plan.center_matrix("a") + hb_cross @ plan.center_matrix("b")
        est = ls_estimate_center(y, plan, "a")
        assert np.max(np.abs(est - ha)) < 1e-12


class TestNoiseCov:
    def test_zero_power_identity(self):
        plan = design_training({}, CENTER_DIMS)
        rng = np.random.default_rng(3)
        y = _rand((6, plan.center_len), rng)
        k = estimate_noise_cov(y, plan, "c0", 0.0)
        assert np.allclose(k, np.eye(6))

    def test_noise_only_clips_to_identity_floor(self):
        plan = design_training({}, CENTER_DIMS)
        rng = np.random.default_rng(4)
        mins = []
        for _ in range(50):
            y = _rand((6, plan.center_len), rng) / np.sqrt(2)
            k = estimate_noise_cov(y, plan, "c0", 0.7)
            w = np.linalg.eigvalsh(k)
            mins.append(w.min())
            assert np.max(np.abs(k - k.conj().T)) < 1e-12
        assert min(mins) >= 1.0 - 1e-9

    def test_planted_interferer_direction_recovered(self):
        # one dominant cross-cell interferer: the top eigenvector of the
        # estimate minus the floor should align with the planted direction
        plan = design_training({}, {"c0": (0, 6), "c1": (1, 6), "c2": (2, 6)})
        rng = np.random.default_rng(5)
        direction = _rand((6, 1), rng)
        direction /= np.linalg.norm(direction)
        angles = []
        for _ in range(100):
            g = 30.0 * direction @ _rand((1, 6), rng)  # rank-one strong link
            y = g @ plan.center_matrix("c1") + _rand((6, plan.center_len), rng) / np.sqrt(2)
            k = estimate_noise_cov(y, plan, "c0", 1.0)
            w, v = np.linalg.eigh(k)
            top = v[:, -1:]
            angles.append(np.arccos(np.clip(np.abs(top.conj().T @ direction), 0, 1)))
        assert np.mean(angles) <= 0.15


def test_dft_rows_unitary():
    f = dft_rows(12, slice(0, 12))
    assert np.allclose(f @ f.conj().T, np.eye(12), atol=1e-12)


class TestPilotBlocks:
    EDGE = {"e0": (2, 3, 2), "e1": (1, 0, 4), "e2": (2, 2, 2)}
    CENTER = {"a": (0, 4), "b": (0, 2), "c": (2, 5)}

    def blocks(self, plan):
        """Every block the plan hands out, under the name it goes by."""
        out = {("edge", cid, bs): plan.edge_matrix(cid, bs)
               for cid in plan.edge_dims for bs in range(3)}
        out.update({("center_block", bs): plan.center_block(bs) for bs in range(3)})
        out.update({("center", cid): plan.center_matrix(cid) for cid in plan.center_dims})
        return out

    def test_blocks_are_read_only(self):
        for name, block in self.blocks(design_training(self.EDGE, self.CENTER)).items():
            assert not block.flags.writeable, name
            if block.size:
                with pytest.raises(ValueError):
                    block[0, 0] = 0.0

    def test_dft_rows_runs_once_per_block(self, monkeypatch):
        calls = []
        build = training.dft_rows

        def counting(n, row_slice):
            calls.append((n, row_slice.start, row_slice.stop))
            return build(n, row_slice)

        monkeypatch.setattr(training, "dft_rows", counting)
        plan = design_training(self.EDGE, self.CENTER)
        built = len(calls)
        assert built <= 3 * len(self.EDGE) + 3
        y_edge = np.ones((2, plan.edge_len), dtype=complex)
        y_center = np.ones((2, plan.center_len), dtype=complex)
        for _ in range(3):
            self.blocks(plan)
            for cid in self.EDGE:
                for bs in range(3):
                    ls_estimate_edge(y_edge, plan, cid, bs)
            for cid in self.CENTER:
                ls_estimate_center(y_center, plan, cid)
                estimate_noise_cov(y_center, plan, cid, 1.0)
        assert len(calls) == built

    def test_blocks_equal_dft_rows(self):
        plan = design_training(self.EDGE, self.CENTER)
        assert plan.edge_len == 7 and plan.center_len == 9
        for cid, dims in self.EDGE.items():
            for bs in range(3):
                start = sum(dims[:bs])
                rows = dft_rows(sum(dims), slice(start, start + dims[bs]))
                padded = np.zeros((dims[bs], plan.edge_len), dtype=complex)
                padded[:, :sum(dims)] = rows
                got = plan.edge_matrix(cid, bs)
                assert got.shape == padded.shape and got.tobytes() == padded.tobytes()
        for bs, start in enumerate((0, 4, 4)):
            rows = dft_rows(9, slice(start, start + plan.bs_max[bs]))
            assert plan.center_block(bs).tobytes() == rows.tobytes()
        for cid, (bs, m) in self.CENTER.items():
            start = sum(plan.bs_max[:bs])
            rows = dft_rows(9, slice(start, start + m))
            assert plan.center_matrix(cid).tobytes() == rows.tobytes()
