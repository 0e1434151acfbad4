import pytest
from hypothesis import given, settings, strategies as st

from iassr_sim.division import divide_clusters, overhead_factor

# (dims, nr) -> cooperative alignment pays off, from the published table
EFFICIENCY_ROWS = [
    ((2, 2, 2), (1, 1, 1), True),
    ((3, 3, 3), (2, 1, 1), True),
    ((5, 3, 3), (2, 1, 1), False),
    ((4, 4, 4), (2, 2, 2), True),
    ((5, 4, 4), (2, 2, 2), True),
    ((7, 4, 4), (2, 2, 2), False),
]


def ia_efficient(streams, dims) -> bool:
    """Cooperative alignment pays off when it carries more streams than the
    best single BS could."""
    return sum(streams) > max(dims)


@pytest.mark.parametrize("dims,streams,expected", EFFICIENCY_ROWS)
def test_ia_efficiency_published_column(dims, streams, expected):
    assert ia_efficient(streams, dims) is expected


class TestOverheadFactor:
    def test_long_blocks_approach_one(self):
        a = overhead_factor("edge", (2, 2, 2), 3, 2, 16, 4.0, 10 ** 9)
        assert a == pytest.approx(1.0, abs=1e-5)

    def test_floor_at_zero(self):
        assert overhead_factor("edge", (4, 4, 4), 3, 2, 16, 4.0, 10) == 0.0

    def test_reference_edge_value(self):
        a = overhead_factor("edge", (2, 2, 2), 3, 2, 16, 4.0, 250)
        assert a == pytest.approx(0.4, abs=1e-12)

    def test_center_needs_training_length(self):
        with pytest.raises(ValueError):
            overhead_factor("center", 6, 3, 2, 16, 4.0, 250)
        a = overhead_factor("center", 6, 3, 2, 16, 4.0, 250, train_len=18)
        assert a == pytest.approx(1.0 - 18 / 250 - 576 / 1000, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            overhead_factor("other", 6, 3, 2, 16, 4.0, 250, train_len=18)


class TestDivideClusters:
    def _cand(self, streams, dims, alpha_e=1.0, alphas_c=(1.0, 1.0, 1.0)):
        return {"edge_streams": streams, "edge_alpha": alpha_e,
                "center_dims": dims, "center_alphas": list(alphas_c)}

    def test_unweighted_efficient_goes_edge(self):
        out = divide_clusters({"x": self._cand((1, 1, 1), (2, 2, 2))})
        assert out["x"] is None

    def test_unweighted_inefficient_goes_best_center(self):
        out = divide_clusters({"x": self._cand((2, 1, 1), (5, 3, 3))})
        assert out["x"] == 0

    def test_zero_edge_fraction_forces_center(self):
        out = divide_clusters({"x": self._cand((1, 1, 1), (2, 2, 2), alpha_e=0.0)})
        assert out["x"] is not None

    def test_center_tie_goes_to_lowest_bs(self):
        out = divide_clusters({"x": self._cand((1, 1, 1), (4, 4, 4))})
        assert out["x"] == 0

    @pytest.mark.parametrize("dims,streams,expected", EFFICIENCY_ROWS)
    def test_matches_efficiency_column_at_unit_overhead(self, dims, streams, expected):
        out = divide_clusters({"x": self._cand(streams, dims)})
        assert (out["x"] is None) is expected

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 100.0))
    def test_scale_invariance(self, scale):
        cand = self._cand((2, 1, 1), (3, 3, 3), alpha_e=0.7,
                          alphas_c=(0.9, 0.8, 0.85))
        base = divide_clusters({"x": cand})
        scaled = dict(cand)
        scaled["edge_alpha"] = cand["edge_alpha"] * scale
        scaled["center_alphas"] = [a * scale for a in cand["center_alphas"]]
        assert divide_clusters({"x": scaled}) == base

    def test_capacity_criterion(self):
        out = divide_clusters(
            {"x": {"edge_capacity": 5.0, "center_capacities": [4.0, 4.5, 1.0]}},
            criterion="capacity")
        assert out["x"] is None
        out = divide_clusters(
            {"x": {"edge_capacity": 4.0, "center_capacities": [4.0, 4.5, 1.0]}},
            criterion="capacity")
        assert out["x"] == 1

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            divide_clusters({"x": {}}, criterion="other")
