import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iassr_sim import harness as H
from iassr_sim.power import (AllocationProblem, CenterLink, EdgeLink, _sum_capacity_fn,
                             allocate, capacity_center, capacity_edge,
                             evaluate_candidate, waterfill)
from iassr_sim.scenario import default_scenario


class TestCapacities:
    def test_edge_zero_power(self):
        assert capacity_edge([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_edge_single_bit(self):
        assert capacity_edge([1.0], [1.0]) == pytest.approx(1.0)

    def test_edge_reference(self):
        assert capacity_edge([3.0, 1.0], [1.0, 1.0]) == pytest.approx(3.0)

    def test_center_zero_power(self):
        assert capacity_center([1.0, 1.0], 1.0, [0.0, 0.0]) == 0.0

    def test_center_reference(self):
        assert capacity_center([1.0, 1.0], 1.0, [1.0, 1.0]) == pytest.approx(2.0)

    def test_center_decreases_with_noise(self):
        a = capacity_center([1.0, 1.0], 1.0, [2.0, 2.0])
        b = capacity_center([2.0, 2.0], 1.0, [2.0, 2.0])
        assert b < a


class TestWaterfill:
    def test_symmetric(self):
        p, mu = waterfill([1.0, 1.0], 2.0)
        assert np.allclose(p, [1.0, 1.0])
        assert mu == pytest.approx(0.5)

    def test_kkt_reference(self):
        p, mu = waterfill([2.0, 1.0], 0.5)
        assert np.allclose(p, [0.5, 0.0], atol=1e-9)
        assert 1.0 / mu == pytest.approx(1.0, abs=1e-9)

    def test_single_stream(self):
        p, _ = waterfill([3.0], 5.0)
        assert p[0] == pytest.approx(5.0)

    def test_zero_budget(self):
        p, mu = waterfill([1.0, 2.0], 0.0)
        assert not p.any()
        assert mu == np.inf

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            waterfill([1.0, 0.0], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12),
           st.floats(1e-9, 1e9))
    def test_budget_and_slackness(self, lam, budget):
        lam = np.asarray(lam)
        p, mu = waterfill(lam, budget)
        scale = max(budget, 1.0)
        assert abs(p.sum() - budget) <= 1e-9 * scale
        active = p > 0
        resid = np.abs(p[active] - (1.0 / mu - 1.0 / lam[active]))
        if resid.size:
            assert resid.max() <= 1e-9 * max(1.0 / mu, 1.0)

    @staticmethod
    def _assert_kkt(lam, budget):
        """Budget and slackness at 1e-12 relative to the water volume
        k * level (the budget plus the active streams' 1/lambda): the powers
        are differences level - 1/lambda, so that is the scale their
        rounding error takes."""
        p, mu = waterfill(lam, budget)
        level = 1.0 / mu
        active = p > 0
        volume = active.sum() * level
        assert np.all(p >= 0)
        assert active.any()
        assert abs(p.sum() - budget) <= 1e-12 * volume
        assert np.max(np.abs(p[active] - (level - 1.0 / lam[active]))) <= 1e-12 * level
        assert np.all(1.0 / lam[~active] >= level * (1.0 - 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-12.0, 6.0), min_size=1, max_size=24),
           st.floats(-3.0, 15.0))
    def test_kkt_across_twelve_decades(self, log_lam, log_budget):
        self._assert_kkt(10.0 ** np.asarray(log_lam), 10.0 ** log_budget)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-12.0, 6.0), min_size=1, max_size=4),
           st.lists(st.integers(1, 6), min_size=4, max_size=4),
           st.floats(-3.0, 15.0))
    def test_kkt_on_tied_eigenvalues(self, log_lam, repeats, log_budget):
        lam = np.repeat(10.0 ** np.asarray(log_lam), repeats[:len(log_lam)])
        np.random.default_rng(len(lam)).shuffle(lam)
        self._assert_kkt(lam, 10.0 ** log_budget)

    def test_tied_streams_share_the_budget_equally(self):
        p, mu = waterfill(np.full(7, 3e-9), 1e9)
        assert np.all(p == p[0])
        assert p.sum() == pytest.approx(1e9, rel=1e-12)

    def test_matches_closed_form_oracle(self):
        # oracle: sort channels, grow the active set analytically
        rng = np.random.default_rng(7)
        for _ in range(25):
            lam = rng.uniform(0.05, 20.0, size=rng.integers(1, 9))
            budget = float(rng.uniform(0.01, 50.0))
            inv = np.sort(1.0 / lam)
            level = None
            for k in range(lam.size, 0, -1):
                cand = (budget + inv[:k].sum()) / k
                if cand >= inv[k - 1]:
                    level = cand
                    break
            expect = np.clip(level - 1.0 / lam, 0.0, None)
            p, _ = waterfill(lam, budget)
            assert np.allclose(p, expect, atol=1e-8 * max(budget, 1.0))


def _toy_problem(sigma=0.0, n_center=2, gains=(1.0, 0.8), lam=((0.9, 0.4), (0.7,))):
    centers = [CenterLink(key=f"c{i}", gain=gains[i],
                          interference_eigs=np.full(2, sigma),
                          noise_variance=1.0, n_streams=2)
               for i in range(n_center)]
    edges = [EdgeLink(key=("e", i), eigenvalues=np.asarray(v))
             for i, v in enumerate(lam)]
    return AllocationProblem(center_links=centers, edge_links=edges)


class TestAllocate:
    def test_zero_power(self):
        alloc = allocate(_toy_problem(), 0.0, 1e-3)
        assert alloc.sum_capacity == 0.0
        assert alloc.p_cent == 0.0

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            allocate(_toy_problem(), 1.0, 0.0)

    def test_budget_respected(self):
        alloc = allocate(_toy_problem(sigma=0.3), 10.0, 1e-5)
        spent = 4 * alloc.p_cent + sum(v.sum() for v in alloc.edge_powers.values())
        assert spent <= 10.0 + 1e-9

    def test_matches_joint_waterfill_without_coupling(self):
        # with no cross-center interference and center gains folded into
        # equivalent eigenvalues, one common level is optimal when the
        # center streams are interchangeable with the edge streams
        gains = (1.0, 1.0)
        lam_edge = (1.0, 1.0, 1.0)
        prob = AllocationProblem(
            center_links=[CenterLink(key="c", gain=1.0,
                                     interference_eigs=np.zeros(2),
                                     noise_variance=1.0, n_streams=2)],
            edge_links=[EdgeLink(key=("e", 0), eigenvalues=np.asarray(lam_edge))],
        )
        total = 7.0
        alloc = allocate(prob, total, 1e-7 * total)
        # all five streams have unit gain: the joint optimum is a flat split
        p_joint, _ = waterfill(np.ones(5), total)
        expect = capacity_edge(np.ones(5), p_joint)
        assert alloc.sum_capacity == pytest.approx(expect, rel=1e-4)

    def test_beats_equal_power_baseline(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = tuple(tuple(rng.uniform(0.1, 3.0, size=2)) for _ in range(3))
            prob = _toy_problem(sigma=float(rng.uniform(0.0, 1.0)), lam=lam)
            total = float(rng.uniform(1.0, 30.0))
            alloc = allocate(prob, total, 1e-5 * total)
            n_streams = 4 + sum(np.asarray(l).size for l in lam)
            flat = total / n_streams
            base = evaluate_candidate(prob, total, 4, flat)
            # replace edge water-filling with the flat split for the baseline
            cap = base.sum_capacity
            cap -= sum(base.edge_capacities.values())
            for link in prob.edge_links:
                cap += capacity_edge(link.eigenvalues,
                                     np.full(np.asarray(link.eigenvalues).size, flat))
            assert alloc.sum_capacity >= cap - 1e-9

    def test_within_one_percent_of_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob = _toy_problem(sigma=float(rng.uniform(0.05, 2.0)),
                                lam=(tuple(rng.uniform(0.1, 2.0, 3)),))
            total = float(rng.uniform(2.0, 40.0))
            alloc = allocate(prob, total, 1e-4 * total / 4)
            grid = max(evaluate_candidate(prob, total, 4, g).sum_capacity
                       for g in np.linspace(0.0, total / 4, 1000))
            assert alloc.sum_capacity >= grid * (1.0 - 0.01)

    def test_flat_edge_gives_every_stream_the_center_level(self):
        prob = _toy_problem(sigma=0.3)
        alloc = evaluate_candidate(prob, 10.0, 4, 0.7, flat_edge=True)
        assert all(np.all(v == 0.7) for v in alloc.edge_powers.values())
        expect = sum(capacity_edge(l.eigenvalues, np.full(np.size(l.eigenvalues), 0.7))
                     for l in prob.edge_links)
        assert sum(alloc.edge_capacities.values()) == pytest.approx(expect, rel=1e-12)

    def test_golden_without_centers_is_waterfill(self):
        prob = AllocationProblem(center_links=[], edge_links=[
            EdgeLink(key=("e", 0), eigenvalues=np.array([2.0, 1.0, 0.5]))])
        total = 5.0
        alloc = allocate(prob, total, 1e-6)
        p, _ = waterfill(np.array([2.0, 1.0, 0.5]), total)
        assert alloc.sum_capacity == pytest.approx(
            capacity_edge([2.0, 1.0, 0.5], p), rel=1e-12)


@st.composite
def _problems(draw):
    """Random allocation problems: 0-3 center links and 0-3 edge links,
    with at least one link."""
    n_center = draw(st.integers(0, 3))
    n_edge = draw(st.integers(0 if n_center else 1, 3))
    centers = []
    for i in range(n_center):
        n = draw(st.integers(1, 3))
        sigma = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        centers.append(CenterLink(key=f"c{i}", gain=draw(st.floats(0.05, 5.0)),
                                  interference_eigs=np.asarray(sigma),
                                  noise_variance=draw(st.floats(0.1, 2.0)), n_streams=n))
    edges = []
    for i in range(n_edge):
        log_lam = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
        edges.append(EdgeLink(key=("e", i), eigenvalues=10.0 ** np.asarray(log_lam)))
    return AllocationProblem(center_links=centers, edge_links=edges)


def _n_center(problem):
    return sum(l.n_streams for l in problem.center_links)


class TestSearchScore:
    @settings(max_examples=300, deadline=None)
    @given(_problems(), st.floats(1e-3, 1e3),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    def test_score_is_the_sum_capacity(self, problem, total, frac):
        # frac 1 puts every watt on the center streams: a zero edge budget
        n_center = _n_center(problem)
        p_cent = frac * total / n_center if n_center else 0.0
        score = _sum_capacity_fn(problem, total, n_center)(p_cent)
        expect = evaluate_candidate(problem, total, n_center, p_cent).sum_capacity
        assert score == pytest.approx(expect, rel=1e-12, abs=0.0)
        # on links of fewer than 8 streams the score adds in the same order
        # as evaluate_candidate, so the search's comparisons are the ones
        # full evaluations would make
        assert score == expect

    def test_zero_edge_budget_scores_the_center_alone(self):
        problem = _toy_problem(sigma=0.3)
        score = _sum_capacity_fn(problem, 8.0, 4)(2.0)
        alloc = evaluate_candidate(problem, 8.0, 4, 2.0)
        assert not any(v.any() for v in alloc.edge_powers.values())
        assert score == pytest.approx(sum(alloc.center_capacities.values()), rel=1e-12)


def _two_point_search(problem, total_power, eps):
    """The search as it stood before the scalar score: both interior points
    evaluated in full on every iteration, the best allocation visited kept."""
    n_center = _n_center(problem)
    lo, hi = 0.0, total_power / n_center
    best = evaluate_candidate(problem, total_power, n_center, 0.0)
    while hi - lo >= eps:
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        a1 = evaluate_candidate(problem, total_power, n_center, m1)
        a2 = evaluate_candidate(problem, total_power, n_center, m2)
        for cand in (a1, a2):
            if cand.sum_capacity > best.sum_capacity:
                best = cand
        if a1.sum_capacity > a2.sum_capacity:
            hi = m2
        else:
            lo = m1
    mid = evaluate_candidate(problem, total_power, n_center, 0.5 * (lo + hi))
    return mid if mid.sum_capacity > best.sum_capacity else best


def _assert_same_search(problem, total, eps):
    alloc = allocate(problem, total, eps)
    ref = _two_point_search(problem, total, eps)
    assert abs(alloc.p_cent - ref.p_cent) <= eps
    assert alloc.sum_capacity == pytest.approx(ref.sum_capacity, rel=1e-12, abs=0.0)


class TestSearchRegression:
    @settings(max_examples=150, deadline=None)
    @given(_problems().filter(lambda p: p.center_links), st.floats(1e-2, 1e3),
           st.sampled_from([1e-2, 1e-4, 1e-6]))
    def test_random_problems(self, problem, total, eps_rel):
        _assert_same_search(problem, total, eps_rel * total / _n_center(problem))

    def test_ties_move_the_lower_end(self):
        # a center gain so weak that 1 + gain^2 p rounds to 1 below about
        # 0.7 of the bracket: both first probes score exactly 0, and only
        # moving the lower end on a tie finds the levels that score above 0
        problem = AllocationProblem(center_links=[CenterLink(
            key="c", gain=np.sqrt(1.57e-25), interference_eigs=np.zeros(1),
            noise_variance=1.0, n_streams=1)], edge_links=[])
        alloc = allocate(problem, 1e9, 1e5)
        assert alloc.p_cent > 0.7e9 and alloc.sum_capacity > 0
        _assert_same_search(problem, 1e9, 1e5)

    def test_channel_scale_problems(self):
        # edge eigenvalues of about 1e-10 to 1e-8 and budgets of 1e7 to 1e13,
        # drawn from the bundled scenario's own links
        config, clusters = default_scenario()
        geometry = H.build_geometry(config, clusters)
        plan = H.build_plan(geometry, "iassr")
        for t in range(3):
            links = H.solve_links(geometry, plan, H.draw_channels(geometry, 41, t))
            problem = H.allocation_problem(plan, links, config.noise_variance)
            for snr in (0.0, 20.0, 40.0):
                total = config.power_for_snr(snr)
                _assert_same_search(problem, total,
                                    total / _n_center(problem) * H.GOLDEN_EPS_REL)
