import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iassr_sim import ia
from iassr_sim.ia import (AlignmentError, DofAllocation, InfeasibleAllocation,
                          allocation_feasible, dof_search, effective_edge_channel,
                          ia_decoders, ia_precoders, ranked_allocations)

# published search results: (M1, M2, M3, Nr) -> (sum, triple)
PUBLISHED_TABLE = [
    ((2, 2, 2, 2), 3, (1, 1, 1)),
    ((3, 3, 3, 2), 4, (2, 1, 1)),
    ((5, 3, 3, 2), 4, (2, 1, 1)),
    ((4, 4, 4, 4), 6, (2, 2, 2)),
    ((5, 4, 4, 4), 6, (2, 2, 2)),
    ((7, 4, 4, 4), 6, (2, 2, 2)),
]


@pytest.mark.parametrize("dims_nr,total,triple", PUBLISHED_TABLE)
def test_dof_search_published_rows(dims_nr, total, triple):
    *dims, nr = dims_nr
    alloc = dof_search(*dims, nr)
    assert alloc.total == total
    assert alloc.streams == triple


def _brute_force_best(dims, nr):
    best = []
    best_sum = -1
    for s in itertools.product(*[range(min(d, nr) + 1) for d in dims]):
        if not allocation_feasible(s, dims, nr):
            continue
        if sum(s) > best_sum:
            best_sum = sum(s)
            best = [s]
        elif sum(s) == best_sum:
            best.append(s)
    return best_sum, best


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
       st.integers(1, 4))
def test_dof_search_is_bruteforce_optimal_and_deterministic(dims, nr):
    alloc = dof_search(*dims, nr)
    best_sum, ties = _brute_force_best(dims, nr)
    assert alloc.total == best_sum
    assert alloc.streams in ties
    # deterministic tie-break: lexicographically largest after ranking BSs
    # by descending dimension (original order on rank ties)
    order = sorted(range(3), key=lambda i: (-dims[i], i))
    keyed = max(ties, key=lambda s: tuple(s[i] for i in order))
    assert alloc.streams == keyed
    assert dof_search(*dims, nr).streams == alloc.streams


def test_all_zero_dims():
    assert dof_search(0, 0, 0, 2).streams == (0, 0, 0)


def test_ranked_allocations_descending():
    cands = ranked_allocations(3, 3, 3, 2)
    sums = [c.total for c in cands]
    assert sums == sorted(sums, reverse=True)
    assert cands[0].streams == dof_search(3, 3, 3, 2).streams


def test_ranked_allocations_are_shared_tuples():
    assert ranked_allocations(3, 3, 3, 2) is ranked_allocations(3.0, 3, 3, 2)
    assert isinstance(ranked_allocations(3, 3, 3, 2), tuple)


def _generic_channels(dims, nr, seed):
    rng = np.random.default_rng(seed)
    return [[(rng.standard_normal((nr, dims[i])) + 1j * rng.standard_normal((nr, dims[i])))
             / np.sqrt(2) for i in range(3)] for _ in range(3)]


class TestPrecoders:
    def test_square_symmetric_closed_form(self):
        ch = _generic_channels((2, 2, 2), 2, 11)
        sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
        assert sol.leakage <= 1e-9
        for v in sol.precoders:
            assert np.allclose(v.conj().T @ v, np.eye(1), atol=1e-10)

    def test_infeasible_allocation_rejected(self):
        ch = _generic_channels((2, 2, 2), 2, 3)
        with pytest.raises(ValueError, match="infeasible"):
            ia_precoders(ch, DofAllocation((2, 2, 2)))

    def test_zero_cross_link_contributes_nothing(self):
        ch = _generic_channels((2, 2, 2), 2, 5)
        ch[0][1] = np.zeros((2, 2))
        sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
        assert np.linalg.norm(
            sol.decoders[0].conj().T @ ch[0][1] @ sol.precoders[1]) == 0.0

    def test_projected_closed_form_for_wider_bs(self):
        ch = _generic_channels((3, 2, 2), 2, 17)
        sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
        assert sol.leakage <= 1e-9

    def test_four_antenna_symmetric(self):
        ch = _generic_channels((4, 4, 4), 4, 23)
        sol = ia_precoders(ch, DofAllocation((2, 2, 2)))
        assert sol.leakage <= 1e-9

    def test_single_bs_allocation(self):
        ch = _generic_channels((4, 2, 2), 2, 29)
        sol = ia_precoders(ch, DofAllocation((2, 0, 0)))
        assert sol.leakage == 0.0
        assert sol.precoders[0].shape == (4, 2)
        assert sol.decoders[1].shape == (2, 0)

    def test_accepted_solutions_meet_invariants(self):
        # cross-link suppression and full-rank direct links over many seeds
        for seed in range(100):
            ch = _generic_channels((2, 2, 2), 2, 1000 + seed)
            sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
            for k in range(3):
                for i in range(3):
                    if i == k:
                        continue
                    leak = np.linalg.norm(
                        sol.decoders[k].conj().T @ ch[k][i] @ sol.precoders[i])
                    assert leak <= 1e-8
                link = effective_edge_channel(sol.decoders[k], ch[k][k],
                                              sol.precoders[k])
                assert np.linalg.svd(link, compute_uv=False)[-1] > 1e-6

    def test_asymmetric_feasible_case_in_closed_form(self, monkeypatch):
        # one wide BS makes (2,1,1) constructible: user 1 has as many
        # streams as antennas, so BSs 2 and 3 null it and the rest chains
        monkeypatch.setattr(ia, "_leakage_minimization", _never)
        ch = _generic_channels((4, 3, 3), 2, 77)
        sol = ia_precoders(ch, DofAllocation((2, 1, 1)), tol=1e-9, max_iter=5000)
        assert sol.leakage <= 1e-8
        for i in (1, 2):
            assert np.linalg.norm(ch[0][i] @ sol.precoders[i]) <= 1e-12 * np.linalg.norm(ch[0][i])


def _never(*args, **kwargs):
    raise AssertionError("the iterative solver ran")


def _max_cross(ch):
    return max(np.linalg.norm(ch[k][i]) for k in range(3) for i in range(3) if i != k)


class TestProperness:
    @pytest.mark.parametrize("dims", [(2, 1, 2), (4, 1, 1)])
    def test_improper_triple_fails_before_any_solver(self, dims, monkeypatch):
        # the paper's count admits both; (2,1,2) has 5 variables for 6
        # equations, and on (4,1,1) user 1 has 1 variable for 2 equations
        assert allocation_feasible((1, 1, 1), dims, 2)
        monkeypatch.setattr(ia, "_leakage_minimization", _never)
        with pytest.raises(AlignmentError, match="^improper") as info:
            ia_precoders(_generic_channels(dims, 2, 41), DofAllocation((1, 1, 1)))
        assert info.value.reason == "improper"
        assert isinstance(info.value, RuntimeError)

    @pytest.mark.parametrize("streams,dims,nr", [
        ((1, 1, 1), (2, 2, 2), 2), ((1, 1, 1), (3, 2, 1), 2), ((2, 2, 2), (4, 4, 4), 4)])
    def test_proper_triples_pass_the_screen(self, streams, dims, nr):
        assert ia._proper(streams, dims, nr)
        sol = ia_precoders(_generic_channels(dims, nr, 43), DofAllocation(streams))
        assert sol.leakage <= 1e-9

    def test_a_zero_cross_link_carries_no_equations(self):
        # improper with all six equation sets; user 1 sees neither cross
        # link, so only four sets remain and they are proper
        assert not ia._proper((1, 1, 1), (4, 1, 1), 2)
        ch = _generic_channels((4, 1, 1), 2, 47)
        ch[0][1] = np.zeros((2, 1))
        ch[0][2] = np.zeros((2, 1))
        sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
        assert sol.leakage <= 1e-9

    def test_three_antenna_users_still_iterate(self, monkeypatch):
        calls = []
        solve = ia._leakage_minimization
        monkeypatch.setattr(ia, "_leakage_minimization",
                            lambda *args: calls.append(1) or solve(*args))
        sol = ia_precoders(_generic_channels((2, 2, 2), 3, 53), DofAllocation((1, 1, 1)))
        assert calls == [1]
        assert sol.leakage <= 1e-9


# every proper one-stream dimension triple with two receive antennas that
# some M_j = 1 keeps out of the square construction
CHAIN_DIMS = [d for d in itertools.product(range(1, 7), repeat=3)
              if 1 in d and ia._proper((1, 1, 1), d, 2)]


class TestLinearChain:
    def test_chain_dims_are_the_expected_family(self):
        # exactly one M_j = 1, the others at least 2 and summing to 5 or more
        assert CHAIN_DIMS
        for d in CHAIN_DIMS:
            rest = sorted(d)[1:]
            assert d.count(1) == 1 and rest[0] >= 2 and sum(rest) >= 5

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHAIN_DIMS), st.integers(0, 2**32 - 1))
    def test_aligns_exactly_on_random_channels(self, dims, seed):
        ch = _generic_channels(dims, 2, seed)
        sol = ia._linear_chain(ch, (1, 1, 1), 1e-9)
        assert sol is not None
        assert sol.leakage <= 1e-12 * _max_cross(ch)
        for k in range(3):
            effective_edge_channel(sol.decoders[k], ch[k][k], sol.precoders[k])
            assert np.allclose(sol.precoders[k].conj().T @ sol.precoders[k], 1.0)
        again = ia_precoders(ch, DofAllocation((1, 1, 1)))
        assert again.leakage == sol.leakage

    @pytest.mark.parametrize("dims", [(3, 2, 1), (1, 2, 3)])
    def test_matches_the_iteration_where_the_solution_is_unique(self, dims):
        ch = _generic_channels(dims, 2, 59)
        exact = ia._linear_chain(ch, (1, 1, 1), 1e-9)
        start = [ia._direct_basis(ch, i, 1) for i in range(3)]
        iterated = ia._leakage_minimization(ch, (1, 1, 1), start, 1e-12, 20000)
        for a, b in zip(exact.precoders + exact.decoders,
                        iterated.precoders + iterated.decoders):
            assert abs(np.vdot(a[:, 0], b[:, 0])) == pytest.approx(1.0, abs=1e-6)

    def test_refuses_what_it_cannot_align(self):
        # improper (1,1,4), reached here past the screen: both one-antenna
        # BSs are fixed, so user 3 sees two unaligned interference vectors
        assert ia._linear_chain(_generic_channels((1, 1, 4), 2, 67), (1, 1, 1), 1e-9) is None

    def test_spare_dimensions_serve_the_own_user(self):
        # on (1,3,3) BS 2 keeps two dimensions after its first row: the
        # chain gives it the one with the largest direct gain
        ch = _generic_channels((1, 3, 3), 2, 61)
        sol = ia._linear_chain(ch, (1, 1, 1), 1e-9)
        u = sol.decoders[1]
        row = sol.decoders[2].conj().T @ ch[2][1]  # user 3 aligns BS 2 with BS 1
        free = ia._null_basis([row / np.linalg.norm(row)], 3)
        best = np.linalg.norm(u.conj().T @ ch[1][1] @ free)
        assert abs((u.conj().T @ ch[1][1] @ sol.precoders[1]).item()) == pytest.approx(best)


class TestAlignmentError:
    @pytest.mark.parametrize("exc", [AlignmentError("improper", "streams (1, 1, 1)"),
                                     AlignmentError("no convergence"),
                                     InfeasibleAllocation("infeasible", "streams (2, 2, 2)")])
    def test_rebuilds_from_type_and_args(self, exc):
        again = type(exc)(*exc.args)
        assert (type(again), again.reason, again.detail, str(again)) == \
            (type(exc), exc.reason, exc.detail, str(exc))
        assert exc.reason in AlignmentError.REASONS
        assert all(isinstance(a, str) for a in exc.args)

    def test_infeasible_is_a_value_error_too(self):
        assert issubclass(InfeasibleAllocation, ValueError)
        assert issubclass(InfeasibleAllocation, AlignmentError)
        assert not issubclass(AlignmentError, ValueError)
        with pytest.raises(InfeasibleAllocation) as info:
            ia_precoders(_generic_channels((2, 2, 2), 2, 3), DofAllocation((2, 2, 2)))
        assert info.value.reason == "infeasible"


class TestDecoders:
    def test_zero_interference_identity_columns(self):
        ch = [[np.zeros((2, 2)) for _ in range(3)] for _ in range(3)]
        pre = [np.zeros((2, 1)) for _ in range(3)]
        dec = ia_decoders(ch, pre, (1, 1, 1))
        for u in dec:
            assert np.allclose(u, np.eye(2, dtype=complex)[:, :1])

    def test_rank_one_interference_complement(self):
        rng = np.random.default_rng(0)
        ch = _generic_channels((2, 2, 2), 2, 9)
        v = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        pre = [np.linalg.qr(v)[0][:, :1]] * 3
        # make the two cross links produce the same received direction
        g = ch[0][1] @ pre[1]
        ch[0][2] = g @ np.linalg.pinv(pre[2])
        dec = ia_decoders(ch, pre, (1, 0, 0))
        assert dec[0].shape == (2, 1)
        assert np.linalg.norm(dec[0].conj().T @ g) <= 1e-10 * np.linalg.norm(g)

    def test_insufficient_nullspace_raises(self):
        ch = _generic_channels((2, 2, 2), 2, 13)
        pre = [np.linalg.qr(np.random.default_rng(1).standard_normal((2, 1))
                            + 0j)[0][:, :1] for _ in range(3)]
        with pytest.raises(RuntimeError, match="alignment failed"):
            ia_decoders(ch, pre, (2, 2, 2))


class TestEffectiveChannel:
    def test_scaling_linearity(self):
        ch = _generic_channels((2, 2, 2), 2, 31)
        sol = ia_precoders(ch, DofAllocation((1, 1, 1)))
        link = effective_edge_channel(sol.decoders[0], ch[0][0], sol.precoders[0])
        link2 = effective_edge_channel(sol.decoders[0], 3.0 * ch[0][0],
                                       sol.precoders[0])
        assert np.allclose(link2, 3.0 * link)

    def test_degenerate_link_raises(self):
        u = np.eye(2, dtype=complex)[:, :1]
        v = np.eye(2, dtype=complex)[:, :1]
        with pytest.raises(RuntimeError, match="degenerate"):
            effective_edge_channel(u, np.zeros((2, 2)), v)
