"""Experiment pipeline: scenario geometry, per-scheme service plans, seeded
Monte Carlo trials, and the CSV emitters behind every figure.

Schemes
-------
iassr        cooperative alignment for the edge area, soft space reuse with
             a common low power level for the centers, golden-section split
de           every cluster served by its closest BS on beams orthogonal to
             the whole system, equal power per stream
pure_ia      every cluster treated as an edge cluster
pure_jsdm    every cluster treated as a center cluster of its closest BS at
             a single power tier
equal_power  the iassr plan with the optimizer replaced by a uniform split
comp_bound   interference-free capacity upper bound (not a transmission
             scheme; labeled separately in the rate figures)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channel as ch
from . import division, ia, power, precode, prebeam, training
from .scenario import (ClusterSpec, ScenarioConfig, bs_positions,
                       cluster_state)

__all__ = [
    "SystemGeometry",
    "ServicePlan",
    "TrialLinks",
    "RateReport",
    "ExperimentSpec",
    "TrialError",
    "build_geometry",
    "build_plan",
    "adaptive_assignment",
    "draw_channels",
    "solve_links",
    "evaluate_rates",
    "allocation_problem",
    "comp_bound_spectra",
    "comp_bound_rates",
    "mse_trial",
    "run",
    "write_csv",
    "FIGURES",
]

LEAKAGE_LIMIT = 1e-8
ZF_RESIDUAL_LIMIT = 1e-9
BUDGET_LIMIT = 1e-9
GOLDEN_EPS_REL = 1e-4  # golden-section bracket width, relative to the per-stream cap


class TrialError(RuntimeError):
    """A per-trial sanity check failed; the trial is reported, not hidden."""


# ---------------------------------------------------------------------------
# geometry


@dataclass
class SystemGeometry:
    config: ScenarioConfig
    clusters: list
    states: list
    index_sets: dict      # (ci, bs) -> tuple of DFT indices (empty if unseen)
    bases: dict           # (ci, bs) -> EigenBasis for visible pairs
    ids: list

    def idx(self, cluster_id) -> int:
        return self.ids.index(cluster_id)


def build_geometry(config: ScenarioConfig, clusters) -> SystemGeometry:
    """Evaluate every cluster at every BS: angles, path gains, DFT supports
    and eigenbases. This is the expensive, trial-independent step."""
    states = [cluster_state(config, c) for c in clusters]
    index_sets, visible, angles = {}, [], []
    for ci, st in enumerate(states):
        for bs in range(config.num_bs):
            if not st.visible[bs]:
                index_sets[(ci, bs)] = ()
                continue
            theta, delta = st.aod[bs], st.spread[bs]
            index_sets[(ci, bs)] = ch.dft_index_set(theta, delta, config.nt,
                                                    config.spacing_ratio)
            visible.append((ci, bs))
            angles.append((theta, delta))
    bases = dict(zip(visible, ch.eigen_bases(angles, config.nt, config.spacing_ratio,
                                             config.eigen_threshold)))
    return SystemGeometry(config=config, clusters=list(clusters), states=states,
                          index_sets=index_sets, bases=bases,
                          ids=[c.id for c in clusters])


# ---------------------------------------------------------------------------
# service plans


@dataclass(frozen=True)
class ServicePlan:
    scheme: str
    assignment: dict                     # cid -> home BS, None for the edge area
    prebeams: dict                       # (cid, bs) -> Prebeamformer
    edge_streams: dict                   # cid -> (S1, S2, S3), a proper allocation
    center_rows: dict                    # cid -> served row indices

    def edge_ids(self):
        return [cid for cid, a in self.assignment.items() if a is None]

    def center_ids(self, bs=None):
        return [cid for cid, a in self.assignment.items()
                if a is not None and (bs is None or a == bs)]

    def home_bs(self, cid) -> int:
        return self.assignment[cid]

    def center_dim(self, cid) -> int:
        return self.prebeams[(cid, self.home_bs(cid))].rank

    def bs_center_max(self):
        out = [0, 0, 0]
        for bs in range(3):
            for cid in self.center_ids(bs):
                out[bs] = max(out[bs], self.center_dim(cid))
        return tuple(out)


def _served_rows(k_users, nr, n_streams):
    """Row choice when fewer streams than receive antennas: one antenna per
    user first, so service degrades by blocking users last."""
    order = [u * nr + a for a in range(nr) for u in range(k_users)]
    return tuple(sorted(order[:n_streams]))


def geometric_assignment(geometry: SystemGeometry):
    return {st.spec.id: st.home_bs for st in geometry.states}


def _exclude_all_dims(geometry: SystemGeometry):
    dims = {}
    n = len(geometry.clusters)
    for ci, spec in enumerate(geometry.clusters):
        row = []
        for bs in range(3):
            own = set(geometry.index_sets[(ci, bs)])
            for cj in range(n):
                if cj != ci:
                    own -= set(geometry.index_sets[(cj, bs)])
            row.append(len(own))
        dims[spec.id] = tuple(row)
    return dims


def build_plan(geometry: SystemGeometry, scheme: str, assignment=None) -> ServicePlan:
    """The scheme's service plan: assignment, prebeams, and the streams of
    each cluster. An edge cluster takes the best proper allocation on its
    prebeam dimensions (``ia.realizable_allocation``), once per geometry."""
    cfg = geometry.config
    n = len(geometry.clusters)
    if assignment is None:
        if scheme in ("iassr", "equal_power"):
            assignment = geometric_assignment(geometry)
        elif scheme in ("de", "pure_jsdm"):
            assignment = {st.spec.id: int(np.argmin(st.distance))
                          for st in geometry.states}
        elif scheme == "pure_ia":
            assignment = {c.id: None for c in geometry.clusters}
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    assignment = dict(assignment)

    prebeams, edge_streams, center_rows = {}, {}, {}
    edge_idx = [geometry.idx(cid) for cid, a in assignment.items() if a is None]

    for ci, spec in enumerate(geometry.clusters):
        cid = spec.id
        home = assignment[cid]
        if home is None:
            if spec.num_users != 3:
                raise ValueError("edge clusters need one user per BS (3)")
            for bs in range(3):
                others = [geometry.index_sets[(cj, bs)] for cj in range(n) if cj != ci]
                prebeams[(cid, bs)] = prebeam.edge_prebeam(
                    cfg.nt, geometry.index_sets[(ci, bs)], others, bs=bs, cluster_id=cid)
            dims = tuple(prebeams[(cid, bs)].rank for bs in range(3))
            edge_streams[cid] = ia.realizable_allocation(*dims, cfg.nr).streams
        else:
            if scheme == "de":
                excl = [geometry.index_sets[(cj, home)] for cj in range(n) if cj != ci]
            else:
                # soft space reuse: same-cell centers plus the whole edge area
                # (pure_jsdm has no edge area)
                same = [geometry.idx(c2) for c2, a2 in assignment.items()
                        if a2 == home and geometry.idx(c2) != ci]
                excl = [geometry.index_sets[(cj, home)] for cj in same + edge_idx]
            prebeams[(cid, home)] = prebeam.center_prebeam(
                cfg.nt, geometry.index_sets[(ci, home)], excl, bs=home, cluster_id=cid)
            k_rows = spec.num_users * cfg.nr
            s = min(prebeams[(cid, home)].rank, k_rows)
            center_rows[cid] = _served_rows(spec.num_users, cfg.nr, s)
    return ServicePlan(scheme=scheme, assignment=assignment, prebeams=prebeams,
                       edge_streams=edge_streams, center_rows=center_rows)


def _center_rule_dim(geometry, ci, bs, assignment):
    """Soft-reuse dimension of cluster ci if it were a center of cell bs,
    with every other cluster held at its current assignment."""
    own = set(geometry.index_sets[(ci, bs)])
    if not own:
        return 0
    for other in geometry.clusters:
        cj = geometry.idx(other.id)
        if cj == ci:
            continue
        a = assignment[other.id]
        if a is None or a == bs:
            own -= set(geometry.index_sets[(cj, bs)])
    return len(own)


def adaptive_assignment(geometry: SystemGeometry, coherence_t: int):
    """Effective-DoF division: one ascending-id pass weighing the aligned
    stream count (full-exclusion beams, triple feedback) against the best
    single-cell soft-reuse dimension, each discounted by its share of the
    coherence block."""
    cfg = geometry.config
    dims = _exclude_all_dims(geometry)
    assignment = geometric_assignment(geometry)
    for spec in geometry.clusters:
        cid = spec.id
        ci = geometry.idx(cid)
        m_edge = dims[cid]
        streams = ia.dof_search(*m_edge, cfg.nr).streams
        alpha_edge = division.overhead_factor(
            "edge", m_edge, spec.num_users, cfg.nr, cfg.quant_bits_q,
            cfg.feedback_rate_f, coherence_t)
        center_dims, center_alphas = [], []
        for bs in range(3):
            m_bs = _center_rule_dim(geometry, ci, bs, assignment)
            center_dims.append(m_bs)
            others = [0, 0, 0]
            for other in geometry.clusters:
                if other.id == cid:
                    continue
                b = assignment[other.id]
                if b is not None:
                    others[b] = max(others[b], _center_rule_dim(
                        geometry, geometry.idx(other.id), b, assignment))
            others[bs] = max(others[bs], m_bs)
            center_alphas.append(division.overhead_factor(
                "center", m_bs, spec.num_users, cfg.nr, cfg.quant_bits_q,
                cfg.feedback_rate_f, coherence_t, train_len=sum(others)))
        choice = division.divide_clusters({cid: {
            "edge_streams": streams,
            "edge_alpha": alpha_edge,
            "center_dims": center_dims,
            "center_alphas": center_alphas,
        }}, criterion="dof")
        assignment[cid] = choice[cid]
    return assignment


# ---------------------------------------------------------------------------
# channel realizations and per-trial link solutions


def trial_seed_tuple(base_seed, trial, *extra):
    return (int(base_seed), int(trial)) + tuple(int(x) for x in extra)


def draw_channels(geometry: SystemGeometry, base_seed, trial):
    """Per-user channel matrices for every visible (cluster, BS) pair.

    One seeded generator per trial, consumed in a fixed link order, so a
    rerun with the same base seed regenerates every matrix bit for bit.
    """
    cfg = geometry.config
    phi = ch.exponential_user_correlation(cfg.user_corr_rho, cfg.nr)
    if np.allclose(phi, np.eye(cfg.nr)):
        phi = None  # uncorrelated receive antennas: skip the square root
    rng = np.random.default_rng(np.random.SeedSequence(int(base_seed) + int(trial)))
    out = {}
    for ci, st in enumerate(geometry.states):
        for bs in range(3):
            if not st.visible[bs]:
                continue
            basis = geometry.bases[(ci, bs)]
            for u in range(st.spec.num_users):
                out[(ci, u, bs)] = ch.sample_channel(basis, st.beta[bs], phi, cfg.nr, rng)
    return out


def _stacked(geometry, channels, ci, bs):
    st = geometry.states[ci]
    return np.concatenate([channels[(ci, u, bs)] for u in range(st.spec.num_users)], axis=0)


@dataclass
class CenterSolution:
    gain: float
    interference_eigs: np.ndarray
    n_streams: int
    zf_residual: float


@dataclass
class TrialLinks:
    edge: dict = field(default_factory=dict)    # cid -> list of (bs, eigenvalues)
    center: dict = field(default_factory=dict)  # cid -> CenterSolution
    leakage: dict = field(default_factory=dict)


def _edge_channels(geometry, plan, channels, cid):
    """The 3x3 effective channels of an edge cluster: ``[k][bs]`` is user
    k's channel from BS bs through the plan's prebeam (zero where unseen)."""
    ci, nr = geometry.idx(cid), geometry.config.nr
    pre = [plan.prebeams[(cid, bs)] for bs in range(3)]
    return [[channels[(ci, k, bs)] @ pre[bs].matrix if (ci, k, bs) in channels
             else np.zeros((nr, pre[bs].rank))
             for bs in range(3)] for k in range(3)]


def _aligned(table, cid, eff, streams):
    """``ia.ia_precoders`` for one edge cluster, solved at most once per
    ``table``.

    An edge cluster's prebeams exclude every other cluster whatever the
    assignment, so within one channel realization its alignment depends only
    on ``(cid, streams)``; ``table`` maps that key to the solution or to the
    failure's type and arguments. A failure (``ia.AlignmentError`` or
    ``LinAlgError``) is raised afresh on every read: keeping the exception
    object would keep its traceback and the frames it references.
    """
    key = (cid, tuple(streams))
    if key not in table:
        try:
            table[key] = ia.ia_precoders(eff, ia.DofAllocation(key[1]))
        except (ia.AlignmentError, np.linalg.LinAlgError) as exc:
            table[key] = (type(exc), exc.args)
    entry = table[key]
    if isinstance(entry, tuple):
        raise entry[0](*entry[1])
    return entry


def _edge_link_eigs(sol, eff, streams):
    """(bs, eigenvalues) of each active BS's aligned direct link."""
    per_bs = []
    for bs in range(3):
        if streams[bs] == 0:
            continue
        link = ia.effective_edge_channel(sol.decoders[bs], eff[bs][bs], sol.precoders[bs])
        per_bs.append((bs, np.linalg.svd(link, compute_uv=False) ** 2))
    return per_bs


def solve_links(geometry: SystemGeometry, plan: ServicePlan, channels,
                table=None) -> TrialLinks:
    """Alignment and inner precoding for one channel realization. The output
    is power-independent: link eigenvalues for the edge side, the equalized
    gain plus interference spectrum for the center side. ``table`` is the
    alignment table (see ``_aligned``) shared by every solve on these
    channels; without one the solve keeps its own. The plan is only read,
    so a solve depends on nothing but the plan and ``channels``.

    Every edge cluster aligns at the plan's allocation; a failed alignment
    raises ``TrialError`` and aborts the trial, whatever the scheme.
    """
    table = {} if table is None else table
    links = TrialLinks()
    for cid in plan.edge_ids():
        eff = _edge_channels(geometry, plan, channels, cid)
        streams = plan.edge_streams[cid]
        try:
            sol = _aligned(table, cid, eff, streams)
        except (ia.AlignmentError, np.linalg.LinAlgError) as exc:
            raise TrialError(f"alignment failed for {cid}: {exc}") from exc
        if sol.leakage > LEAKAGE_LIMIT:
            raise TrialError(f"alignment leakage {sol.leakage:.2e} for {cid}")
        links.leakage[cid] = sol.leakage
        links.edge[cid] = _edge_link_eigs(sol, eff, streams)

    for cid in plan.center_ids():
        ci = geometry.idx(cid)
        home = plan.home_bs(cid)
        rows = np.array(plan.center_rows[cid], dtype=int)
        if rows.size == 0:
            links.center[cid] = CenterSolution(0.0, np.zeros(0), 0, 0.0)
            continue
        hbar = _stacked(geometry, channels, ci, home) @ plan.prebeams[(cid, home)].matrix
        zf = None
        while rows.size:
            try:
                zf = precode.zf_inner(hbar[rows])
                break
            except np.linalg.LinAlgError:
                # degenerate realization: shed the last served antenna and
                # equalize what remains
                rows = rows[:-1]
        if zf is None:
            links.center[cid] = CenterSolution(0.0, np.zeros(0), 0, 0.0)
            continue
        resid = float(np.linalg.norm(hbar[rows] @ zf.matrix - zf.gain * np.eye(rows.size)))
        if resid > ZF_RESIDUAL_LIMIT * max(zf.gain, 1.0):
            raise TrialError(f"ZF residual {resid:.2e} for {cid}")
        cross = []
        if plan.scheme != "de":
            for other in plan.center_ids():
                if other == cid or plan.home_bs(other) == home:
                    continue
                bs2 = plan.home_bs(other)
                if not geometry.states[ci].visible[bs2]:
                    continue
                g = _stacked(geometry, channels, ci, bs2) @ plan.prebeams[(other, bs2)].matrix
                cross.append(g[rows])
        if cross:
            sigma = np.zeros((rows.size, rows.size), dtype=complex)
            for g in cross:
                sigma += g @ g.conj().T
            sig_eigs = np.clip(np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T)), 0.0, None)
        else:
            sig_eigs = np.zeros(rows.size)
        links.center[cid] = CenterSolution(gain=zf.gain, interference_eigs=sig_eigs[::-1],
                                           n_streams=rows.size, zf_residual=resid)
    return links


# ---------------------------------------------------------------------------
# rates


@dataclass
class RateReport:
    per_cluster: dict
    sum_capacity: float
    p_cent: float = 0.0
    split_factor: float = 0.0


def allocation_problem(plan: ServicePlan, links: TrialLinks, noise_variance=1.0):
    center_links = [power.CenterLink(key=cid, gain=links.center[cid].gain,
                                     interference_eigs=links.center[cid].interference_eigs,
                                     noise_variance=noise_variance,
                                     n_streams=links.center[cid].n_streams)
                    for cid in sorted(links.center)]
    edge_links = [power.EdgeLink(key=(cid, bs), eigenvalues=eig)
                  for cid in sorted(links.edge) for bs, eig in links.edge[cid]]
    return power.AllocationProblem(center_links=center_links, edge_links=edge_links)


def _total_streams(links: TrialLinks) -> int:
    n = sum(links.center[c].n_streams for c in links.center)
    n += sum(int(np.asarray(e).size) for c in links.edge for _, e in links.edge[c])
    return n


def evaluate_rates(geometry, plan, links, total_power, policy,
                   fixed_p_cent=None) -> RateReport:
    """Cluster sum rates under one power policy.

    policy="golden": the two-level optimizer (degenerates to plain
    water-filling when the plan has no center links).
    policy="equal": one power for every stream in the plan.
    policy="fixed": center streams pinned at ``fixed_p_cent``, edge streams
    water-filled on the remainder.
    """
    cfg = geometry.config
    problem = allocation_problem(plan, links, cfg.noise_variance)
    n_center = sum(l.n_streams for l in problem.center_links)
    if policy == "golden":
        upper = total_power / n_center if n_center else total_power
        alloc = power.allocate(problem, total_power, eps=max(upper * GOLDEN_EPS_REL, 1e-300))
    elif policy in ("equal", "fixed"):
        if policy == "fixed" and fixed_p_cent is None:
            raise ValueError("fixed policy needs fixed_p_cent")
        if policy == "equal":
            p_cent = total_power / max(_total_streams(links), 1)
        else:
            p_cent = min(fixed_p_cent, total_power / n_center) if n_center else 0.0
        alloc = power.evaluate_candidate(problem, total_power, n_center, p_cent,
                                         flat_edge=policy == "equal")
    else:
        raise ValueError(f"unknown policy {policy!r}")

    spent = alloc.p_cent * n_center + sum(float(np.sum(v)) for v in alloc.edge_powers.values())
    if spent > total_power * (1.0 + BUDGET_LIMIT) + 1e-12:
        raise TrialError(f"power budget violated: {spent:.6e} > {total_power:.6e}")

    per_cluster = {}
    for cid, c in alloc.center_capacities.items():
        per_cluster[cid] = per_cluster.get(cid, 0.0) + c
    for (cid, _bs), c in alloc.edge_capacities.items():
        per_cluster[cid] = per_cluster.get(cid, 0.0) + c
    return RateReport(per_cluster=per_cluster, sum_capacity=alloc.sum_capacity,
                      p_cent=alloc.p_cent, split_factor=alloc.split_factor)


def comp_bound_spectra(geometry: SystemGeometry, channels):
    """(cluster id, squared singular values of its full channel from its
    strongest BS) for every cluster; the power-free part of
    ``comp_bound_rates``."""
    per_key = []
    for ci, st in enumerate(geometry.states):
        bs = int(np.argmax(np.where(st.visible, st.beta, 0.0)))
        h = _stacked(geometry, channels, ci, bs)
        per_key.append((st.spec.id, np.linalg.svd(h, compute_uv=False) ** 2))
    return per_key


def comp_bound_rates(per_key, total_power) -> RateReport:
    """Interference-free upper bound: every cluster rides its full channel
    from its strongest BS (``comp_bound_spectra``) and all streams share one
    water-filling. This is a bound for orientation, not a scheme from the
    reference system."""
    lam = np.concatenate([e for _, e in per_key])
    p, _ = power.waterfill(lam, total_power)
    per_cluster, pos = {}, 0
    for cid, eig in per_key:
        per_cluster[cid] = power.capacity_edge(eig, p[pos:pos + eig.size])
        pos += eig.size
    return RateReport(per_cluster=per_cluster, sum_capacity=sum(per_cluster.values()))


# ---------------------------------------------------------------------------
# overhead factors for a solved plan


def plan_alphas(geometry: SystemGeometry, plan: ServicePlan, coherence_t: int):
    """Per-cluster data fraction of the coherence block under the plan's
    training and feedback accounting."""
    cfg = geometry.config
    out = {}
    if plan.scheme == "de":
        # one BS per cluster and full exclusion: training reuses one block
        # whose length is the largest served dimension anywhere
        dims = {cid: plan.center_dim(cid) for cid in plan.center_ids()}
        t_train = max(dims.values(), default=0)
        for cid, m in dims.items():
            spec = geometry.clusters[geometry.idx(cid)]
            out[cid] = division.overhead_factor(
                "center", m, spec.num_users, cfg.nr, cfg.quant_bits_q,
                cfg.feedback_rate_f, coherence_t, train_len=t_train)
        return out
    bs_max = plan.bs_center_max()
    tc = sum(bs_max)
    for cid in plan.edge_ids():
        spec = geometry.clusters[geometry.idx(cid)]
        dims = tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
        out[cid] = division.overhead_factor(
            "edge", dims, spec.num_users, cfg.nr, cfg.quant_bits_q,
            cfg.feedback_rate_f, coherence_t)
    for cid in plan.center_ids():
        spec = geometry.clusters[geometry.idx(cid)]
        out[cid] = division.overhead_factor(
            "center", plan.center_dim(cid), spec.num_users, cfg.nr,
            cfg.quant_bits_q, cfg.feedback_rate_f, coherence_t, train_len=tc)
    return out


# ---------------------------------------------------------------------------
# training experiment


def mse_trial(geometry: SystemGeometry, plan: ServicePlan, channels, pilot_powers,
              base_seed, trial):
    """One end-to-end training pass per pilot power; absolute per-entry
    MSEs by class, one ``(edge_mse, center_mse)`` pair per power.

    Pilots are scaled by sqrt(pilot_power); the LS estimates divide it out,
    so the estimation error is companion leakage plus noise shrunk by the
    pilot power. Nothing but the scaling depends on the power, so the
    training plan, the effective channels and the noise blocks are built
    once for all powers.
    """
    cfg = geometry.config
    edge_dims = {cid: tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
                 for cid in plan.edge_ids()}
    center_dims = {cid: (plan.home_bs(cid), plan.center_dim(cid))
                   for cid in plan.center_ids()}
    plan_t = training.design_training(edge_dims, center_dims)
    effective = {}

    def eff(ci, bs, cid):
        """Cluster ci's stacked channel from BS bs through cid's prebeam."""
        if (ci, bs, cid) not in effective:
            effective[(ci, bs, cid)] = (_stacked(geometry, channels, ci, bs)
                                        @ plan.prebeams[(cid, bs)].matrix)
        return effective[(ci, bs, cid)]

    def draw_noise(tag, ci, symbols):
        rows = geometry.states[ci].spec.num_users * cfg.nr
        rng = np.random.default_rng(
            np.random.SeedSequence(trial_seed_tuple(base_seed, trial, tag, ci)))
        shape = (rows, symbols)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    # edge phase: all BSs send the edge blocks simultaneously
    edge_rx = []  # (cid, [(g, pilots)], noise, [(bs, true channel)])
    for cid in sorted(plan.edge_ids()):
        ci = geometry.idx(cid)
        terms = [(eff(ci, bs, other), plan_t.edge_matrix(other, bs))
                 for other in plan.edge_ids() for bs in range(3)
                 if plan.prebeams[(other, bs)].rank and geometry.states[ci].visible[bs]]
        targets = [(bs, eff(ci, bs, cid)) for bs in range(3) if plan_t.edge_dims[cid][bs]]
        edge_rx.append((cid, terms, draw_noise(901, ci, plan_t.edge_len), targets))
    # center phase
    center_rx = []  # (cid, [(g, pilots)], noise, true channel)
    for cid in sorted(plan.center_ids()):
        ci = geometry.idx(cid)
        terms = [(eff(ci, plan.home_bs(other), other), plan_t.center_matrix(other))
                 for other in plan.center_ids()
                 if geometry.states[ci].visible[plan.home_bs(other)]
                 and plan.center_dim(other) != 0]
        center_rx.append((cid, terms, draw_noise(902, ci, plan_t.center_len),
                          eff(ci, plan.home_bs(cid), cid)))

    out = []
    for pilot_power in pilot_powers:
        amp = np.sqrt(pilot_power)
        edge_err, center_err = [], []
        for cid, terms, w, targets in edge_rx:
            y = _received(terms, w, amp)
            for bs, true in targets:
                est = training.ls_estimate_edge(y, plan_t, cid, bs)
                edge_err.append(np.mean(np.abs(est - true) ** 2))
        for cid, terms, w, true in center_rx:
            est = training.ls_estimate_center(_received(terms, w, amp), plan_t, cid)
            center_err.append(np.mean(np.abs(est - true) ** 2))
        out.append((float(np.mean(edge_err)) if edge_err else np.nan,
                    float(np.mean(center_err)) if center_err else np.nan))
    return out


def _received(terms, noise, amp):
    """Received training block, normalized by the pilot amplitude."""
    y = np.zeros(noise.shape, dtype=complex)
    for g, pilots in terms:
        y += amp * g @ pilots
    return y / amp + noise / amp


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentSpec:
    figure: str
    config: ScenarioConfig
    clusters: list
    trials: int = 100
    base_seed: int = 1234
    out_dir: Path = Path(".")
    snr_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    t_grid: tuple = (100, 150, 200, 250, 300, 400, 500, 700, 1000)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.snr_grid or not self.t_grid:
            raise ValueError("sweep grids must be non-empty")


def _row(sweep, scheme, metric, values):
    """One CSV row: the mean and standard error of ``values``, one value per
    contributing trial (``nan,0,0`` when none contributed)."""
    if not values:
        return (sweep, scheme, metric, float("nan"), 0.0, 0)
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return (sweep, scheme, metric, float(arr.mean()), stderr, len(values))


def write_csv(path, rows):
    """Rows of (sweep, scheme, metric, mean, stderr, trials); UTF-8, LF."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["sweep,scheme,metric,mean,stderr,trials"]
    for sweep, scheme, metric, mean, stderr, trials in rows:
        lines.append(f"{sweep},{scheme},{metric},{mean:.10g},{stderr:.10g},{trials}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _class_means(report: RateReport, classes, alphas=None):
    """Average cluster rate per geometric class (optionally weighted by the
    per-cluster data fraction). ``classes`` maps cluster id to its area
    (home BS, or None for the edge area), independent of how a scheme
    serves it."""
    edge, center = [], []
    for cid, rate in report.per_cluster.items():
        r = rate * (alphas[cid] if alphas else 1.0)
        (edge if classes[cid] is None else center).append(r)
    return {"edge": float(np.mean(edge)) if edge else 0.0,
            "center": float(np.mean(center)) if center else 0.0}


def _effective_sum(report: RateReport, alphas):
    """Sum of the cluster rates, each discounted by its data fraction of the
    coherence block (``plan_alphas``)."""
    return sum(report.per_cluster[cid] * alphas[cid] for cid in report.per_cluster)


def _trials(spec: ExperimentSpec, geometry, plans, per_trial):
    """The Monte Carlo loop of every fixed-geometry figure.

    Each trial draws its channels once and solves each distinct plan of
    ``plans`` (name -> ServicePlan) once: a plan object given under two
    names is solved once and its links handed out under both. Then
    ``per_trial(t, channels, links)``, with ``links`` keyed like ``plans``,
    reduces the trial. A trial that raises ``TrialError`` in the solve or in
    ``per_trial`` is dropped whole (``_abort_rows`` counts it). Returns what
    ``per_trial`` returned for each kept trial, in trial order.
    """
    kept = []
    for t in range(spec.trials):
        channels = draw_channels(geometry, spec.base_seed, t)
        solved = {}  # id(plan) -> links
        try:
            for plan in plans.values():
                if id(plan) not in solved:
                    solved[id(plan)] = solve_links(geometry, plan, channels)
            links = {name: solved[id(plan)] for name, plan in plans.items()}
            kept.append(per_trial(t, channels, links))
        except TrialError:
            continue
    return kept


def _abort_rows(spec: ExperimentSpec, kept):
    """The diagnostic row that opens a figure's CSV when ``_trials``
    dropped any trial."""
    aborted = spec.trials - len(kept)
    if not aborted:
        return []
    return [("diagnostic", "harness", "aborted_trials", float(aborted), 0.0, aborted)]


def run(spec: ExperimentSpec):
    """Run one figure experiment; returns the list of CSV paths written."""
    if spec.figure not in FIGURES:
        raise ValueError(f"unknown figure id {spec.figure!r}")
    return FIGURES[spec.figure](spec)


def _fig2(spec: ExperimentSpec):
    cfg = spec.config
    rows = []
    for dist in range(300, 901, 50):
        delta = np.arctan(25.0 / dist)
        closed = ch.analytic_rank(0.0, delta, cfg.nt, cfg.spacing_ratio)
        r = ch.correlation_matrix(0.0, delta, cfg.nt, cfg.spacing_ratio)
        eig = ch.eigen_basis(r, cfg.eigen_threshold).rank
        rows.append((dist, "model", "analytic_rank", closed, 0.0, 1))
        rows.append((dist, "model", "eigen_rank", float(eig), 0.0, 1))
    return [write_csv(Path(spec.out_dir) / "fig2.csv", rows)]


def _fig3(spec: ExperimentSpec):
    geometry = build_geometry(spec.config, spec.clusters)
    plan = build_plan(geometry, "iassr")
    plan_de = build_plan(geometry, "de")
    rows = []

    def state_rank(cid, bs):
        return geometry.bases[(geometry.idx(cid), bs)].rank

    edge_ids, center_ids = plan.edge_ids(), plan.center_ids()
    r_center = [state_rank(cid, plan.home_bs(cid)) for cid in center_ids]
    r_edge = [state_rank(cid, bs) for cid in edge_ids for bs in range(3)]
    m_center_ssr = [plan.center_dim(cid) for cid in center_ids]
    m_center_de = [plan_de.center_dim(cid) for cid in center_ids
                   if plan_de.assignment[cid] == plan.assignment[cid]]
    m_edge = [plan.prebeams[(cid, bs)].rank for cid in edge_ids for bs in range(3)]
    s_edge_iassr = [sum(plan.edge_streams[cid]) for cid in edge_ids]
    s_edge_de = [len(plan_de.center_rows[cid]) for cid in edge_ids]

    for name, vals in [
        ("rank_r_center", r_center), ("rank_r_edge", r_edge),
        ("rank_M_center", m_center_ssr), ("rank_M_edge", m_edge),
        ("streams_S_edge", s_edge_iassr),
    ]:
        rows.append(_row("default", "iassr", name, vals))
    rows.append(_row("default", "de", "rank_M_center", m_center_de))
    rows.append(_row("default", "de", "streams_S_edge", s_edge_de))
    med_ssr = float(np.median(m_center_ssr))
    med_de = float(np.median(m_center_de))
    rows.append(("default", "iassr", "median_M_center", med_ssr, 0.0, len(m_center_ssr)))
    rows.append(("default", "de", "median_M_center", med_de, 0.0, len(m_center_de)))
    return [write_csv(Path(spec.out_dir) / "fig3.csv", rows)]


def _rate_sweep(spec: ExperimentSpec, metric_class: str):
    """Shared machinery of the rate-versus-SNR figures."""
    geometry = build_geometry(spec.config, spec.clusters)
    plans = {s: build_plan(geometry, s) for s in ("iassr", "de")}
    plans["equal_power"] = plans["iassr"]  # the same links under a flat split
    classes = geometric_assignment(geometry)
    schemes = ("iassr", "de", "equal_power", "comp_bound")

    def trial(t, channels, links):
        bound_spectra = comp_bound_spectra(geometry, channels)
        out = {}
        for snr in spec.snr_grid:
            p_total = spec.config.power_for_snr(snr)
            for s, policy in (("iassr", "golden"), ("de", "equal"), ("equal_power", "equal")):
                rep = evaluate_rates(geometry, plans[s], links[s], p_total, policy)
                out[(snr, s)] = _class_means(rep, classes)[metric_class]
            rep = comp_bound_rates(bound_spectra, p_total)
            out[(snr, "comp_bound")] = _class_means(rep, classes)[metric_class]
        return out

    kept = _trials(spec, geometry, plans, trial)
    return _abort_rows(spec, kept) + [
        _row(snr, s, f"rate_{metric_class}_per_cluster", [r[(snr, s)] for r in kept])
        for snr in spec.snr_grid for s in schemes]


def _fig4(spec):
    return [write_csv(Path(spec.out_dir) / "fig4.csv", _rate_sweep(spec, "center"))]


def _fig5(spec):
    return [write_csv(Path(spec.out_dir) / "fig5.csv", _rate_sweep(spec, "edge"))]


def _fig6(spec: ExperimentSpec, snr_db=30.0):
    """Effective rates versus coherence length at fixed SNR; the raw rates
    are simulated once and the overhead factors swept analytically."""
    geometry = build_geometry(spec.config, spec.clusters)
    plans = {s: build_plan(geometry, s) for s in ("iassr", "de")}
    classes = geometric_assignment(geometry)
    p_total = spec.config.power_for_snr(snr_db)
    policies = {"iassr": "golden", "de": "equal"}
    kept = _trials(spec, geometry, plans, lambda t, channels, links: {
        s: evaluate_rates(geometry, plans[s], links[s], p_total, policy)
        for s, policy in policies.items()})
    rows = _abort_rows(spec, kept)
    for t_len in spec.t_grid:
        for s in plans:
            alphas = plan_alphas(geometry, plans[s], t_len)
            means = [_class_means(reports[s], classes, alphas) for reports in kept]
            for cls in ("center", "edge"):
                rows.append(_row(t_len, s, f"effective_rate_{cls}_per_cluster",
                                 [m[cls] for m in means]))
    return [write_csv(Path(spec.out_dir) / "fig6.csv", rows)]


def _random_clusters(config, rng):
    """Three clusters uniform in each sector (for the division figure)."""
    pos = bs_positions(config)
    bores = np.deg2rad([270.0, 30.0, 150.0]) + np.pi
    clusters = []
    for cell in range(3):
        for k in range(3):
            dist = rng.uniform(150.0, 950.0)
            az = rng.uniform(-np.pi / 7, np.pi / 7)
            ang = bores[cell] + az
            p = pos[cell] + dist * np.array([np.cos(ang), np.sin(ang)])
            clusters.append(ClusterSpec(id=f"r{cell}{k}", position=(float(p[0]), float(p[1]))))
    return clusters


def _capacity_links(geometry, channels, table):
    """The power-free half of the genie division: per cluster, the
    ``(bs, eigenvalues)`` of its full-exclusion aligned links (None if the
    alignment fails) and, per BS, the ``(gain, n_rows)`` of zero-forcing on
    the same beams (None where that option is unavailable)."""
    cfg = geometry.config
    plan = build_plan(geometry, "pure_ia")  # every cluster on full-exclusion beams
    out = {}
    for ci, spec_c in enumerate(geometry.clusters):
        cid = spec_c.id
        streams = plan.edge_streams[cid]
        pre = [plan.prebeams[(cid, bs)] for bs in range(3)]
        edge = []
        if sum(streams) > 0:
            eff = _edge_channels(geometry, plan, channels, cid)
            try:
                edge = _edge_link_eigs(_aligned(table, cid, eff, streams), eff, streams)
            except (RuntimeError, ValueError):
                edge = None
        singles = []
        for bs in range(3):
            if pre[bs].rank == 0 or not geometry.states[ci].visible[bs]:
                singles.append(None)
                continue
            rows = _served_rows(spec_c.num_users, cfg.nr,
                                min(pre[bs].rank, spec_c.num_users * cfg.nr))
            hbar = _stacked(geometry, channels, ci, bs) @ pre[bs].matrix
            try:
                singles.append((precode.zf_inner(hbar[np.array(rows)]).gain, len(rows)))
            except np.linalg.LinAlgError:
                singles.append(None)
        out[cid] = (edge, singles)
    return out


def _capacity_assignment(cap_links, p_ref):
    """Genie division: per cluster compare the aligned-edge capacity with
    the best single-BS capacity on this realization, both at a reference
    per-stream power and full-exclusion beams."""
    assignment = {}
    for cid, (edge, singles) in cap_links.items():
        edge_cap = 0.0
        for _bs, eig in edge or ():
            edge_cap += power.capacity_edge(eig, np.full(eig.size, p_ref))
        center_caps = [0.0 if single is None else
                       power.capacity_center(np.ones(single[1]), single[0],
                                             np.full(single[1], p_ref))
                       for single in singles]
        choice = division.divide_clusters({cid: {
            "edge_capacity": edge_cap,
            "center_capacities": center_caps,
        }}, criterion="capacity")
        assignment[cid] = choice[cid]
    return assignment


def _fig7(spec: ExperimentSpec, coherence_t=250):
    """DoF-based against capacity-based division on random clusters. Each
    trial aligns every (cluster, streams) pair at most once and solves each
    distinct assignment once for all SNRs."""
    rows_acc = {(snr, crit, met): [] for snr in spec.snr_grid
                for crit in ("dof", "capacity") for met in ("rate", "effective_rate")}
    for t in range(spec.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(trial_seed_tuple(spec.base_seed, t, 700)))
        clusters = _random_clusters(spec.config, rng)
        geometry = build_geometry(spec.config, clusters)
        channels = draw_channels(geometry, spec.base_seed, t)
        table = {}
        cap_links = _capacity_links(geometry, channels, table)
        dof_assignment = adaptive_assignment(geometry, coherence_t)
        n_ref = max(sum(min(geometry.states[ci].spec.num_users * spec.config.nr, 6)
                        for ci in range(len(clusters))), 1)
        solved = {}  # assignment -> (plan, links, alphas), or None if unsolvable
        for snr in spec.snr_grid:
            p_total = spec.config.power_for_snr(snr)
            assigns = {
                "dof": dof_assignment,
                "capacity": _capacity_assignment(cap_links, p_total / n_ref),
            }
            for crit, assignment in assigns.items():
                key = frozenset(assignment.items())
                if key not in solved:
                    try:
                        plan = build_plan(geometry, "iassr", assignment)
                        links = solve_links(geometry, plan, channels, table)
                    except (TrialError, RuntimeError, ValueError, np.linalg.LinAlgError):
                        solved[key] = None
                    else:
                        solved[key] = (plan, links, plan_alphas(geometry, plan, coherence_t))
                if solved[key] is None:
                    continue
                plan, links, alphas = solved[key]
                try:
                    rep = evaluate_rates(geometry, plan, links, p_total, "golden")
                except (TrialError, RuntimeError, ValueError, np.linalg.LinAlgError):
                    continue
                rows_acc[(snr, crit, "rate")].append(rep.sum_capacity)
                rows_acc[(snr, crit, "effective_rate")].append(_effective_sum(rep, alphas))
    rows = [_row(snr, f"iassr_{crit}", f"{met}_sum", rows_acc[(snr, crit, met)])
            for snr in spec.snr_grid for crit in ("dof", "capacity")
            for met in ("rate", "effective_rate")]
    return [write_csv(Path(spec.out_dir) / "fig7.csv", rows)]


def _fig8(spec: ExperimentSpec, snrs=(0.0, 20.0, 40.0), n_grid=40):
    geometry = build_geometry(spec.config, spec.clusters)
    plan = build_plan(geometry, "iassr")
    classes = geometric_assignment(geometry)
    grid_metrics = {"center": "rate_center_per_cluster", "edge": "rate_edge_per_cluster",
                    "avg": "rate_avg_per_cluster", "sum": "sum_capacity"}

    def trial(t, channels, links):
        links = links["iassr"]
        n_center = sum(c.n_streams for c in links.center.values())
        out = {}
        for snr in snrs:
            p_total = spec.config.power_for_snr(snr)
            p_max = p_total / max(n_center, 1)
            for g in range(n_grid):
                p_cent = p_max * 10.0 ** (-3.0 + 3.0 * g / (n_grid - 1))
                rep = evaluate_rates(geometry, plan, links, p_total, "fixed",
                                     fixed_p_cent=p_cent)
                means = _class_means(rep, classes)
                out[(snr, g, "center")] = means["center"]
                out[(snr, g, "edge")] = means["edge"]
                out[(snr, g, "avg")] = 0.5 * (means["center"] + means["edge"])
                out[(snr, g, "sum")] = rep.sum_capacity
                out[(snr, g, "alpha")] = rep.split_factor
            rep = evaluate_rates(geometry, plan, links, p_total, "golden")
            out[(snr, "alg1_split_factor")] = rep.split_factor
            out[(snr, "alg1_sum_capacity")] = rep.sum_capacity
        return out

    kept = _trials(spec, geometry, {"iassr": plan}, trial)
    paths = []
    for snr in snrs:
        rows = _abort_rows(spec, kept)
        for g in range(n_grid):
            a = float(np.mean([r[(snr, g, "alpha")] for r in kept]))
            rows += [_row(f"{a:.6g}", "iassr", name, [r[(snr, g, met)] for r in kept])
                     for met, name in grid_metrics.items()]
        rows += [_row("optimum", "iassr", met, [r[(snr, met)] for r in kept])
                 for met in ("alg1_split_factor", "alg1_sum_capacity")]
        paths.append(write_csv(Path(spec.out_dir) / f"fig8_snr{int(snr)}.csv", rows))
    return paths


def _fig9(spec: ExperimentSpec, snr_db=30.0):
    """Adaptive division against the two pure strategies over the block
    length (block lengths below the training span of the largest plans are
    skipped; the division degenerates there). Block lengths that divide the
    clusters alike share one plan, solved and evaluated once per trial."""
    geometry = build_geometry(spec.config, spec.clusters)
    p_total = spec.config.power_for_snr(snr_db)
    t_grid = tuple(t for t in spec.t_grid if t >= 250) or (250, 550)
    plans = {s: build_plan(geometry, s) for s in ("pure_ia", "pure_jsdm")}
    adaptive = {}  # block length -> its assignment, which names its plan
    for t_len in t_grid:
        assignment = adaptive_assignment(geometry, t_len)
        adaptive[t_len] = key = frozenset(assignment.items())
        if key not in plans:
            plans[key] = build_plan(geometry, "iassr", assignment)
    kept = _trials(spec, geometry, plans, lambda t, channels, links: {
        name: evaluate_rates(geometry, plan, links[name], p_total,
                             "equal" if name == "pure_jsdm" else "golden")
        for name, plan in plans.items()})
    rows = _abort_rows(spec, kept)
    for t_len in t_grid:
        for s, name in (("iassr", adaptive[t_len]), ("pure_ia", "pure_ia"),
                        ("pure_jsdm", "pure_jsdm")):
            alphas = plan_alphas(geometry, plans[name], t_len)
            rows.append(_row(t_len, s, "effective_rate_sum",
                             [_effective_sum(reports[name], alphas) for reports in kept]))
    return [write_csv(Path(spec.out_dir) / "fig9.csv", rows)]


def _fig10(spec: ExperimentSpec):
    """Gain of the two-level power optimizer over a flat split."""
    geometry = build_geometry(spec.config, spec.clusters)
    plan = build_plan(geometry, "iassr")

    def trial(t, channels, links):
        out = {}
        for snr in spec.snr_grid:
            p_total = spec.config.power_for_snr(snr)
            rep = evaluate_rates(geometry, plan, links["iassr"], p_total, "golden")
            out[(snr, "iassr", "sum_capacity")] = rep.sum_capacity
            out[(snr, "iassr", "alg1_split_factor")] = rep.split_factor
            rep = evaluate_rates(geometry, plan, links["iassr"], p_total, "equal")
            out[(snr, "equal_power", "sum_capacity")] = rep.sum_capacity
        return out

    kept = _trials(spec, geometry, {"iassr": plan}, trial)
    keys = [(snr, s, met) for snr in spec.snr_grid
            for s, met in (("iassr", "sum_capacity"), ("equal_power", "sum_capacity"),
                           ("iassr", "alg1_split_factor"))]
    rows = _abort_rows(spec, kept) + [_row(*key, [r[key] for r in kept]) for key in keys]
    return [write_csv(Path(spec.out_dir) / "fig10.csv", rows)]


def _fig11(spec: ExperimentSpec):
    """Channel-training MSE against SNR for both cluster classes."""
    geometry = build_geometry(spec.config, spec.clusters)
    plan = build_plan(geometry, "iassr")
    boost = 10.0 ** (spec.config.pilot_boost_db / 10.0)
    powers = [boost * spec.config.power_for_snr(snr) for snr in spec.snr_grid]
    # training needs no link solve: one (edge, center) MSE pair per SNR
    kept = _trials(spec, geometry, {}, lambda t, channels, links: mse_trial(
        geometry, plan, channels, powers, spec.base_seed, t))
    rows = _abort_rows(spec, kept)
    for i, snr in enumerate(spec.snr_grid):
        for cls, j in (("center", 1), ("edge", 0)):
            rows.append(_row(snr, "iassr", f"mse_{cls}", [pairs[i][j] for pairs in kept]))
    return [write_csv(Path(spec.out_dir) / "fig11.csv", rows)]


FIGURES = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
}
