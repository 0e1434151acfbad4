"""Network geometry and configuration.

Three BSs sit on a ring around the meeting point of their sectors, each
boresight pointing at the center. Cluster positions are absolute 2-D
coordinates in meters; everything downstream (angles, spreads, path loss,
DFT supports) derives from them.
"""

from __future__ import annotations

import configparser
import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0
SECTOR_HALF_ANGLE = np.pi / 6.0
_CENTER_DISTANCE_M = 350.0

__all__ = [
    "ScenarioConfig",
    "ClusterSpec",
    "ClusterState",
    "bs_positions",
    "bs_boresights",
    "aod_and_spread",
    "path_loss",
    "in_sector",
    "cluster_state",
    "default_scenario",
    "load_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and protocol parameters of the three-sector network."""

    num_bs: int = 3
    nt: int = 128
    nr: int = 2
    spacing_ratio: float = 0.5
    carrier_hz: float = 2.0e9
    cell_radius_m: float = 1000.0
    bs_ring_m: float = 900.0
    noise_variance: float = 1.0
    snr_db: float = 20.0
    coherence_t: int = 250
    feedback_rate_f: float = 4.0
    quant_bits_q: int = 16
    eigen_threshold: float = 0.4
    user_corr_rho: float = 0.0
    pilot_boost_db: float = 10.0
    seed: int = 1234

    def __post_init__(self):
        if self.num_bs != 3:
            raise ValueError("the coordinated area model is three-cell")
        if self.nt < 2 * self.nr:
            raise ValueError("nt must be at least 2*nr")
        if self.spacing_ratio <= 0:
            raise ValueError("spacing_ratio must be positive")
        if self.coherence_t < 1:
            raise ValueError("coherence_t must be at least 1")
        if not 0.0 < self.eigen_threshold < 1.0:
            raise ValueError("eigen_threshold must lie in (0, 1)")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def power_for_snr(self, snr_db: float) -> float:
        """Total transmit power; an SNR is defined as beta_center * P_total
        with beta_center the free-space gain at the center-cluster distance."""
        beta_center = (self.wavelength_m / (4.0 * np.pi * _CENTER_DISTANCE_M)) ** 2
        return 10.0 ** (snr_db / 10.0) / beta_center


@dataclass(frozen=True)
class ClusterSpec:
    """One scattering-ring user cluster."""

    id: str
    position: tuple[float, float]
    ring_radius_m: float = 25.0
    num_users: int = 3

    def __post_init__(self):
        if self.ring_radius_m <= 0:
            raise ValueError("ring_radius_m must be positive")
        if self.num_users < 1:
            raise ValueError("num_users must be at least 1")


@dataclass
class ClusterState:
    """Geometry-derived per-BS quantities for one cluster."""

    spec: ClusterSpec
    aod: np.ndarray          # radians, per BS
    spread: np.ndarray       # radians, per BS
    distance: np.ndarray     # meters, per BS
    beta: np.ndarray         # linear path gain, per BS
    visible: np.ndarray      # bool, inside the BS sector
    home_bs: int | None = None  # center area of this BS; None for the edge area


def bs_positions(config: ScenarioConfig) -> np.ndarray:
    """BS coordinates, shape (3, 2). BS i sits at angle 270, 30, 150 degrees
    on a ring of radius bs_ring_m around the sector meeting point."""
    ang = np.deg2rad([270.0, 30.0, 150.0])
    return config.bs_ring_m * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def bs_boresights(config: ScenarioConfig) -> np.ndarray:
    """Boresight azimuth of each BS array (pointing at the meeting point)."""
    return (np.deg2rad([270.0, 30.0, 150.0]) + np.pi) % (2.0 * np.pi)


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def aod_and_spread(cluster: ClusterSpec, bs_pos, boresight):
    """Angle of departure (relative to broadside) and angular spread of a
    cluster seen from one BS."""
    d = np.asarray(cluster.position, dtype=float) - np.asarray(bs_pos, dtype=float)
    dist = float(np.hypot(d[0], d[1]))
    if dist <= 0.0:
        raise ValueError("cluster coincides with BS")
    theta = float(_wrap(np.arctan2(d[1], d[0]) - boresight))
    delta = float(np.arctan(cluster.ring_radius_m / dist))
    return theta, delta


def path_loss(cluster: ClusterSpec, bs_pos, carrier_hz):
    """Free-space path gain (lambda / 4 pi D)^2."""
    d = np.asarray(cluster.position, dtype=float) - np.asarray(bs_pos, dtype=float)
    dist = float(np.hypot(d[0], d[1]))
    if dist <= 0.0:
        raise ValueError("cluster coincides with BS")
    lam = SPEED_OF_LIGHT / carrier_hz
    return (lam / (4.0 * np.pi * dist)) ** 2


def in_sector(theta: float) -> bool:
    """Sector antennas are modeled as perfectly contained in 60 degrees:
    clusters outside contribute nothing through that BS."""
    return abs(theta) <= SECTOR_HALF_ANGLE + 1e-12


def cluster_state(config: ScenarioConfig, cluster: ClusterSpec) -> ClusterState:
    """Evaluate geometry-derived quantities for every BS."""
    pos = bs_positions(config)
    bores = bs_boresights(config)
    n = config.num_bs
    aod = np.zeros(n)
    spread = np.zeros(n)
    dist = np.zeros(n)
    beta = np.zeros(n)
    vis = np.zeros(n, dtype=bool)
    for i in range(n):
        th, de = aod_and_spread(cluster, pos[i], bores[i])
        aod[i] = th
        spread[i] = de
        dist[i] = np.hypot(*(np.asarray(cluster.position) - pos[i]))
        beta[i] = path_loss(cluster, pos[i], config.carrier_hz)
        vis[i] = in_sector(th)
    # edge area = roughly equidistant from all BSs; otherwise the cluster
    # belongs to the center area of its closest BS
    home = None if dist.min() > 0.75 * config.bs_ring_m else int(np.argmin(dist))
    return ClusterState(spec=cluster, aod=aod, spread=spread, distance=dist,
                        beta=beta, visible=vis, home_bs=home)


# Default scenario. The cluster azimuths below were chosen so the DFT-support
# overlap pattern gives the intended rank/stream relationships: every edge
# cluster keeps exactly 2 private beams at its closest BS (DoF sum 3 under
# cooperative alignment, 2 streams under single-BS service), and center
# clusters lose roughly half of their soft-reuse beams when cross-cell
# supports are also excluded. The numbers are geometry-dependent; see the
# comments in default.cfg.
_DEFAULT_CENTERS = [
    # (home cell, azimuth deg relative to boresight)
    (0, -26.95), (0, -20.10),
    (1, -16.25), (1, +15.25),
    (2, +20.10), (2, +26.95),
]
_DEFAULT_EDGE_RADIUS_M = 47.0
_DEFAULT_EDGE_TWIST_DEG = 5.0


def default_scenario() -> tuple[ScenarioConfig, list[ClusterSpec]]:
    """Bundled three-cell layout: 2 center clusters per cell at 350 m from
    their BS and 3 clusters in the shared edge area (deterministic)."""
    config = ScenarioConfig()
    pos = bs_positions(config)
    bores = bs_boresights(config)
    clusters: list[ClusterSpec] = []
    per_cell_count: dict[int, int] = {}
    for cell, az in _DEFAULT_CENTERS:
        k = per_cell_count.get(cell, 0)
        per_cell_count[cell] = k + 1
        ang = bores[cell] + np.deg2rad(az)
        p = pos[cell] + _CENTER_DISTANCE_M * np.array([np.cos(ang), np.sin(ang)])
        clusters.append(ClusterSpec(id=f"c{cell}{'ab'[k]}", position=(float(p[0]), float(p[1]))))
    bs_ang = np.deg2rad([270.0, 30.0, 150.0])
    for k in range(3):
        ang = bs_ang[k] + np.deg2rad(_DEFAULT_EDGE_TWIST_DEG)
        p = _DEFAULT_EDGE_RADIUS_M * np.array([np.cos(ang), np.sin(ang)])
        clusters.append(ClusterSpec(id=f"e{k}", position=(float(p[0]), float(p[1]))))
    return config, clusters


_SCENARIO_KEYS = {
    "num_bs": int, "nt": int, "nr": int, "spacing_ratio": float,
    "carrier_hz": float, "cell_radius_m": float, "bs_ring_m": float,
    "noise_variance": float, "snr_db": float, "coherence_t": int,
    "feedback_rate_f": float, "quant_bits_q": int, "eigen_threshold": float,
    "user_corr_rho": float, "pilot_boost_db": float, "seed": int,
}


def load_scenario(path) -> tuple[ScenarioConfig, list[ClusterSpec]]:
    """Read a scenario from an INI-style config file."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    parser.read_string(text)
    if "scenario" not in parser:
        raise ValueError(f"{path}: missing [scenario] section")
    kwargs = {}
    for key, cast in _SCENARIO_KEYS.items():
        if key in parser["scenario"]:
            kwargs[key] = cast(parser["scenario"][key])
    config = ScenarioConfig(**kwargs)
    clusters = []
    for name in parser.sections():
        if not name.startswith("cluster."):
            continue
        sec = parser[name]
        x, y = (float(v) for v in sec["position"].split(","))
        clusters.append(ClusterSpec(
            id=name.split(".", 1)[1],
            position=(x, y),
            ring_radius_m=float(sec.get("ring_radius_m", 25.0)),
            num_users=int(sec.get("num_users", 3)),
        ))
    if not clusters:
        raise ValueError(f"{path}: no [cluster.*] sections")
    return config, clusters


def bundled_config_path():
    """Path of the packaged default.cfg."""
    return importlib.resources.files("iassr_sim").joinpath("default.cfg")
