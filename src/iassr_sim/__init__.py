"""Link-level simulator for cooperative multi-cell massive MIMO downlink
with two-stage precoding: interference alignment for the shared cell-edge
area and soft space reuse for the cell centers."""

from .scenario import (ClusterSpec, ClusterState, ScenarioConfig,
                       default_scenario, load_scenario, dump_scenario)
from .channel import (EigenBasis, analytic_rank, correlation_matrix,
                      dft_index_set, eigen_basis, sample_channel)
from .prebeam import Prebeamformer, center_prebeam, dft_columns, edge_prebeam
from .ia import (DofAllocation, IaSolution, dof_search, effective_edge_channel,
                 ia_decoders, ia_precoders)
from .precode import ZfPrecoder, zf_inner
from .power import (AllocationProblem, CenterLink, EdgeLink, PowerAllocation,
                    allocate, capacity_center, capacity_edge, waterfill)
from .training import (TrainingPlan, design_training, estimate_noise_cov,
                       ls_estimate_center, ls_estimate_edge)
from .division import divide_clusters, effective_rate, ia_efficient, overhead_factor
from .harness import (ExperimentSpec, SystemGeometry, build_geometry, build_plan,
                      de_baseline, draw_channels, evaluate_rates, run, solve_links)

__version__ = "0.1.0"
