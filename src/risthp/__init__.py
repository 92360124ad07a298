"""Nonlinear and reference precoding for the RIS-aided MIMO broadcast channel."""

from .channel import (ChannelRealization, PathlossModel, ScenarioConfig,
                      draw_realization, laplacian_covariance, los_bs_ris,
                      pathloss_db, steering_vector)
from .gram import (GramDecomposition, decompose, dpc_asymptote, dpc_sum_se,
                   effective_channel, extend_theta, rayleigh_objective)
from .phase_opt import (PhaseConfig, align_phases, heuristic_phases,
                        refine_elementwise, zero_eig_direction)
from .thp import (ThpFilters, build_filters, lq_decompose, modulo,
                  order_users, per_user_se, simulate_transmission,
                  sum_se_asymptote, thp_mse, wrapped_noise_entropy)
from .alloc import Allocation, evaluate_allocation, greedy_allocate
from .baseline import LinearSolution, greedy_allocate_linear, zf_linear
from .sim import RunConfig, ResultRecord, emit_csv, run, uniformity_test

__version__ = "0.1.0"
