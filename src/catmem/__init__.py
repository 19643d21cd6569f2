"""Positive-P phase-space simulator for a cat-state optomechanical memory."""

from .model import (DerivedRates, EnsembleResult, GridAxis, GridField,
                    ProtocolSchedule, SystemParams, derive_rates,
                    parse_storage_time)
from .modes import (ModeFunctionSpec, default_write_duration,
                    transfer_amplitude, u_in, u_out)
from .sampling import RNG_BLOCK_SIZE, block_stream, branch_weights, sample_cat
from .engine import protocol_channel, run_ensemble, write_gain
from .signatures import (default_quadrature_axis, default_wigner_grid, is_mixture_falsified,
                         negativity_with_error, p_distribution, reconstruct_density,
                         wigner_estimate, wigner_negativity)
from .oracle import cat_variance, decohered_density, q_parameter, t_p_bound, t_positive
from .experiments import (ExperimentConfig, PRESETS, load_config, preset,
                          run_point, run_sweep)

__version__ = "0.1.0"
