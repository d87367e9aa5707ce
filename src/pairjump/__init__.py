"""Pair-interaction jump processes on the circle.

Exact event-driven simulation of three pairwise-interacting particle systems
(midpoint alignment, choose-the-leader, and energy-conserving pair rotation),
their kinetic limit equations, stationary pair correlations at finite N, a
finite-state master-equation oracle, and ensemble diagnostics tying the three
routes together.
"""

from .circle import (
    FourierDensity,
    GridDensity,
    NoiseSpec,
    TabulatedNoise,
    UniformNoise,
    VonMisesNoise,
    WrappedNormalNoise,
    density_from_coeffs,
    fourier_coeffs,
    sample_grid_density,
    wrap_angle,
)
from .diagnostics import (
    EnsembleSummary,
    chaos_distance,
    compare_flow,
    iid_chaos_mean,
    iid_chaos_samples,
    summarize,
)
from .invariant import (
    CorrelationProfile,
    gamma_from_noise,
    heat_kernel_family,
    limit_profile,
    pair_correlation_closed,
    pair_correlation_series,
)
from .kinetic import (
    KineticConfig,
    bdg_evolve,
    bdg_gain,
    cl_evolve,
)
from .models import (
    EnsembleResult,
    EventLog,
    ModelSpec,
    SimulationResult,
    kac_state,
    replay,
    replica_rng,
    sample_initial_chaotic,
    sample_kac_state,
    simulate,
    simulate_ensemble,
)
from .oracle import (
    JointDensity,
    TransitionMatrix,
    build_transition,
    marginal,
    pair_difference_profile,
    stationary,
)
from .verify import run_scenario

__version__ = "0.1.0"
