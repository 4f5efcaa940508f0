"""attractorlab: numerical laboratory for attracting-set construction and
noncompactness-decay estimation in dissipative wave dynamics."""

__version__ = "0.1.0"

from .phase import (  # noqa: E402
    MetricSpec,
    Ensemble,
    phase_distance,
    ensemble_radius,
)
from .decay import DecayLaw
from .covering import (
    DecayTrace,
    alpha_proxy,
    decay_trace,
)
from .dynamics import (
    BlowUpError,
    NonDissipativeError,
    WaveSystemConfig,
    LinearModalConfig,
    wave_rhs,
    lyapunov,
    absorbing_radius,
    wave_config_from_dict,
)
from .attracting import (
    AttractingSetApprox,
    AttractionCertificate,
    build_net,
    build_attracting_set,
    verify_attraction,
    save_attracting_set,
    load_attracting_set,
)
from .criteria import (
    RateFit,
    RateBounds,
    QuasiStabilityReport,
    fit_exponential_rate,
    fit_envelope_law,
    check_hausdorff_criterion,
    tail_projection_decay,
    contractive_inequality_check,
    quasistability_estimate,
    predicted_rate_bounds,
    predicted_contraction,
    repeated_liminf_diag,
)
from .experiments import (
    ExperimentConfig,
    RunManifest,
    run_experiment,
    sample_phase_ball,
    load_experiment_config,
)
