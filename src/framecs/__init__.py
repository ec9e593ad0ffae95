"""framecs: l1-analysis compressed sensing with redundant dictionaries.

Construct tight/general frames and random sensing operators, recover
signals through four convex programs driven by one primal-dual engine,
and certify the restricted-isometry and theorem-constant machinery the
recovery guarantee rests on.
"""

from .certify import (
    BoundCheck,
    ConstantsReport,
    DripEstimate,
    concentration_check,
    drip_exact_small,
    drip_monte_carlo,
    theorem_constants,
    theorem_constants_from_delta,
    verify_error_bound,
)
from .frames import (
    Dictionary,
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    coherence,
    frame_bounds,
    from_matrix,
    gram_pnorm_factor,
    tighten,
)
from .sensing import (
    Measurement,
    SensingOperator,
    bernoulli_sensing,
    gaussian_sensing,
    measure,
    noise_bound,
    subsampled_dft_sign,
)
from .signals import (
    PulseParams,
    Signal,
    best_s_term,
    compressible_signal,
    dirac_comb,
    metrics,
    radar_pulse_train,
)
from .solvers import (
    LemmaAudit,
    RecoveryReport,
    SolverConfig,
    l1_analysis,
    l1_synthesis,
    lemma_audit,
    operator_norm_estimate,
    reweighted_l1_analysis,
    soft_threshold,
    split_analysis,
)

__version__ = "0.1.0"
