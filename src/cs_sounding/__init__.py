"""Compressed-sensing WLAN MU-MIMO channel sounding simulator.

Punctured LTF training over seeded tone allocations, greedy sparse
recovery (CoSaMP/OMP) on the tone-by-space Kronecker DFT model, and
feedback-overhead accounting against conventional Givens-angle feedback.
"""

from .channel import (
    ChannelRealization,
    DelaySpreadExceedsDft,
    PdpSpec,
    SpatialCorrelation,
    bin_pdp,
    generate_channel,
    sparsity,
    threshold_taps,
)
from .config import ConfigError, ExperimentConfig, load_config
from .feedback import (
    FeedbackReport,
    GivensAngles,
    NotSemiUnitary,
    angle_pairs,
    bits_per_tone,
    givens_decompose,
    givens_reconstruct,
    quantize_measurements,
    total_feedback_bits,
)
from .numerics import (
    NotPositiveDefinite,
    cholesky,
    dft_matrix,
    kron_row,
    solve_normal_equations,
)
from .pipeline import (
    ExperimentResult,
    MeasurementModel,
    TooManyMeasurementsRequested,
    build_measurement_model,
    kron_consistency_check,
    mse,
    recover_channel,
    run_experiment,
    sweep_nkappa,
)
from .sounding import (
    LtfAllocation,
    LtfSequence,
    PMatrix,
    UnsupportedDimension,
    allocate_ltf,
    estimate_conventional,
    knuth_shuffle,
    lfsr_stream,
    ndp_airtime,
    p_matrix,
    punctured_sound_and_estimate,
    receive_ltf,
    transmit_ltf_conventional,
)
from .sparse_recovery import (
    DegenerateSupport,
    InsufficientMeasurements,
    MeasurementOperator,
    RecoveryConfig,
    SparseRecoveryResult,
    cosamp,
    mac_model,
    omp,
    support_select,
)

__version__ = "0.1.0"
