"""Position-based transmitter authentication for underwater acoustic networks.

A sensor fusion center verifies the claimed position of a transmitting
node from noisy time-of-arrival range measurements collected by fixed
anchors. The package provides the acoustic channel model, least-squares
localization, the exact distribution of the residual test statistic, the
resulting authentication error rates, and experiment drivers with a CLI.
"""

from .channel import ChannelParams, absorption_db_per_km, pathloss_db, distance_noise_variance
from .errors import AccuracyError, DomainError, GeometryError
from .localization import (
    AnchorArray,
    NoisySquaredDistances,
    Scenario,
    build_system,
    consistency_gap,
    sample_noisy_squared_distances,
    solve_position,
)
from .quadform import QuadFormDist
from .authentication import (
    DecisionConfig,
    ErrorRates,
    Hypothesis,
    calibrate_threshold,
    decide,
    h0_distribution,
    h1_distribution,
    p_fa_analytic,
    p_md_analytic,
    residual_vector,
    simulate_test_statistics,
    test_statistic,
    test_statistic_pinv,
)
from .experiment import (
    SweepRow,
    SweepSpec,
    baseline_scenario,
    default_power_grid,
    default_thresholds,
    region_point_set,
    roc_curve,
    run_sweep,
)

__version__ = "0.1.0"
