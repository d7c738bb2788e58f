"""Ergodic capacity of RIS-aided links under outdated CSI.

Centralized and distributed reflecting-surface deployments, near- and
far-field path loss, a moment-matched Gamma capacity analysis with Jensen
bounds, and an independent Monte Carlo oracle.
"""

from .capacity import (
    CapacityReport,
    GammaFit,
    capacity_reports,
    ec_lower_bound,
    ec_upper_bound,
    ergodic_capacity,
    gamma_fit,
    snr_variance,
)
from .channel import (
    PanelChannel,
    RicianParams,
    laguerre_half,
    outdated_correlation,
    rician_mean_envelope,
    sample_rician_envelope,
)
from .errors import (
    DegenerateDistribution,
    NegativeCorrelation,
    NumericalFailure,
    PatternUnderflow,
    QuadratureFailure,
    RiscapError,
    ScenarioError,
    SingularPattern,
    ValidationFailure,
)
from .geometry import (
    PanelLink,
    Point3,
    RisPanel,
    near_field_boundary,
    panel_link,
)
from .moments import (
    MomentSummary,
    distributed_moments,
    distributed_noise_variance,
)
from .montecarlo import (
    McEstimate,
    SnrEnsemble,
    TrialConfig,
    simulate_ec_sweep,
)
from .pathloss import (
    LinkBudget,
    NearFieldTiles,
    beta0_reference,
    direct_pathloss,
    farfield_pathloss,
)
from .presets import PRESET_NAMES, fig8_distributed_cases, preset, run_preset
from .scenario import (
    PanelSetup,
    Scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from .workbench import (
    RunResult,
    SweepSpec,
    apply_sweep_value,
    rows_to_csv,
    run_scenario,
    run_sweep,
)

__version__ = "0.1.0"
