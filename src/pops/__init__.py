"""Joint transmit/receive multicarrier waveform design by SINR maximization.

The package optimizes a pair of prototype pulses over a doubly dispersive
channel by alternately solving generalized eigenvalue problems (the ping-pong
iteration), and surrounds the optimizer with the machinery needed to trust
it: exact kernel construction, closed-form conventional-OFDM baselines, a
Kronecker-relaxation upper bound, a literal Monte-Carlo link simulator, PSD
and robustness analyses, and a scenario-driven command line.
"""

from .analysis import (
    SweepResult,
    initialization_study,
    oob_level_db,
    oob_power_fraction,
    psd,
    read_sweep_csv,
    rerun_from_metadata,
    sweep_doppler_delay,
    sweep_freq_sync,
    sweep_ft,
    sweep_mismatch,
    sweep_time_sync,
    write_sweep_csv,
)
from .bound import (
    KroneckerSystem,
    SingularInterferenceError,
    build_kronecker_system,
    kronecker_quotient,
    upper_bound,
)
from .channel import PathList, SeparableChannel, jakes_density
from .kernels import KernelMatrix, best_window_start, build_ki, build_ks, build_ks_kin
from .lattice import (
    LatticeConfig,
    Waveform,
    inner,
    lattice_atom,
    load_waveform_csv,
    make_conventional_rx,
    make_conventional_tx,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
    modulate,
    normalized,
    phase_fixed,
    save_waveform_csv,
    shift,
    time_reverse,
)
from .montecarlo import McConfig, McEstimate, estimate_sinr, required_symbol_span
from .optimizer import (
    PopsConfig,
    PopsResult,
    half_step,
    load_pops_result,
    run_pops,
    save_pops_result,
)
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_text
from .sinr import (
    SinrReport,
    noise_correlation,
    power_ratio,
    sinr,
    sinr_conventional,
    sinr_time_reversed,
)

__version__ = "0.1.0"

__all__ = [
    "KernelMatrix",
    "KroneckerSystem",
    "LatticeConfig",
    "McConfig",
    "McEstimate",
    "PathList",
    "PopsConfig",
    "PopsResult",
    "Scenario",
    "ScenarioError",
    "SeparableChannel",
    "SingularInterferenceError",
    "SinrReport",
    "SweepResult",
    "Waveform",
    "best_window_start",
    "build_ki",
    "build_kronecker_system",
    "build_ks",
    "build_ks_kin",
    "estimate_sinr",
    "half_step",
    "initialization_study",
    "inner",
    "jakes_density",
    "kronecker_quotient",
    "lattice_atom",
    "load_pops_result",
    "load_scenario",
    "load_waveform_csv",
    "make_conventional_rx",
    "make_conventional_tx",
    "make_gaussian_init",
    "make_hermite_init",
    "make_rrc_init",
    "modulate",
    "noise_correlation",
    "normalized",
    "oob_level_db",
    "oob_power_fraction",
    "phase_fixed",
    "psd",
    "power_ratio",
    "read_sweep_csv",
    "required_symbol_span",
    "rerun_from_metadata",
    "run_pops",
    "save_pops_result",
    "save_waveform_csv",
    "scenario_from_text",
    "shift",
    "sinr",
    "sinr_conventional",
    "sinr_time_reversed",
    "sweep_doppler_delay",
    "sweep_freq_sync",
    "sweep_ft",
    "sweep_mismatch",
    "sweep_time_sync",
    "time_reverse",
    "upper_bound",
    "write_sweep_csv",
]
