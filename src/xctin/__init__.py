"""Achievability, converse bounds, and regime audits for the 3x2 Gaussian X
channel under treat-interference-as-noise scheduling.

numpy is imported at the top of the three modules that work on arrays, and
nowhere else: `kernels` (the block kernels), `writer` (the table writer) and
`experiments` (the audits). The package imports `experiments`, and so
numpy, on the first use of it or of one of its exports, so the scalar API
and the point commands, in JSON or csv, start without numpy.
"""

import importlib

from .achievability import (IC_CONFIGS, AchievabilityResult, IcConfig,
                            tdma_tin_gdof, tdma_tin_gdof_config, tdma_tin_rate,
                            tin_sum_rate)
from .bounds import (PERMUTATIONS, BoundResult, GenieParams, TxPermutation,
                     gdof_ub, gdof_ub_case1, gdof_ub_case2, gdof_ub_single,
                     genie_params, genie_params_from_gains, sum_capacity_ub,
                     sum_capacity_ub_single)
from .channel import (AlphaMatrix, ChannelScenario, alpha_from_gain,
                      effective_inr, load_scenario, rho_from_db,
                      scenario_from_dict, validate_scenario)
from .errors import (CaseMismatch, DegenerateSnr, InvalidBeta,
                     NotApplicable, NotInterferenceLimited, SamplerExhausted,
                     UnsupportedFormat, ValidationError)
from .regime import (AuxChannelPair, RegimeVerdict, classify,
                     entropy_gap_conditions_hold, genie_aux_pair,
                     genie_satisfies_entropy_gap, in_extended_regime,
                     in_gsj_regime, psi)

__version__ = "0.1.0"

_EXPERIMENTS_EXPORTS = ("ConvergenceRow", "GapReport", "SandwichReport", "SweepRecord",
                        "gap_audit", "gdof_convergence_probe", "sandwich_audit",
                        "sweep_regime_plane")


def __getattr__(name):
    """`experiments` and its exports, imported on first use (PEP 562)."""
    if name == "experiments" or name in _EXPERIMENTS_EXPORTS:
        experiments = importlib.import_module(".experiments", __name__)
        return experiments if name == "experiments" else getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AchievabilityResult", "AlphaMatrix", "AuxChannelPair",
    "BoundResult", "CaseMismatch", "ChannelScenario", "ConvergenceRow",
    "DegenerateSnr", "GapReport", "GenieParams", "IC_CONFIGS", "IcConfig",
    "InvalidBeta", "NotApplicable", "NotInterferenceLimited", "PERMUTATIONS",
    "RegimeVerdict",
    "SamplerExhausted", "SandwichReport", "SweepRecord", "TxPermutation",
    "UnsupportedFormat", "ValidationError", "alpha_from_gain", "classify",
    "effective_inr", "entropy_gap_conditions_hold", "gap_audit",
    "gdof_convergence_probe",
    "gdof_ub", "gdof_ub_case1", "gdof_ub_case2", "gdof_ub_single",
    "genie_aux_pair", "genie_params", "genie_params_from_gains",
    "genie_satisfies_entropy_gap", "in_extended_regime", "in_gsj_regime",
    "load_scenario", "psi", "rho_from_db", "sandwich_audit",
    "scenario_from_dict", "sum_capacity_ub", "sum_capacity_ub_single",
    "sweep_regime_plane", "tdma_tin_gdof", "tdma_tin_gdof_config",
    "tdma_tin_rate", "tin_sum_rate", "validate_scenario",
]
