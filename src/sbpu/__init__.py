"""Deterministic federated-learning simulator with stochastic bidirectional
parameter updates: diverse per-client global models, closed-form convergence
and divergence bounds with Monte-Carlo verification, and desk-scale privacy
attacks (label inference, membership inference, input reconstruction)."""

from .config import VERSION as __version__
from .config import ConfigError, FederationConfig
from .convergence import (ConvergenceConfig, ConvergenceReport, divergence_bound,
                          measure_divergence, optimum_of,
                          run_convergence_experiment, theorem1_bound)
from .federation import (ClientState, DefensePolicy, DivergenceError, RoundRecord,
                         RunPlan, aggregate, apply_defense, local_train,
                         run_federation, run_round)
from .mutation import (BoundReport, DiversityRates, GlobalHistory,
                       build_stochastic_list, check_neighborhood_bound,
                       generate_diverse_models, sbpu_mutate, stochastic_multiset)
from .objectives import (AssumptionConstants, ClassifierObjective, LrSchedule,
                         QuadraticObjective, constants_for, sgd_step)
from .params import Layer, LayeredParams, ShapeMismatchError, from_arrays

__all__ = [
    "AssumptionConstants", "BoundReport", "ClassifierObjective", "ClientState",
    "ConfigError", "ConvergenceConfig", "ConvergenceReport", "DefensePolicy",
    "DiversityRates", "DivergenceError", "FederationConfig", "GlobalHistory",
    "Layer", "LayeredParams", "LrSchedule", "QuadraticObjective", "RoundRecord",
    "RunPlan", "ShapeMismatchError", "aggregate", "apply_defense",
    "build_stochastic_list", "check_neighborhood_bound", "constants_for",
    "divergence_bound", "from_arrays", "generate_diverse_models", "local_train",
    "measure_divergence", "optimum_of", "run_convergence_experiment",
    "run_federation", "run_round", "sbpu_mutate", "sgd_step",
    "stochastic_multiset", "theorem1_bound",
]
