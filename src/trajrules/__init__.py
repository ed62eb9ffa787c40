"""Interpretable rule discovery for distinguishing automated from human driving.

The package turns raw vehicle trajectories into kinematic features, expresses
driving-style knowledge as small comparable predicates, verifies those
predicates against labeled data with an LLM-assisted refine loop, and applies
the surviving rules to classification and short-horizon maneuver prediction.
"""
from .classification import (
    TaskPrediction,
    identify_vehicle,
    infer_context,
    lane_prior,
    predict_lane_change,
    predict_speed_change,
    speed_prior,
    vote_table,
)
from .dsl import parse_predicate, required_atoms, to_dsl
from .errors import (
    BackendError,
    InputError,
    NoApplicableRulesError,
    PredicateSyntaxError,
    TrajRulesError,
    UnitMismatchError,
)
from .kinematics import (
    ATOMS,
    KinematicSeries,
    LaneChangeEvent,
    compute_kinematics,
    detect_lane_changes,
    extended_atoms,
    summarize_features,
)
from .io import load_library, save_library
from .llm import BackendConfig, HttpBackend, MockBackend
from .metrics import MetricsReport, compute_metrics, compute_roc_auc
from .rules import Rule, RuleLibrary, evaluate_rule, seed_library
from .synth import AV_PROFILE, HDV_PROFILE, BehaviorProfile, GeneratorConfig, generate_dataset
from .trajectory import Trajectory, smooth_trajectories, smooth_trajectory, validate_trajectory
from .verification import (
    VerificationResult,
    compute_confidence,
    discover_rules,
    run_verification_loop,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMS",
    "AV_PROFILE",
    "BackendConfig",
    "BackendError",
    "BehaviorProfile",
    "GeneratorConfig",
    "HDV_PROFILE",
    "HttpBackend",
    "InputError",
    "KinematicSeries",
    "LaneChangeEvent",
    "MetricsReport",
    "MockBackend",
    "NoApplicableRulesError",
    "PredicateSyntaxError",
    "Rule",
    "RuleLibrary",
    "TaskPrediction",
    "Trajectory",
    "TrajRulesError",
    "UnitMismatchError",
    "VerificationResult",
    "compute_confidence",
    "compute_kinematics",
    "compute_metrics",
    "compute_roc_auc",
    "detect_lane_changes",
    "discover_rules",
    "evaluate_rule",
    "extended_atoms",
    "generate_dataset",
    "identify_vehicle",
    "infer_context",
    "lane_prior",
    "load_library",
    "parse_predicate",
    "predict_lane_change",
    "predict_speed_change",
    "required_atoms",
    "run_verification_loop",
    "save_library",
    "seed_library",
    "smooth_trajectories",
    "smooth_trajectory",
    "speed_prior",
    "summarize_features",
    "to_dsl",
    "validate_trajectory",
    "vote_table",
]
