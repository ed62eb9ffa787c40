"""Interpretable rule discovery for distinguishing automated from human driving.

The package turns raw vehicle trajectories into kinematic features, expresses
driving-style knowledge as small comparable predicates, verifies those
predicates against labeled data with an LLM-assisted refine loop, and applies
the surviving rules to classification and short-horizon maneuver prediction.
"""
from .classification import (
    MatchReport,
    RuleEvidence,
    TaskPrediction,
    identify_vehicle,
    infer_context,
    matching_score,
    predict_lane_change,
    predict_speed_change,
)
from .dsl import evaluate_predicate, parse_predicate, required_atoms, to_dsl
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
from .llm import BackendConfig, HttpBackend, MockBackend
from .metrics import MetricsReport, compute_metrics, compute_roc_auc
from .rules import (
    Rule,
    RuleLibrary,
    evaluate_rule,
    load_library,
    save_library,
    seed_library,
)
from .synth import AV_PROFILE, HDV_PROFILE, BehaviorProfile, GeneratorConfig, generate_dataset
from .trajectory import Trajectory, smooth_trajectory, validate_trajectory
from .verification import (
    ValSample,
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
    "MatchReport",
    "MetricsReport",
    "MockBackend",
    "NoApplicableRulesError",
    "PredicateSyntaxError",
    "Rule",
    "RuleEvidence",
    "RuleLibrary",
    "TaskPrediction",
    "Trajectory",
    "TrajRulesError",
    "UnitMismatchError",
    "ValSample",
    "VerificationResult",
    "compute_confidence",
    "compute_kinematics",
    "compute_metrics",
    "compute_roc_auc",
    "detect_lane_changes",
    "discover_rules",
    "evaluate_predicate",
    "evaluate_rule",
    "extended_atoms",
    "generate_dataset",
    "identify_vehicle",
    "infer_context",
    "load_library",
    "matching_score",
    "parse_predicate",
    "predict_lane_change",
    "predict_speed_change",
    "required_atoms",
    "run_verification_loop",
    "save_library",
    "seed_library",
    "smooth_trajectory",
    "summarize_features",
    "to_dsl",
    "validate_trajectory",
]
