"""Kinematic series, lane-change detection, and per-vehicle feature atoms.

Speed is the central difference of Euclidean displacement over two frames;
acceleration and jerk are central differences of the level below. Each
derivative level therefore loses one sample at both ends: on a validated
track, velocity covers frames t[1:-1], acceleration t[2:-2] and jerk t[3:-3].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooShortError, WindowTooLongError
from .trajectory import LANE_CHANGE_THRESHOLDS, Trajectory

#: Feature atoms derivable from a single trajectory with no extra context.
CORE_ATOMS = (
    "mean_speed",
    "std_speed",
    "mean_accel",
    "std_accel",
    "std_jerk",
    "lane_change_count",
)

#: Atoms that need more than raw positions; supplied when computable.
EXTENDED_ATOMS = (
    "max_decel",
    "lane_change_rate",
    "speed_fluctuation_rate",
    "pre_lane_change_decel",
    "lane_change_angle",
    "following_accel_delta",
)

ATOMS = CORE_ATOMS + EXTENDED_ATOMS

#: |acceleration| a swing must reach for a sign change to count as a fluctuation.
FLUCTUATION_MAGNITUDE = 0.1

#: Seconds of acceleration history inspected ahead of each lane change.
PRE_LC_WINDOW_S = 2.0


@dataclass(frozen=True, eq=False)
class KinematicSeries:
    """Velocity/acceleration/jerk samples of one trajectory."""

    velocity: np.ndarray
    acceleration: np.ndarray
    jerk: np.ndarray
    frame_rate: float


@dataclass(frozen=True)
class LaneChangeEvent:
    start_frame: int
    end_frame: int
    cumulative_displacement: float
    direction: str  # "left" or "right"


def compute_kinematics(traj: Trajectory) -> KinematicSeries:
    """Central-difference velocity, acceleration, and jerk in scaled units.

    Expects a validated trajectory (contiguous frames). Velocity is two
    samples shorter than the positions, acceleration two shorter than
    velocity, jerk two shorter again (empty when that goes nonpositive).
    """
    n = len(traj)
    if n < 5:
        raise TooShortError(f"{traj.vehicle_id}: need at least 5 points, got {n}")
    sx = traj.x * traj.unit_scale
    sy = traj.y * traj.unit_scale
    dt2 = 2.0 * traj.dt
    dx = sx[2:] - sx[:-2]
    dy = sy[2:] - sy[:-2]
    velocity = np.sqrt(dx * dx + dy * dy) / dt2
    acceleration = (velocity[2:] - velocity[:-2]) / dt2
    jerk = (acceleration[2:] - acceleration[:-2]) / dt2
    return KinematicSeries(
        velocity=velocity,
        acceleration=acceleration,
        jerk=jerk,
        frame_rate=traj.frame_rate,
    )


def detect_lane_changes(
    traj: Trajectory,
    window: int = 120,
    threshold: float | None = None,
) -> list[LaneChangeEvent]:
    """Detect lane changes from cumulative lateral displacement.

    A window starting at point t accumulates |dy| over its next *window*
    steps (so it spans window+1 points) and fires when that sum exceeds
    *threshold* while the net signed displacement over the same span exceeds
    threshold/2; the net test suppresses in-lane oscillation. Overlapping
    firing windows merge into one event, represented by the window with the
    largest cumulative displacement (earliest on ties), so every reported
    event spans exactly *window* frames. threshold=None takes the track's
    unit system's entry in LANE_CHANGE_THRESHOLDS.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if threshold is None:
        threshold = LANE_CHANGE_THRESHOLDS[traj.unit_system]
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n = len(traj)
    if window > n - 1:
        raise WindowTooLongError(
            f"{traj.vehicle_id}: window of {window} steps needs {window + 1} points, trajectory has {n}"
        )
    sy = traj.y * traj.unit_scale
    dy = np.diff(sy)
    csum = np.concatenate(([0.0], np.cumsum(np.abs(dy))))
    roll = csum[window:] - csum[:-window]  # indexed by window start t
    net = sy[window:] - sy[:-window]
    fired = np.flatnonzero((roll > threshold) & (np.abs(net) > threshold / 2.0))
    if fired.size == 0:
        return []

    events: list[LaneChangeEvent] = []
    group_start = 0
    for i in range(1, len(fired) + 1):
        if i < len(fired) and fired[i] - fired[i - 1] <= window - 1:
            continue
        group = fired[group_start:i]
        rep = int(group[np.argmax(roll[group])])
        events.append(LaneChangeEvent(
            start_frame=int(traj.t[rep]),
            end_frame=int(traj.t[rep + window - 1]),
            cumulative_displacement=float(roll[rep]),
            direction="left" if net[rep] < 0 else "right",
        ))
        group_start = i
    return events


def summarize_features(
    traj: Trajectory,
    kin: KinematicSeries,
    events: list[LaneChangeEvent],
) -> dict[str, float]:
    """Core atoms (population statistics) keyed by atom name, in CORE_ATOMS order."""
    def mean(a: np.ndarray) -> float:
        return float(np.mean(a)) if a.size else 0.0

    def std(a: np.ndarray) -> float:
        return float(np.std(a)) if a.size else 0.0

    return {
        "mean_speed": mean(kin.velocity),
        "std_speed": std(kin.velocity),
        "mean_accel": mean(kin.acceleration),
        "std_accel": std(kin.acceleration),
        "std_jerk": std(kin.jerk),
        "lane_change_count": float(len(events)),
    }


def count_fluctuations(acceleration: np.ndarray, magnitude: float = FLUCTUATION_MAGNITUDE) -> int:
    """Count acceleration sign changes whose swing reaches ±magnitude.

    Samples with |a| < magnitude are ignored, so small ripple around zero does
    not register; each transition between a-dips below -magnitude and peaks
    above +magnitude counts once.
    """
    significant = acceleration[np.abs(acceleration) >= magnitude]
    if significant.size < 2:
        return 0
    signs = np.sign(significant)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def extended_atoms(
    traj: Trajectory,
    kin: KinematicSeries,
    events: list[LaneChangeEvent],
) -> dict[str, float]:
    """Derive the extended atoms that raw positions support.

    Returns max_decel, lane_change_rate, and speed_fluctuation_rate whenever
    the acceleration series is non-empty, plus pre_lane_change_decel when at
    least one lane change leaves enough acceleration history ahead of it.
    lane_change_angle and following_accel_delta need data this package does
    not extract (steering geometry, surrounding vehicles) and are never
    emitted here; rules over them evaluate as not applicable.
    """
    out: dict[str, float] = {}
    accel = kin.acceleration
    duration_min = traj.duration / 60.0
    if accel.size:
        out["max_decel"] = float(max(0.0, -np.min(accel)))
        out["speed_fluctuation_rate"] = count_fluctuations(accel) / duration_min
    out["lane_change_rate"] = len(events) / duration_min

    if events:
        first_frame = int(traj.t[2])  # frame of accel[0]
        window = PRE_LC_WINDOW_S * traj.frame_rate
        min_samples = max(3, int(traj.frame_rate))
        decels = []
        for ev in events:
            hi = ev.start_frame - first_frame  # accel index of event start
            lo = hi - int(round(window))
            segment = accel[max(0, lo):max(0, hi)]
            if segment.size >= min_samples:
                decels.append(max(0.0, -float(np.mean(segment))))
        if decels:
            out["pre_lane_change_decel"] = float(np.mean(decels))
    return out
