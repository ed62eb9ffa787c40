"""Trajectory records: validation, gap repair, and Kalman smoothing.

Positions are stored in native coordinates (pixels or meters); unit_scale
converts native lengths into the unit system the features are reported in.
All downstream math assumes a validated trajectory: strictly increasing,
contiguous frame indices and finite coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DuplicateFrameError,
    NonFiniteError,
    NonPositiveError,
    SchemaError,
    TooShortError,
)

MIN_POINTS = 5
MAX_GAP_FRAMES = 3

LABELS = ("AV", "HDV")
UNIT_SYSTEMS = ("pixel", "metric")


@dataclass(eq=False)
class Trajectory:
    """One vehicle's trace as columns: int64 frames t, float64 native x and y."""

    vehicle_id: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    frame_rate: float
    unit_scale: float = 1.0
    unit_system: str = "metric"
    label: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def duration(self) -> float:
        """Covered time span in seconds (point count over frame rate)."""
        return len(self.t) / self.frame_rate


def _check_metadata(traj: Trajectory) -> None:
    if not math.isfinite(traj.frame_rate) or traj.frame_rate <= 0:
        raise NonPositiveError(f"frame_rate must be positive, got {traj.frame_rate}")
    if not math.isfinite(traj.unit_scale) or traj.unit_scale <= 0:
        raise NonPositiveError(f"unit_scale must be positive, got {traj.unit_scale}")
    if traj.unit_system not in UNIT_SYSTEMS:
        raise ValueError(f"unit_system must be one of {UNIT_SYSTEMS}, got {traj.unit_system!r}")
    if traj.label is not None and traj.label not in LABELS:
        raise ValueError(f"label must be one of {LABELS} or None, got {traj.label!r}")


def validate_trajectory(traj: Trajectory) -> Trajectory:
    """Return a cleaned copy of *traj* ready for kinematic math.

    Points are sorted by frame; gaps of up to MAX_GAP_FRAMES missing frames
    are filled by linear interpolation; longer gaps split the trajectory and
    the longest contiguous segment (first on ties) is kept.

    Raises NonPositiveError, NonFiniteError, SchemaError (negative frame),
    DuplicateFrameError, or TooShortError (fewer than MIN_POINTS points after
    repair).
    """
    _check_metadata(traj)
    if not len(traj):
        raise TooShortError(f"{traj.vehicle_id}: 0 points after repair, need {MIN_POINTS}")
    order = np.argsort(traj.t, kind="stable")
    t, x, y = traj.t[order], traj.x[order], traj.y[order]
    finite = np.isfinite(x) & np.isfinite(y)
    bad = ~finite | (t < 0)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise NonFiniteError(f"{traj.vehicle_id}: non-finite position at frame {t[i]}")
        raise SchemaError(f"{traj.vehicle_id}: negative frame index {t[i]}")
    step = np.diff(t)
    dup = np.flatnonzero(step == 0)
    if dup.size:
        raise DuplicateFrameError(f"{traj.vehicle_id}: duplicate frame {t[dup[0]]}")

    cuts = np.flatnonzero(step > MAX_GAP_FRAMES + 1) + 1
    first = np.concatenate(([0], cuts))
    last = np.concatenate((cuts, [len(t)])) - 1
    sizes = t[last] - t[first] + 1  # points per segment once its gaps are filled
    best = int(np.argmax(sizes))
    if sizes[best] < MIN_POINTS:
        raise TooShortError(
            f"{traj.vehicle_id}: {sizes[best]} points after repair, need {MIN_POINTS}"
        )
    seg = slice(first[best], last[best] + 1)
    st = t[seg]
    frames = np.arange(st[0], st[-1] + 1)
    hole = np.ones(len(frames), dtype=bool)
    hole[st - st[0]] = False
    missing = frames[hole]
    prev = np.searchsorted(st, missing) - 1  # observed point before each hole
    frac = (missing - st[prev]) / (st[prev + 1] - st[prev])

    def fill(v: np.ndarray) -> np.ndarray:
        # prev + frac * (cur - prev) exactly; np.interp rounds some fills differently
        out = np.empty(len(frames), dtype=np.float64)
        out[~hole] = v
        out[hole] = v[prev] + frac * (v[prev + 1] - v[prev])
        return out

    return replace(traj, t=frames, x=fill(x[seg]), y=fill(y[seg]))


def _filter_axis(z: np.ndarray, dt: float, q: float, r: float) -> np.ndarray:
    """Constant-velocity Kalman filter along one axis; returns position estimates.

    State is [position, velocity], initialized by two-point differencing so
    exactly linear input passes through unchanged. q scales the white-noise
    acceleration spectral density; r is the measurement variance.
    """
    n = len(z)
    out = np.empty(n, dtype=np.float64)
    out[0] = x = float(z[0])
    v = (float(z[1]) - float(z[0])) / dt
    # two-point differencing initial covariance
    p00 = r
    p01 = r / dt
    p11 = 2.0 * r / (dt * dt)
    q00 = q * dt ** 4 / 4.0
    q01 = q * dt ** 3 / 2.0
    q11 = q * dt * dt
    for k in range(1, n):
        # predict
        x = x + v * dt
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        # update
        s = p00 + r
        kx = p00 / s
        kv = p01 / s
        innov = float(z[k]) - x
        x += kx * innov
        v += kv * innov
        p11 = p11 - kv * p01
        p01 = (1.0 - kx) * p01
        p00 = (1.0 - kx) * p00
        out[k] = x
    return out


def smooth_trajectory(
    traj: Trajectory,
    process_noise: float = 1e-2,
    measurement_noise: float = 1.0,
) -> Trajectory:
    """Kalman-smooth positions with an independent constant-velocity model per axis.

    Output has the same length, frames, and metadata as the input; only x/y
    change. measurement_noise is the position noise variance in native units
    squared; process_noise trades smoothness against responsiveness.
    """
    if process_noise <= 0 or measurement_noise <= 0:
        raise NonPositiveError("process_noise and measurement_noise must be positive")
    if len(traj) < 2:
        return replace(traj)
    fx = _filter_axis(traj.x, traj.dt, process_noise, measurement_noise)
    fy = _filter_axis(traj.y, traj.dt, process_noise, measurement_noise)
    return replace(traj, x=fx, y=fy)
