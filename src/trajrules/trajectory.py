"""Trajectory records: validation, gap repair, and Kalman smoothing.

Positions are stored in native coordinates (pixels or meters); unit_scale
converts native lengths into the unit system the features are reported in.
All downstream math assumes a validated trajectory: strictly increasing,
contiguous frame indices, a frame rate and unit_scale in range, and finite
coordinates no faster than MAX_STEP_SPEED; with noise in NOISE_RANGE, none overflows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DuplicateFrameError,
    ImplausibleTrackError,
    NonFiniteError,
    NonPositiveError,
    SchemaError,
    TooShortError,
)

MIN_POINTS = 5
MAX_GAP_FRAMES = 3

LABELS = ("AV", "HDV")
UNIT_SYSTEMS = ("pixel", "metric")
LANE_CHANGE_THRESHOLDS = {"pixel": 50.0, "metric": 2.0}  # default, lateral travel per window
FRAME_RATE_RANGE = (0.1, 1000.0)  # fps, inclusive; the Kalman filter takes dt ** 4
UNIT_SCALE_RANGE = (1e-6, 1e6)  # inclusive; smoothing runs on the unscaled coordinates
#: fastest step between frames in scaled units/s: 100 m/s, pixels by the thresholds' ratio
MAX_STEP_SPEED = {system: 100.0 * threshold / LANE_CHANGE_THRESHOLDS["metric"]
                  for system, threshold in LANE_CHANGE_THRESHOLDS.items()}
NOISE_RANGE = (1e-12, 1e12)  # inclusive, both noise settings; far out, the gains overflow or divide by 0
DEFAULT_PROCESS_NOISE = 1e-2  # Kalman smoothing defaults
DEFAULT_MEASUREMENT_NOISE = 1.0


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
    for name, (low, high) in (("frame_rate", FRAME_RATE_RANGE), ("unit_scale", UNIT_SCALE_RANGE)):
        if not low <= getattr(traj, name) <= high:
            raise ImplausibleTrackError(
                f"{traj.vehicle_id}: {name} {getattr(traj, name)} is outside {low:g}-{high:g}")
    if traj.unit_system not in UNIT_SYSTEMS:
        raise ValueError(f"unit_system must be one of {UNIT_SYSTEMS}, got {traj.unit_system!r}")
    if traj.label is not None and traj.label not in LABELS:
        raise ValueError(f"label must be one of {LABELS} or None, got {traj.label!r}")


def validate_trajectory(traj: Trajectory) -> Trajectory:
    """Return a cleaned copy of *traj* ready for kinematic math.

    Points are sorted by frame; gaps of up to MAX_GAP_FRAMES missing frames
    are filled by linear interpolation; longer gaps split the trajectory and
    the longest contiguous segment (first on ties) is kept.

    Raises ImplausibleTrackError (a rate or scale out of range, a step over
    MAX_STEP_SPEED), NonFiniteError, SchemaError (negative frame),
    DuplicateFrameError, or TooShortError (under MIN_POINTS points repaired).
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
    bound = MAX_STEP_SPEED[traj.unit_system]
    with np.errstate(over="ignore", invalid="ignore"):  # finite coordinates can overflow here
        dx, dy = np.diff(x[seg] * traj.unit_scale), np.diff(y[seg] * traj.unit_scale)
        reach = np.diff(st) * (bound / traj.frame_rate)  # a filled gap moves at its average speed
        slow = dx * dx + dy * dy <= reach * reach  # squares: inf and NaN fail it like hypot's
        if not slow.all():
            i = int(np.argmin(slow))
            speed = np.hypot(dx[i], dy[i]) * traj.frame_rate / (st[i + 1] - st[i])
            raise ImplausibleTrackError(f"{traj.vehicle_id}: moves {speed:g} scaled units/s "
                                        f"into frame {st[i + 1]}, over {bound:g}")
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


def _gains(n: int, dt: float, q: float, r: float) -> tuple[list[float], list[float]]:
    """Kalman gains kx[k], kv[k] for steps 1..n-1; the recursion never reads the data."""
    p00, p01, p11 = r, r / dt, 2.0 * r / (dt * dt)  # two-point differencing covariance
    q00, q01 = q * dt ** 4 / 4.0, q * dt ** 3 / 2.0
    q11 = q * dt * dt
    kx, kv = [0.0], [0.0]
    for _ in range(1, n):
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00  # predict
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        s = p00 + r  # update
        kx.append(p00 / s)
        kv.append(p01 / s)
        p11 = p11 - kv[-1] * p01
        p01 = (1.0 - kx[-1]) * p01
        p00 = (1.0 - kx[-1]) * p00
    return kx, kv


def smooth_trajectories(
    trajs: list[Trajectory],
    process_noise: float = DEFAULT_PROCESS_NOISE,
    measurement_noise: float = DEFAULT_MEASUREMENT_NOISE,
) -> list[Trajectory]:
    """Kalman-smooth positions with an independent constant-velocity model per axis.

    State is [position, velocity], initialized by two-point differencing so
    exactly linear input passes through unchanged. measurement_noise is the
    position noise variance in native units squared; process_noise trades
    smoothness against responsiveness. Outputs keep the input order, frames and
    metadata (tracks under 2 points come back unchanged). Every axis at one frame
    rate shares one gain sequence and one loop over time, in the scalar filter's
    order of operations, so a track's result does not depend on its batch.
    """
    q, r = process_noise, measurement_noise
    if not all(NOISE_RANGE[0] <= v <= NOISE_RANGE[1] for v in (q, r)):
        raise NonPositiveError(f"noise settings must be from {NOISE_RANGE[0]:g} to {NOISE_RANGE[1]:g}")
    out = [replace(traj) for traj in trajs]
    groups: dict[float, list[int]] = {}
    for i, traj in enumerate(trajs):
        if len(traj) >= 2:
            groups.setdefault(traj.frame_rate, []).append(i)
    for frame_rate, members in groups.items():
        members.sort(key=lambda i: -len(trajs[i]))  # longest first: running axes are a prefix
        n = np.array([len(trajs[i]) for i in members])
        dt = 1.0 / frame_rate
        kx, kv = _gains(n[0], dt, q, r)
        # one padded row per axis; estimates overwrite measurements, outputs view rows
        z = np.empty((2 * len(members), n[0]))
        for row, i in enumerate(members):
            z[2 * row, :n[row]], z[2 * row + 1, :n[row]] = trajs[i].x, trajs[i].y
        v = (z[:, 1] - z[:, 0]) / dt
        running = 2 * np.searchsorted(-n, -np.arange(n[0]))
        for k, a in enumerate(running.tolist()[1:], start=1):
            x = z[:a, k - 1] + v[:a] * dt  # predict
            innov = z[:a, k] - x
            x += kx[k] * innov
            v[:a] += kv[k] * innov
            z[:a, k] = x
        for row, i in enumerate(members):
            out[i].x, out[i].y = z[2 * row, :n[row]], z[2 * row + 1, :n[row]]
    return out


def smooth_trajectory(
    traj: Trajectory,
    process_noise: float = DEFAULT_PROCESS_NOISE,
    measurement_noise: float = DEFAULT_MEASUREMENT_NOISE,
) -> Trajectory:
    """One-track case of smooth_trajectories."""
    return smooth_trajectories([traj], process_noise, measurement_noise)[0]
