import math

import numpy as np
import pytest

from helpers import make_trajectory
from trajrules.errors import (
    DuplicateFrameError,
    NonFiniteError,
    NonPositiveError,
    SchemaError,
    TooShortError,
)
from trajrules.trajectory import (
    MAX_GAP_FRAMES,
    MIN_POINTS,
    Trajectory,
    smooth_trajectories,
    smooth_trajectory,
    validate_trajectory,
)


def at_frames(frames, xs=None, ys=None):
    """Trajectory "v" at 10 Hz over the given frames (x = frame, y = 0 by default)."""
    xs = [float(t) for t in frames] if xs is None else xs
    ys = [0.0] * len(frames) if ys is None else ys
    return make_trajectory(xs, ys, frame_rate=10.0, vehicle_id="v", frames=frames)


def test_valid_trajectory_passes_through():
    traj = make_trajectory(np.arange(10.0), np.zeros(10))
    out = validate_trajectory(traj)
    assert out.t.tolist() == list(range(10))
    assert out.vehicle_id == traj.vehicle_id


def test_out_of_order_frames_are_sorted():
    out = validate_trajectory(at_frames([3, 0, 4, 1, 2, 5]))
    assert out.t.tolist() == [0, 1, 2, 3, 4, 5]
    assert out.x.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_duplicate_frame_rejected():
    with pytest.raises(DuplicateFrameError):
        validate_trajectory(at_frames([0, 1, 1, 2, 3]))


def test_non_finite_coordinate_rejected():
    xs = [0.0, 1.0, float("nan"), 3.0, 4.0]
    with pytest.raises(NonFiniteError):
        validate_trajectory(make_trajectory(xs, np.zeros(5)))


def test_negative_frame_rejected():
    with pytest.raises(SchemaError, match="v: negative frame index -1"):
        validate_trajectory(at_frames([-1, 0, 1, 2, 3]))


def test_small_gap_is_interpolated():
    # frame 3 missing: one-frame hole, linear fill expected
    frames = [0, 1, 2, 4, 5, 6]
    out = validate_trajectory(at_frames(frames, ys=[2.0 * t for t in frames]))
    assert out.t.tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert out.x[3] == pytest.approx(3.0)
    assert out.y[3] == pytest.approx(6.0)


def test_three_frame_gap_is_interpolated():
    out = validate_trajectory(at_frames([0, 1, 2, 6, 7, 8]))
    assert out.t.tolist() == list(range(9))
    assert out.x.tolist() == pytest.approx(list(range(9)))


def test_long_gap_splits_and_keeps_longest_segment():
    out = validate_trajectory(at_frames(list(range(10)) + list(range(20, 26))))
    assert out.t.tolist() == list(range(10))


def test_long_gap_tie_keeps_first_segment():
    out = validate_trajectory(at_frames(list(range(6)) + list(range(20, 26))))
    assert out.t.tolist() == list(range(6))


def test_too_few_points_rejected():
    with pytest.raises(TooShortError):
        validate_trajectory(make_trajectory([0.0, 1.0, 2.0, 3.0], [0.0] * 4))


def test_split_below_minimum_rejected():
    # both segments shorter than the minimum after the split
    with pytest.raises(TooShortError):
        validate_trajectory(at_frames([0, 1, 2, 3] + [20, 21, 22]))


def test_bad_metadata_rejected():
    traj = make_trajectory(np.arange(6.0), np.zeros(6))
    cols = {"t": traj.t, "x": traj.x, "y": traj.y}
    with pytest.raises(NonPositiveError):
        validate_trajectory(
            Trajectory("v", **cols, frame_rate=0.0)
        )
    with pytest.raises(NonPositiveError):
        validate_trajectory(
            Trajectory("v", **cols, frame_rate=10.0, unit_scale=-1.0)
        )
    with pytest.raises(ValueError):
        validate_trajectory(
            Trajectory("v", **cols, frame_rate=10.0, unit_system="furlongs")
        )
    with pytest.raises(ValueError):
        validate_trajectory(
            Trajectory("v", **cols, frame_rate=10.0, label="robot")
        )


def reference_validate(traj):
    """Point-by-point sort, checks, gap fill and split: the oracle for validate_trajectory.

    Returns the kept segment as (t, x, y) arrays, or raises what
    validate_trajectory raises (metadata checks aside).
    """
    vid = traj.vehicle_id
    pts = sorted(zip(traj.t.tolist(), traj.x.tolist(), traj.y.tolist()), key=lambda p: p[0])
    for t, x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"{vid}: non-finite position at frame {t}")
        if t < 0:
            raise SchemaError(f"{vid}: negative frame index {t}")
    for a, b in zip(pts, pts[1:]):
        if a[0] == b[0]:
            raise DuplicateFrameError(f"{vid}: duplicate frame {a[0]}")

    segments = [[pts[0]]] if pts else [[]]
    for prev, cur in zip(pts, pts[1:]):
        missing = cur[0] - prev[0] - 1
        if missing == 0:
            segments[-1].append(cur)
        elif missing <= MAX_GAP_FRAMES:
            for k in range(1, missing + 1):
                frac = k / (missing + 1)
                segments[-1].append((
                    prev[0] + k,
                    prev[1] + frac * (cur[1] - prev[1]),
                    prev[2] + frac * (cur[2] - prev[2]),
                ))
            segments[-1].append(cur)
        else:
            segments.append([cur])

    best = max(segments, key=len)
    if len(best) < MIN_POINTS:
        raise TooShortError(f"{vid}: {len(best)} points after repair, need {MIN_POINTS}")
    t, x, y = zip(*best)
    return np.array(t, dtype=np.int64), np.array(x), np.array(y)


def random_track(rng):
    """Shuffled frames with fillable and splitting gaps, sometimes NaN, duplicate or negative."""
    frames, start = [], int(rng.integers(0, 5))
    span = int(rng.integers(2, 16))
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            span = int(rng.integers(2, 16))  # otherwise equal spans: tied segments
        seg = np.arange(start, start + span)
        keep = rng.random(span) > 0.3  # drops make gaps of 1-3 frames and some longer
        keep[0] = keep[-1] = True
        frames.extend(seg[keep].tolist())
        start += span + int(rng.integers(0, 8))
    frames = rng.permutation(frames)
    if rng.random() < 0.05:
        frames = frames - int(rng.integers(1, 3))
    xs = rng.normal(0.0, 50.0, len(frames))
    ys = rng.normal(0.0, 5.0, len(frames))
    if rng.random() < 0.1:
        frames = np.append(frames, rng.choice(frames))
        xs, ys = np.append(xs, 1.0), np.append(ys, 2.0)
    if rng.random() < 0.1:
        (xs if rng.random() < 0.5 else ys)[rng.integers(len(xs))] = rng.choice(
            [np.nan, np.inf, -np.inf])
    return make_trajectory(xs, ys, frame_rate=10.0, vehicle_id="v", frames=frames)


def test_validate_matches_pointwise_reference():
    rng = np.random.default_rng(20)
    outcomes = {}
    for _ in range(3000):
        traj = random_track(rng)
        try:
            expected = reference_validate(traj)
        except (NonFiniteError, SchemaError, DuplicateFrameError, TooShortError) as exc:
            with pytest.raises(type(exc)) as got:
                validate_trajectory(traj)
            assert str(got.value) == str(exc)
            outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
            continue
        out = validate_trajectory(traj)
        for col, ref in zip((out.t, out.x, out.y), expected):
            assert col.dtype == ref.dtype
            assert np.array_equal(col, ref)
        outcomes["kept"] = outcomes.get("kept", 0) + 1
    assert set(outcomes) == {
        "kept", "NonFiniteError", "SchemaError", "DuplicateFrameError", "TooShortError",
    }, outcomes


def test_duration_and_dt():
    traj = make_trajectory(np.arange(50.0), np.zeros(50), frame_rate=25.0)
    assert traj.dt == pytest.approx(0.04)
    assert traj.duration == pytest.approx(2.0)


def test_smoothing_preserves_linear_motion():
    # constant-velocity input should pass through the filter unchanged
    n = 100
    xs = 3.0 * np.arange(n) * 0.04
    ys = -1.5 * np.arange(n) * 0.04
    traj = make_trajectory(xs, ys, frame_rate=25.0)
    out = smooth_trajectory(traj)
    assert np.max(np.abs(out.x - xs)) < 1e-9
    assert np.max(np.abs(out.y - ys)) < 1e-9


def test_smoothing_reduces_noise():
    rng = np.random.default_rng(7)
    n = 200
    true_x = 8.0 * np.arange(n) * 0.04
    noisy = true_x + rng.normal(0.0, 1.0, n)
    traj = make_trajectory(noisy, np.zeros(n), frame_rate=25.0)
    out = smooth_trajectory(traj, measurement_noise=1.0)
    rmse_raw = float(np.sqrt(np.mean((noisy - true_x) ** 2)))
    rmse_smooth = float(np.sqrt(np.mean((out.x - true_x) ** 2)))
    assert rmse_smooth < rmse_raw


def test_smoothing_keeps_metadata():
    traj = make_trajectory(np.arange(10.0), np.zeros(10), label="AV",
                           unit_system="pixel", unit_scale=0.1)
    out = smooth_trajectory(traj)
    assert out.label == "AV"
    assert out.unit_system == "pixel"
    assert out.unit_scale == 0.1
    assert np.array_equal(out.t, traj.t)


def test_smoothing_rejects_bad_noise():
    traj = make_trajectory(np.arange(10.0), np.zeros(10))
    for q, r in [(0.0, 1.0), (1e-2, -1.0), (math.nan, 1.0), (1e-2, math.nan),
                 (math.inf, 1.0), (1e-2, math.inf)]:
        with pytest.raises(NonPositiveError, match="must be positive and finite"):
            smooth_trajectories([traj], q, r)


def reference_filter_axis(z: np.ndarray, dt: float, q: float, r: float) -> np.ndarray:
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


def random_fleet(rng):
    """1-12 noisy random-walk tracks of 2 to several hundred points at mixed frame rates."""
    fleet = []
    for j in range(int(rng.integers(1, 13))):
        n = int(rng.choice([2, 3, int(rng.integers(4, 40)), int(rng.integers(40, 600))]))
        fleet.append(make_trajectory(
            rng.normal(0.0, 50.0, n).cumsum(), rng.normal(0.0, 5.0, n).cumsum(),
            frame_rate=float(rng.choice([10.0, 25.0, 29.97, 30.0])), vehicle_id=f"v{j}",
        ))
    return fleet


@pytest.mark.parametrize("q,r", [(1e-2, 1.0), (1e-2, 4.0), (0.5, 0.25), (3.0, 1e-3)])
def test_batched_smoothing_matches_scalar_reference(q, r):
    rng = np.random.default_rng(int(q * 1000 + r * 7))
    for _ in range(60):
        fleet = random_fleet(rng)
        out = smooth_trajectories(fleet, q, r)
        assert len(out) == len(fleet)
        for before, after in zip(fleet, out):
            for axis in ("x", "y"):
                expected = reference_filter_axis(getattr(before, axis), before.dt, q, r)
                got = getattr(after, axis)
                assert got.dtype == np.float64
                assert np.array_equal(got, expected), (before.vehicle_id, len(before), axis)
        # each track's result does not depend on the rest of the batch
        for before, after in zip(fleet, out):
            alone = smooth_trajectory(before, q, r)
            assert np.array_equal(alone.x, after.x) and np.array_equal(alone.y, after.y)


def test_batched_smoothing_edge_cases():
    assert smooth_trajectories([]) == []
    rng = np.random.default_rng(3)
    long_a = make_trajectory(rng.normal(size=50).cumsum(), rng.normal(size=50).cumsum(),
                             vehicle_id="a", label="AV", unit_system="pixel", unit_scale=0.1)
    empty = make_trajectory([], [], vehicle_id="empty")
    single = make_trajectory([4.0], [5.0], vehicle_id="single", frame_rate=10.0)
    long_b = make_trajectory(rng.normal(size=7).cumsum(), rng.normal(size=7).cumsum(),
                             vehicle_id="b", frame_rate=30.0, label="HDV", frames=np.arange(3, 10))
    fleet = [long_b, empty, single, long_a]
    copies = [(t.t.copy(), t.x.copy(), t.y.copy()) for t in fleet]
    out = smooth_trajectories(fleet)
    assert [t.vehicle_id for t in out] == ["b", "empty", "single", "a"]
    for before, after, (t, x, y) in zip(fleet, out, copies):
        assert after is not before
        for name in ("vehicle_id", "frame_rate", "unit_scale", "unit_system", "label"):
            assert getattr(after, name) == getattr(before, name)
        assert np.array_equal(after.t, t)
        # inputs are not mutated
        assert np.array_equal(before.t, t)
        assert np.array_equal(before.x, x) and np.array_equal(before.y, y)
    for short, (_, x, y) in zip(out[1:3], copies[1:3]):
        assert np.array_equal(short.x, x) and np.array_equal(short.y, y)
    assert not np.array_equal(out[0].x, copies[0][1])
