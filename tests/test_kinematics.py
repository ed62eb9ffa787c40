import math

import numpy as np
import pytest

from helpers import make_trajectory, random_walk_trajectory, sigmoid_shift
from trajrules.errors import TooShortError, WindowTooLongError
from trajrules.kinematics import (
    CORE_ATOMS,
    compute_kinematics,
    count_fluctuations,
    detect_lane_changes,
    extended_atoms,
    summarize_features,
)


def naive_kinematics(traj):
    """Plain-loop central differences, written independently of the package."""
    xs = [x * traj.unit_scale for x in traj.x.tolist()]
    ys = [y * traj.unit_scale for y in traj.y.tolist()]
    dt2 = 2.0 / traj.frame_rate
    v = [
        math.sqrt((xs[i + 1] - xs[i - 1]) ** 2 + (ys[i + 1] - ys[i - 1]) ** 2) / dt2
        for i in range(1, len(xs) - 1)
    ]
    a = [(v[i + 1] - v[i - 1]) / dt2 for i in range(1, len(v) - 1)]
    j = [(a[i + 1] - a[i - 1]) / dt2 for i in range(1, len(a) - 1)]
    return v, a, j


def test_kinematics_match_naive_loops():
    rng = np.random.default_rng(11)
    for _ in range(50):
        traj = random_walk_trajectory(rng)
        kin = compute_kinematics(traj)
        v, a, j = naive_kinematics(traj)
        assert np.allclose(kin.velocity, v, rtol=1e-12, atol=1e-12)
        assert np.allclose(kin.acceleration, a, rtol=1e-12, atol=1e-12)
        assert np.allclose(kin.jerk, j, rtol=1e-12, atol=1e-12)


def test_series_lengths():
    for n in (5, 6, 7, 8, 30):
        traj = make_trajectory(np.arange(float(n)), np.zeros(n))
        kin = compute_kinematics(traj)
        assert len(kin.velocity) == n - 2
        assert len(kin.acceleration) == n - 4
        assert len(kin.jerk) == max(0, n - 6)


def test_valid_range_spans():
    traj = make_trajectory(np.arange(10.0), np.zeros(10))
    kin = compute_kinematics(traj)
    assert kin.valid_range["velocity"] == (1, 8)
    assert kin.valid_range["acceleration"] == (2, 7)
    assert kin.valid_range["jerk"] == (3, 6)

    short = make_trajectory(np.arange(6.0), np.zeros(6))
    assert compute_kinematics(short).valid_range["jerk"] is None


def test_too_short_for_kinematics():
    with pytest.raises(TooShortError):
        compute_kinematics(make_trajectory([0.0, 1.0, 2.0, 3.0], [0.0] * 4))


def test_constant_acceleration_is_exact():
    # x = 0.5*a*t^2: central differences are exact through quadratics
    a_true = 1.7
    frame_rate = 25.0
    t = np.arange(100) / frame_rate
    traj = make_trajectory(0.5 * a_true * t * t + 40.0 * t, np.zeros(100),
                           frame_rate=frame_rate)
    kin = compute_kinematics(traj)
    assert np.allclose(kin.acceleration, a_true, rtol=1e-9)
    assert np.allclose(kin.jerk, 0.0, atol=1e-8)


def test_unit_scale_applied_before_differencing():
    n = 40
    xs = np.linspace(0.0, 100.0, n)
    metric = make_trajectory(xs * 0.1, np.zeros(n))
    pixel = make_trajectory(xs, np.zeros(n), unit_system="pixel", unit_scale=0.1)
    km = compute_kinematics(metric)
    kp = compute_kinematics(pixel)
    assert np.allclose(km.velocity, kp.velocity, rtol=1e-12)


def test_detects_single_lane_change():
    n = 400
    xs = 15.0 * np.arange(n) * 0.04
    ys = sigmoid_shift(n, 3.5, center=200.0)
    traj = make_trajectory(xs, ys)
    events = detect_lane_changes(traj, window=120, threshold=2.0)
    assert len(events) == 1
    ev = events[0]
    assert ev.direction == "right"
    assert ev.end_frame - ev.start_frame == 119
    assert ev.cumulative_displacement > 2.0
    # the representative window should bracket the transition midpoint
    assert ev.start_frame < 200 < ev.end_frame


def test_left_lane_change_direction():
    n = 400
    ys = -sigmoid_shift(n, 3.5, center=200.0)
    traj = make_trajectory(15.0 * np.arange(n) * 0.04, ys)
    events = detect_lane_changes(traj, window=120, threshold=2.0)
    assert len(events) == 1
    assert events[0].direction == "left"


def test_in_lane_oscillation_not_detected():
    # large cumulative |dy| but near-zero net displacement
    n = 400
    ys = 0.4 * np.sin(np.arange(n) * 0.3)
    traj = make_trajectory(15.0 * np.arange(n) * 0.04, ys)
    assert detect_lane_changes(traj, window=120, threshold=2.0) == []


def test_two_separated_lane_changes():
    n = 900
    ys = sigmoid_shift(n, 3.5, center=220.0) + sigmoid_shift(n, 3.5, center=650.0)
    traj = make_trajectory(15.0 * np.arange(n) * 0.04, ys)
    events = detect_lane_changes(traj, window=120, threshold=2.0)
    assert len(events) == 2
    assert events[0].end_frame < events[1].start_frame


def test_lane_change_window_validation():
    traj = make_trajectory(np.arange(50.0), np.zeros(50))
    with pytest.raises(WindowTooLongError):
        detect_lane_changes(traj, window=50, threshold=1.0)
    with pytest.raises(ValueError):
        detect_lane_changes(traj, window=1, threshold=1.0)
    with pytest.raises(ValueError):
        detect_lane_changes(traj, window=10, threshold=0.0)


def test_summarize_uses_population_std():
    rng = np.random.default_rng(3)
    traj = random_walk_trajectory(rng, n=60)
    kin = compute_kinematics(traj)
    feats = summarize_features(traj, kin, [])
    assert feats["std_speed"] == pytest.approx(float(np.std(kin.velocity)))
    assert feats["std_accel"] == pytest.approx(float(np.std(kin.acceleration)))
    assert feats["mean_speed"] == pytest.approx(float(np.mean(kin.velocity)))
    assert feats["lane_change_count"] == 0.0


def test_atoms_mapping_has_core_entries():
    traj = make_trajectory(np.arange(20.0), np.zeros(20))
    feats = summarize_features(traj, compute_kinematics(traj), [])
    assert tuple(feats) == CORE_ATOMS
    assert all(type(v) is float for v in feats.values())
    assert feats["lane_change_count"] == 0.0


def test_count_fluctuations():
    assert count_fluctuations(np.array([0.5, -0.5, 0.5])) == 2
    assert count_fluctuations(np.array([0.5, 0.05, -0.5])) == 1  # ripple dropped
    assert count_fluctuations(np.array([0.05, -0.05, 0.02])) == 0
    assert count_fluctuations(np.array([0.5, 0.6, 0.7])) == 0
    assert count_fluctuations(np.array([])) == 0
    assert count_fluctuations(np.array([0.2, -0.3]), magnitude=0.25) == 0


def test_extended_atoms_basics():
    n = 200
    frame_rate = 25.0
    t = np.arange(n) / frame_rate
    # gentle sinusoidal accel produces a known deepest deceleration
    x = 20.0 * t + 0.5 * np.sin(0.8 * t)
    traj = make_trajectory(x, np.zeros(n), frame_rate=frame_rate)
    kin = compute_kinematics(traj)
    out = extended_atoms(traj, kin, [])
    assert out["max_decel"] == pytest.approx(-float(np.min(kin.acceleration)))
    assert out["lane_change_rate"] == 0.0
    assert "pre_lane_change_decel" not in out
    assert "lane_change_angle" not in out
    assert "following_accel_delta" not in out


def test_max_decel_floors_at_zero():
    # strictly accelerating: no deceleration at all
    t = np.arange(100) / 25.0
    traj = make_trajectory(30.0 * t + 0.4 * t * t, np.zeros(100))
    kin = compute_kinematics(traj)
    assert extended_atoms(traj, kin, [])["max_decel"] == 0.0


def test_fluctuation_rate_is_per_minute():
    n = 751  # 30 s at 25 fps
    frame_rate = 25.0
    t = np.arange(n) / frame_rate
    x = 20.0 * t + 1.2 * np.sin(2.0 * np.pi * t / 10.0)
    traj = make_trajectory(x, np.zeros(n), frame_rate=frame_rate)
    kin = compute_kinematics(traj)
    out = extended_atoms(traj, kin, [])
    count = count_fluctuations(kin.acceleration)
    assert out["speed_fluctuation_rate"] == pytest.approx(count / (traj.duration / 60.0))


def test_pre_lane_change_decel_reads_braking_window():
    frame_rate = 25.0
    n = 500
    t = np.arange(n) / frame_rate
    # steady 20 m/s, then a -0.6 m/s^2 braking ramp over t in [6, 10)
    speed = 20.0 - 0.6 * np.clip(t - 6.0, 0.0, 4.0)
    x = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) / frame_rate)))
    ys = sigmoid_shift(n, 3.5, center=300.0)  # transition near t = 12 s
    traj = make_trajectory(x, ys, frame_rate=frame_rate)
    kin = compute_kinematics(traj)
    events = detect_lane_changes(traj, window=120, threshold=2.0)
    assert len(events) == 1
    out = extended_atoms(traj, kin, events)
    # the 2 s window before the detected start lies inside the braking ramp
    assert out["pre_lane_change_decel"] == pytest.approx(0.6, abs=0.05)


def test_pre_lane_change_decel_absent_without_history():
    # lane change right at the start: no acceleration history before it
    n = 400
    ys = sigmoid_shift(n, 3.5, center=30.0, steepness=0.3)
    traj = make_trajectory(15.0 * np.arange(n) * 0.04, ys)
    kin = compute_kinematics(traj)
    events = detect_lane_changes(traj, window=120, threshold=2.0)
    assert events, "setup should produce one event"
    out = extended_atoms(traj, kin, events)
    assert "pre_lane_change_decel" not in out
