from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_same_trajectory, label_means, rounded
from trajrules import cli
from trajrules.config import RunConfig
from trajrules.errors import InfeasibleProfileError
from trajrules.synth import (
    AV_PROFILE,
    HDV_PROFILE,
    MIN_DURATION_S,
    MIN_FRAME_RATE,
    GeneratorConfig,
    generate_dataset,
    generate_trajectory,
    scale_profiles,
)

SMALL = GeneratorConfig(n_av=5, n_hdv=5, duration_s=60.0, seed=7)


def dataset(cfg):
    """The trajectories, and each one's features as `features --no-smoothing`
    measures them (cli._extract), every value to 6 decimals."""
    trajs = generate_dataset(cfg)
    return trajs, [{"vehicle_id": t.vehicle_id, "label": t.label,
                    "features": rounded(cli._extract(t, RunConfig())[1])} for t in trajs]


@pytest.fixture(scope="module")
def small_dataset():
    return dataset(SMALL)


def rows_for(rows, label):
    return [r for r in rows if r["label"] == label]


def test_dataset_is_deterministic():
    cfg = GeneratorConfig(n_av=2, n_hdv=2, duration_s=43.0, seed=3)
    trajs_a, rows_a = dataset(cfg)
    trajs_b, rows_b = dataset(cfg)
    assert rows_a == rows_b
    for ta, tb in zip(trajs_a, trajs_b):
        assert_same_trajectory(ta, tb)


def test_population_resizing_keeps_existing_streams():
    cfg = GeneratorConfig(n_av=2, n_hdv=3, duration_s=43.0, seed=3)
    bigger = replace(cfg, n_hdv=5)
    _, small_rows = dataset(cfg)
    _, big_rows = dataset(bigger)
    assert small_rows == big_rows[:5]


def test_trajectory_shape_and_metadata(small_dataset):
    trajs, rows = small_dataset
    assert len(trajs) == 10
    expected_n = int(SMALL.duration_s * SMALL.frame_rate) + 1
    for traj in trajs:
        assert len(traj) == expected_n
        assert traj.frame_rate == SMALL.frame_rate
        assert traj.unit_system == "metric"
        assert traj.label in ("AV", "HDV")
    assert trajs[0].vehicle_id == "av_0000"
    assert trajs[5].vehicle_id == "hdv_0000"
    assert set(label_means(rows)) == {"AV", "HDV"}


def test_av_rows_sit_inside_the_rule_envelope(small_dataset):
    _, rows = small_dataset
    for row in rows_for(rows, "AV"):
        s = row["features"]
        assert s["max_decel"] < 0.6, row["vehicle_id"]
        assert s["speed_fluctuation_rate"] > 2.4, row["vehicle_id"]
        assert 0.2 <= s["pre_lane_change_decel"] <= 0.3, row["vehicle_id"]
        assert s["std_jerk"] < 0.3, row["vehicle_id"]
        assert s["std_accel"] < 1.35, row["vehicle_id"]
        assert s["std_speed"] < 2.0, row["vehicle_id"]
        assert s["lane_change_count"] == 1.0, row["vehicle_id"]


def test_hdv_rows_sit_outside_the_rule_envelope(small_dataset):
    _, rows = small_dataset
    for row in rows_for(rows, "HDV"):
        s = row["features"]
        assert s["max_decel"] > 0.6, row["vehicle_id"]
        assert s["speed_fluctuation_rate"] < 2.4, row["vehicle_id"]
        assert s["std_speed"] > 2.0, row["vehicle_id"]
        assert s["std_jerk"] > 0.3, row["vehicle_id"]
        assert s["pre_lane_change_decel"] == 0.0, row["vehicle_id"]
        assert s["lane_change_count"] >= 1.0, row["vehicle_id"]


def test_label_means_track_profile_targets(small_dataset):
    means = label_means(small_dataset[1])
    av, hdv = means["AV"], means["HDV"]
    assert av["mean_speed"] == pytest.approx(15.0, rel=0.1)
    assert hdv["mean_speed"] == pytest.approx(12.0, rel=0.1)
    assert av["speed_fluctuation_rate"] == pytest.approx(3.0, abs=1.0)
    assert hdv["std_speed"] == pytest.approx(3.5, rel=0.25)
    assert av["std_jerk"] == pytest.approx(0.2, rel=0.3)
    assert hdv["std_jerk"] == pytest.approx(0.45, rel=0.3)


def test_infeasible_jerk_target():
    rng = np.random.Generator(np.random.PCG64(0))
    hopeless = replace(AV_PROFILE, jerk_std=0.01)
    with pytest.raises(InfeasibleProfileError):
        generate_trajectory(hopeless, SMALL, rng, "veh")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_av=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(duration_s=30.0)
    with pytest.raises(ValueError):
        GeneratorConfig(frame_rate=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(separation=-0.5)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        GeneratorConfig(seed=-1)
    for name in ("duration_s", "frame_rate", "separation"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            GeneratorConfig(**{name: float("nan")})
    # above 4/3 the AV speed_std target would be negative
    assert GeneratorConfig(separation=4 / 3).separation == 4 / 3
    with pytest.raises(ValueError, match="^separation 1.7 is too large: AV profile: "
                                         "speed_std must be nonnegative, got -0.55$"):
        GeneratorConfig(separation=1.7)
    with pytest.raises(ValueError, match="^HDV profile: decel_cap must be nonnegative"):
        replace(HDV_PROFILE, decel_cap=-0.025)


def test_scale_profiles_midpoint_math():
    av, hdv = scale_profiles(AV_PROFILE, HDV_PROFILE, 1.0)
    assert av == AV_PROFILE and hdv == HDV_PROFILE

    av0, hdv0 = scale_profiles(AV_PROFILE, HDV_PROFILE, 0.0)
    assert av0.decel_cap == hdv0.decel_cap == pytest.approx(1.25)
    assert av0.jerk_std == hdv0.jerk_std == pytest.approx(0.325)
    # unscaled fields keep their identity
    assert av0.mean_speed == 15.0 and hdv0.mean_speed == 12.0
    assert av0.regime == "pulse" and hdv0.regime == "wave"

    av_h, _ = scale_profiles(AV_PROFILE, HDV_PROFILE, 0.5)
    assert av_h.decel_cap == pytest.approx(0.875)

    with pytest.raises(ValueError):
        scale_profiles(AV_PROFILE, HDV_PROFILE, -1.0)


def test_short_durations_stay_feasible():
    # the config floors promise every vehicle calibrates from there up; each
    # case holds a vehicle that misses its jerk target just below a floor:
    # at 36 s, at 40 s, at 42 s and 50 fps, and at 11 fps
    cases = [(MIN_DURATION_S, 25.0, 0), (MIN_DURATION_S, 25.0, 7), (MIN_DURATION_S, 50.0, 8),
             (60.0, MIN_FRAME_RATE, 0), (MIN_DURATION_S, MIN_FRAME_RATE, 0)]
    for duration, frame_rate, seed in cases:
        cfg = GeneratorConfig(n_av=100, n_hdv=100, duration_s=duration,
                              frame_rate=frame_rate, seed=seed)
        assert len(generate_dataset(cfg)) == 200


def test_smaller_separation_narrows_the_gap():
    wide = dataset(GeneratorConfig(n_av=2, n_hdv=2, seed=1))[1]
    narrow = dataset(
        GeneratorConfig(n_av=2, n_hdv=2, seed=1, separation=0.4)
    )[1]

    def gap(rows, key):
        means = label_means(rows)
        return abs(means["AV"][key] - means["HDV"][key])

    for key in ("std_jerk", "max_decel", "speed_fluctuation_rate"):
        assert gap(narrow, key) < gap(wide, key), key
