from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_same_trajectory
from trajrules.errors import InfeasibleProfileError
from trajrules.synth import (
    AV_PROFILE,
    HDV_PROFILE,
    GeneratorConfig,
    generate_dataset,
    generate_trajectory,
    scale_profiles,
)

SMALL = GeneratorConfig(n_av=5, n_hdv=5, duration_s=60.0, seed=7)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SMALL)


def rows_for(manifest, label):
    return [r for r in manifest["trajectories"] if r["label"] == label]


def test_dataset_is_deterministic():
    cfg = GeneratorConfig(n_av=2, n_hdv=2, duration_s=36.0, seed=3)
    trajs_a, manifest_a = generate_dataset(cfg)
    trajs_b, manifest_b = generate_dataset(cfg)
    assert manifest_a == manifest_b
    for ta, tb in zip(trajs_a, trajs_b):
        assert_same_trajectory(ta, tb)


def test_population_resizing_keeps_existing_streams():
    cfg = GeneratorConfig(n_av=2, n_hdv=3, duration_s=36.0, seed=3)
    bigger = replace(cfg, n_hdv=5)
    _, small_manifest = generate_dataset(cfg)
    _, big_manifest = generate_dataset(bigger)
    assert small_manifest["trajectories"] == big_manifest["trajectories"][:5]


def test_trajectory_shape_and_metadata(small_dataset):
    trajs, manifest = small_dataset
    assert len(trajs) == 10
    expected_n = int(SMALL.duration_s * SMALL.frame_rate) + 1
    for traj in trajs:
        assert len(traj) == expected_n
        assert traj.frame_rate == SMALL.frame_rate
        assert traj.unit_system == "metric"
        assert traj.label in ("AV", "HDV")
    assert trajs[0].vehicle_id == "av_0000"
    assert trajs[5].vehicle_id == "hdv_0000"
    assert manifest["seed"] == 7
    assert set(manifest["label_means"]) == {"AV", "HDV"}


def test_av_rows_sit_inside_the_rule_envelope(small_dataset):
    _, manifest = small_dataset
    for row in rows_for(manifest, "AV"):
        s = row["stats"]
        assert s["max_decel"] < 0.6, row["vehicle_id"]
        assert s["speed_fluctuation_rate"] > 2.4, row["vehicle_id"]
        assert 0.2 <= s["pre_lane_change_decel"] <= 0.3, row["vehicle_id"]
        assert s["std_jerk"] < 0.3, row["vehicle_id"]
        assert s["std_accel"] < 1.35, row["vehicle_id"]
        assert s["std_speed"] < 2.0, row["vehicle_id"]
        assert s["lane_change_count"] == 1.0, row["vehicle_id"]


def test_hdv_rows_sit_outside_the_rule_envelope(small_dataset):
    _, manifest = small_dataset
    for row in rows_for(manifest, "HDV"):
        s = row["stats"]
        assert s["max_decel"] > 0.6, row["vehicle_id"]
        assert s["speed_fluctuation_rate"] < 2.4, row["vehicle_id"]
        assert s["std_speed"] > 2.0, row["vehicle_id"]
        assert s["std_jerk"] > 0.3, row["vehicle_id"]
        assert s["pre_lane_change_decel"] == 0.0, row["vehicle_id"]
        assert s["lane_change_count"] >= 1.0, row["vehicle_id"]


def test_label_means_track_profile_targets(small_dataset):
    _, manifest = small_dataset
    av = manifest["label_means"]["AV"]
    hdv = manifest["label_means"]["HDV"]
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
    # the config floor promises the maneuver layout fits from 36 s up
    for duration in (36.0, 42.0, 48.0):
        for seed in (0, 1):
            cfg = GeneratorConfig(n_av=2, n_hdv=2, duration_s=duration, seed=seed)
            trajs, _ = generate_dataset(cfg)
            assert len(trajs) == 4


def test_smaller_separation_narrows_the_gap():
    wide = generate_dataset(GeneratorConfig(n_av=2, n_hdv=2, seed=1))[1]
    narrow = generate_dataset(
        GeneratorConfig(n_av=2, n_hdv=2, seed=1, separation=0.4)
    )[1]

    def gap(manifest, key):
        means = manifest["label_means"]
        return abs(means["AV"][key] - means["HDV"][key])

    for key in ("std_jerk", "max_decel", "speed_fluctuation_rate"):
        assert gap(narrow, key) < gap(wide, key), key
