"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from trajrules.classification import identify_vehicle, score_table
from trajrules.rules import FeatureTable
from trajrules.trajectory import Trajectory


def make_trajectory(xs, ys, frame_rate=25.0, vehicle_id="veh", frames=None, **kwargs):
    """Trajectory over frames 0..n-1, or over the given frames."""
    t = np.arange(len(xs)) if frames is None else frames
    return Trajectory(
        vehicle_id=vehicle_id,
        t=np.asarray(t, dtype=np.int64),
        x=np.asarray(xs, dtype=np.float64),
        y=np.asarray(ys, dtype=np.float64),
        frame_rate=frame_rate,
        **kwargs,
    )


def assert_same_trajectory(a, b):
    """Equal metadata and identical t/x/y columns, dtypes included."""
    for name in ("vehicle_id", "frame_rate", "unit_scale", "unit_system", "label"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("t", "x", "y"):
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype, name
        assert np.array_equal(col_a, col_b), name


def random_walk_trajectory(rng, n=None, frame_rate=None, vehicle_id="veh"):
    """Smooth-ish random motion: integrated random accelerations plus drift."""
    if n is None:
        n = int(rng.integers(7, 120))
    if frame_rate is None:
        frame_rate = float(rng.choice([10.0, 25.0, 30.0]))
    dt = 1.0 / frame_rate
    ax = rng.normal(0.0, 1.0, n)
    ay = rng.normal(0.0, 0.5, n)
    vx = 10.0 + np.cumsum(ax) * dt
    vy = np.cumsum(ay) * dt
    xs = np.cumsum(vx) * dt
    ys = np.cumsum(vy) * dt
    return make_trajectory(xs, ys, frame_rate=frame_rate, vehicle_id=vehicle_id)


def sigmoid_shift(n, shift, center, steepness=0.08):
    """Lateral profile moving from 0 to shift around the center index."""
    idx = np.arange(n, dtype=np.float64)
    return shift / (1.0 + np.exp(-steepness * (idx - center)))


def score_one(library, features, context="any", *, feature_units=None):
    """score_table over a one-row FeatureTable."""
    return score_table(library, FeatureTable([features], [context], units=[feature_units]))


def identify_column(scores, delta=0.5, j=0):
    """identify_vehicle on column j's sums: (decision, score, confidence)."""
    return identify_vehicle(float(scores.matched_weight[j]), float(scores.applicable_weight[j]),
                            int(scores.n_applicable[j]), delta)
