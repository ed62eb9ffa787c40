"""Shared builders for the test suite."""
from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

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
    """score_table over a one-row FeatureTable of vehicle 'v'."""
    row = {"vehicle_id": "v", "features": features, "context": context,
           "unit_system": feature_units}
    return score_table(library, FeatureTable([row]))


def identify_column(scores, delta=0.5, j=0):
    """identify_vehicle on column j's sums: (decision, score, confidence)."""
    return identify_vehicle(float(scores.matched_weight[j]), float(scores.applicable_weight[j]),
                            int(scores.n_applicable[j]), delta)


class ScriptedBackend:
    """Returns canned responses, cycling when the script is shorter than the
    number of calls."""

    def __init__(self, responses):
        self._iter = itertools.cycle(responses)
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return next(self._iter)


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
