"""Seeded synthetic trajectory generator for two driving-style populations.

The generator targets feature statistics rather than simulating vehicle
physics. Each profile describes the statistics a population should exhibit
(speed spread, jerk level, acceleration fluctuation cadence, braking depth,
pre-lane-change deceleration), and the builder lays out an acceleration
timeline whose measured features land on those targets:

- pulse regime: alternating half-sine acceleration pulses set the
  fluctuation cadence; one negative pulse is deepened into a braking
  episode, and each lane change is preceded by a flat-topped deceleration
  so the pre-maneuver window reads an exact value.
- wave regime: a slow speed wave sets the speed spread, and its own
  acceleration provides the (sparser) fluctuations; braking episodes sit
  at the wave trough so they add no extra sign changes.

A small high-frequency acceleration ripple supplies the remaining jerk
variance. Its amplitude stays below the fluctuation dead band so it never
registers as a speed correction, and it is calibrated by measuring the
generated trajectory through the real feature pipeline and rescaling.

Longitudinal speed is reduced during lane changes so the measured speed
magnitude equals the commanded speed profile exactly; lateral motion is a
smooth one-lane sigmoid plus a faint in-lane sway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleProfileError
from .kinematics import compute_kinematics
from .trajectory import Trajectory

JITTER_FRACTION = 0.05
MIN_SPEED = 0.5
LANE_WIDTH = 3.5  # meters

# jerk ripple calibration
RIPPLE_NOMINAL_AMP = 0.08
RIPPLE_MAX_AMP = 0.095  # must stay under the 0.1 fluctuation dead band
RIPPLE_OMEGA_RANGE = (1.5, 25.0)
JERK_TOLERANCE = 0.15
CALIBRATION_ROUNDS = 3

# maneuver geometry (seconds)
LC_DURATION_S = 3.5
BUMP_LEAD_S = 4.4
BUMP_TAIL_S = 0.4
BUMP_RAMP_S = 0.5
PULSE_WIDTH_S = 3.0
EPISODE_WIDTH_S = 3.0
EARLIEST_LC_S = 6.0

EPISODE_CAP_FRACTION = 0.9  # braking episodes peak at this fraction of the cap

# The shortest track and the lowest frame rate from which every vehicle of the
# default fleet was built, over seeds 0-19, separations 0, 0.5 and 1, and a
# grid of lengths from 43 to 120 s and rates from 12 to 100 fps; below them
# jerk calibration misses its target on some vehicles.
MIN_DURATION_S = 43.0
MIN_FRAME_RATE = 12.0


@dataclass(frozen=True)
class BehaviorProfile:
    """Statistical targets for one driving-style population."""

    label: str
    mean_speed: float            # m/s
    speed_std: float             # m/s, target std of speed (wave regime)
    jerk_std: float              # m/s^3, target std of jerk
    fluctuation_rate: float      # acceleration sign alternations per minute
    decel_cap: float             # m/s^2, hardest braking the style allows
    lane_change_rate: float      # events per minute (at least one per trajectory)
    pre_lc_decel: float          # m/s^2 commanded before each lane change
    regime: str                  # "pulse" or "wave"
    sway_amp: float              # m, in-lane lateral sway amplitude
    pulse_amp: float = 0.3       # m/s^2, pulse regime correction size

    def __post_init__(self) -> None:
        if self.regime not in ("pulse", "wave"):
            raise ValueError(f"unknown regime {self.regime!r}")
        for name, value in vars(self).items():
            if isinstance(value, (int, float)) and not value >= 0:
                raise ValueError(f"{self.label} profile: {name} must be nonnegative, got {value:g}")


AV_PROFILE = BehaviorProfile(
    label="AV", mean_speed=15.0, speed_std=0.5, jerk_std=0.2,
    fluctuation_rate=3.0, decel_cap=0.5, lane_change_rate=1.0,
    pre_lc_decel=0.25, regime="pulse", sway_amp=0.01,
)

HDV_PROFILE = BehaviorProfile(
    label="HDV", mean_speed=12.0, speed_std=3.5, jerk_std=0.45,
    fluctuation_rate=1.0, decel_cap=2.0, lane_change_rate=0.5,
    pre_lc_decel=0.09, regime="wave", sway_amp=0.15,
)


@dataclass(frozen=True)
class GeneratorConfig:
    n_av: int = 100
    n_hdv: int = 400
    duration_s: float = 60.0
    frame_rate: float = 25.0
    seed: int = 0
    separation: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_av < 0 or self.n_hdv < 0:
            raise ValueError("population sizes must be nonnegative")
        if self.duration_s < MIN_DURATION_S:
            raise ValueError(f"duration_s below {MIN_DURATION_S:g} s is too short "
                             "to calibrate every vehicle")
        if self.frame_rate < MIN_FRAME_RATE:
            raise ValueError(f"frame_rate below {MIN_FRAME_RATE:g} fps is too coarse "
                             "to calibrate every vehicle")
        frames = self.duration_s * self.frame_rate
        if not frames < np.iinfo(np.intp).max:
            raise ValueError(f"duration_s * frame_rate is {frames:g} frames, "
                             "beyond numpy's index range")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        try:  # here rather than part way through generate_dataset
            scale_profiles(AV_PROFILE, HDV_PROFILE, self.separation)
        except ValueError as exc:
            raise ValueError(f"separation {self.separation} is too large: {exc}") from exc


_SCALED_FIELDS = ("speed_std", "jerk_std", "fluctuation_rate", "decel_cap", "pre_lc_decel")


def scale_profiles(
    av: BehaviorProfile, hdv: BehaviorProfile, separation: float,
) -> tuple[BehaviorProfile, BehaviorProfile]:
    """Move the two profiles toward (separation < 1) or away from (> 1)
    their per-field midpoints. separation 1 returns the profiles unchanged;
    0 collapses every scaled statistic onto the shared midpoint."""
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    av_patch = {}
    hdv_patch = {}
    for name in _SCALED_FIELDS:
        a = getattr(av, name)
        b = getattr(hdv, name)
        mid = 0.5 * (a + b)
        av_patch[name] = mid + separation * (a - mid)
        hdv_patch[name] = mid + separation * (b - mid)
    return replace(av, **av_patch), replace(hdv, **hdv_patch)


def _half_sine(t: np.ndarray, start: float, width: float, amp: float) -> np.ndarray:
    u = (t - start) / width
    out = np.zeros_like(t)
    m = (u >= 0.0) & (u <= 1.0)
    out[m] = amp * np.sin(np.pi * u[m])
    return out


def _plateau(t: np.ndarray, start: float, end: float, ramp: float) -> np.ndarray:
    """0..1 trapezoid: cosine ramps of the given width, flat in between."""
    out = np.zeros_like(t)
    rise = (t >= start) & (t < start + ramp)
    out[rise] = 0.5 * (1.0 - np.cos(np.pi * (t[rise] - start) / ramp))
    out[(t >= start + ramp) & (t <= end - ramp)] = 1.0
    fall = (t > end - ramp) & (t <= end)
    out[fall] = 0.5 * (1.0 - np.cos(np.pi * (end - t[fall]) / ramp))
    return out


@dataclass
class _Layout:
    base_accel: np.ndarray   # pulses, episodes, pre-maneuver bumps, wave accel
    y: np.ndarray            # lateral position
    vy: np.ndarray           # lateral velocity
    ripple_mask: np.ndarray  # 1 where the jerk ripple may act


def _jitter(rng: np.random.Generator, value: float) -> float:
    return value * (1.0 + JITTER_FRACTION * rng.uniform(-1.0, 1.0))


def _lateral_path(
    t: np.ndarray,
    lc_starts: list[float],
    directions: list[int],
    sway_amp: float,
    sway_period: float,
    sway_phase: float,
) -> tuple[np.ndarray, np.ndarray]:
    k = 4.4 / LC_DURATION_S  # ~90% of the transition inside the nominal duration
    y = sway_amp * np.sin(2.0 * np.pi * t / sway_period + sway_phase)
    vy = sway_amp * (2.0 * np.pi / sway_period) * np.cos(2.0 * np.pi * t / sway_period + sway_phase)
    for t0, direction in zip(lc_starts, directions):
        center = t0 + 0.5 * LC_DURATION_S
        arg = k * (t - center)
        y = y + direction * 0.5 * LANE_WIDTH * (1.0 + np.tanh(arg))
        with np.errstate(over="ignore"):  # far from the maneuver cosh**2 is inf, k/inf is 0
            vy = vy + direction * 0.5 * LANE_WIDTH * k / np.cosh(arg) ** 2
    return y, vy


def _lc_start_times(n_lc: int, duration: float, first: float | None) -> list[float]:
    latest = duration - LC_DURATION_S - 4.0
    if n_lc == 1:
        t0 = first if first is not None else 0.5 * duration
        return [min(max(t0, EARLIEST_LC_S), latest)]
    starts = np.linspace(EARLIEST_LC_S if first is None else first, latest, n_lc)
    return [float(min(max(s, EARLIEST_LC_S), latest)) for s in starts]


def _pulse_layout(
    profile: BehaviorProfile,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    t: np.ndarray,
) -> _Layout:
    duration = cfg.duration_s
    n_alt = max(1, round(profile.fluctuation_rate * duration / 60.0))
    n_items = n_alt + 1
    spacing = duration / n_items
    if spacing < BUMP_LEAD_S + BUMP_TAIL_S + 1.0:
        raise InfeasibleProfileError(
            f"{profile.label}: fluctuation rate {profile.fluctuation_rate}/min "
            f"leaves no room for maneuvers in {duration} s"
        )
    pulse_width = min(PULSE_WIDTH_S, 0.6 * spacing)
    slots = [duration * (2 * i + 1) / (2 * n_items) for i in range(n_items)]

    n_lc = max(1, round(profile.lane_change_rate * duration / 60.0))
    lc_starts = _lc_start_times(n_lc, duration, None)
    lc_starts = [s + rng.uniform(-1.0, 1.0) for s in lc_starts]
    directions = [int(rng.choice((-1, 1))) for _ in lc_starts]

    # every pre-maneuver bump replaces the pulse slot nearest its center
    claimed: dict[int, float] = {}
    for t0 in lc_starts:
        center = t0 - 0.5 * (BUMP_LEAD_S - BUMP_TAIL_S)
        free = [i for i in range(n_items) if i not in claimed]
        if not free:
            raise InfeasibleProfileError(
                f"{profile.label}: more lane changes than acceleration slots"
            )
        idx = min(free, key=lambda i: abs(slots[i] - center))
        claimed[idx] = t0

    # signs alternate in time order; bumps are braking, so the first bump
    # pins the parity and any later conflict is tolerated
    items = sorted(range(n_items), key=lambda i: claimed.get(i, slots[i]))
    first_bump_pos = next(pos for pos, i in enumerate(items) if i in claimed)
    signs = {}
    for pos, i in enumerate(items):
        signs[i] = -1 if (pos - first_bump_pos) % 2 == 0 else 1

    pre_lc = _jitter(rng, profile.pre_lc_decel)
    cap_peak = EPISODE_CAP_FRACTION * _jitter(rng, profile.decel_cap)
    neg_pulses = [i for i in range(n_items) if i not in claimed and signs[i] < 0]
    if not neg_pulses:
        # parity starvation: with few slots the bumps can eat every negative
        # one. When all free slots are positive the time-last item is too, so
        # one slot appended at the tail alternates to negative; it costs one
        # extra alternation, which only raises the fluctuation rate.
        new_slot = duration - 0.25 - 0.5 * pulse_width
        last_key = max(claimed.get(i, slots[i]) for i in range(n_items))
        if signs[items[-1]] < 0 or new_slot <= last_key:
            raise InfeasibleProfileError(
                f"{profile.label}: no free braking slot for the deceleration episode"
            )
        slots.append(new_slot)
        signs[n_items] = -1
        neg_pulses = [n_items]
        n_items += 1
    episode = max(
        neg_pulses,
        key=lambda i: min(abs(slots[i] - t0) for t0 in lc_starts),
    )

    accel = np.zeros_like(t)
    mask = np.ones_like(t)
    for i in range(n_items):
        if i in claimed:
            t0 = claimed[i]
            start, end = t0 - BUMP_LEAD_S, t0 + BUMP_TAIL_S
            accel -= pre_lc * _plateau(t, start, end, BUMP_RAMP_S)
            mask *= 1.0 - _plateau(t, start - 1.0, end + 1.0, BUMP_RAMP_S)
        else:
            amp = cap_peak if i == episode else _jitter(rng, profile.pulse_amp)
            accel += _half_sine(t, slots[i] - 0.5 * pulse_width, pulse_width, signs[i] * amp)

    sway_phase = rng.uniform(0.0, 2.0 * np.pi)
    y, vy = _lateral_path(t, lc_starts, directions, profile.sway_amp, 8.0, sway_phase)
    return _Layout(accel, y, vy, mask)


def _wave_layout(
    profile: BehaviorProfile,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    t: np.ndarray,
) -> _Layout:
    duration = cfg.duration_s
    omega = np.pi * profile.fluctuation_rate / 60.0
    unit_std = float(np.std(np.sin(omega * t)))
    if unit_std < 1e-9:
        raise InfeasibleProfileError(
            f"{profile.label}: fluctuation rate {profile.fluctuation_rate}/min "
            "gives a flat speed wave"
        )
    # integrating wave_accel reproduces a speed wave whose std is the target
    amplitude = _jitter(rng, profile.speed_std) / unit_std
    wave_accel = amplitude * omega * np.cos(omega * t)

    accel = wave_accel.copy()
    mask = np.ones_like(t)

    # braking episode at the wave trough: deepest point, no extra sign change
    cap_peak = EPISODE_CAP_FRACTION * _jitter(rng, profile.decel_cap)
    half_w = 0.5 * EPISODE_WIDTH_S
    t_trough = float(t[np.argmin(wave_accel)])
    t_trough = min(max(t_trough, half_w + 0.5), duration - half_w - 0.5)
    trough_accel = float(amplitude * omega * np.cos(omega * t_trough))
    depth = cap_peak + trough_accel  # trough_accel is negative
    if depth > 0:
        accel -= _half_sine(t, t_trough - half_w, EPISODE_WIDTH_S, depth)

    # lane changes start where the wave accelerates hardest, so the
    # pre-maneuver window reads throttle, not braking
    n_lc = max(1, round(profile.lane_change_rate * duration / 60.0))
    t_crest = float(t[np.argmax(wave_accel)])
    lc_starts = _lc_start_times(n_lc, duration, max(t_crest, EARLIEST_LC_S))
    directions = [int(rng.choice((-1, 1))) for _ in lc_starts]
    pre_lc = _jitter(rng, profile.pre_lc_decel)
    for t0 in lc_starts:
        start, end = t0 - BUMP_LEAD_S, t0 + BUMP_TAIL_S
        accel -= pre_lc * _plateau(t, start, end, BUMP_RAMP_S)
        mask *= 1.0 - _plateau(t, start - 1.0, end + 1.0, BUMP_RAMP_S)

    sway_phase = rng.uniform(0.0, 2.0 * np.pi)
    y, vy = _lateral_path(t, lc_starts, directions, profile.sway_amp, 7.0, sway_phase)
    return _Layout(accel, y, vy, mask)


def _realize(
    layout: _Layout,
    t: np.ndarray,
    dt: float,
    mean_speed: float,
    ripple_amp: float,
    ripple_omega: float,
    ripple_phase: float,
    frame_rate: float,
    vehicle_id: str,
    label: str,
) -> Trajectory:
    accel = layout.base_accel
    if ripple_amp > 0.0:
        accel = accel + ripple_amp * np.sin(ripple_omega * t + ripple_phase) * layout.ripple_mask
    dv = np.concatenate(([0.0], np.cumsum(0.5 * (accel[1:] + accel[:-1]) * dt)))
    speed = mean_speed + (dv - dv.mean())
    if float(speed.min()) < MIN_SPEED:
        raise InfeasibleProfileError(
            f"{vehicle_id}: commanded speed dips to {speed.min():.2f} m/s; "
            "targets are jointly infeasible"
        )
    vx_sq = speed * speed - layout.vy * layout.vy
    if float(vx_sq.min()) <= 0.0:
        raise InfeasibleProfileError(
            f"{vehicle_id}: lateral velocity exceeds commanded speed"
        )
    vx = np.sqrt(vx_sq)
    x = np.concatenate(([0.0], np.cumsum(0.5 * (vx[1:] + vx[:-1]) * dt)))
    return Trajectory(
        vehicle_id=vehicle_id,
        t=np.arange(len(t)),
        x=x,
        y=layout.y,
        frame_rate=frame_rate,
        unit_system="metric",
        label=label,
    )


def _jerk_std(traj: Trajectory) -> float:
    kin = compute_kinematics(traj)
    return float(np.std(kin.jerk)) if kin.jerk.size else 0.0


def generate_trajectory(
    profile: BehaviorProfile,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    vehicle_id: str,
) -> Trajectory:
    """Build one trajectory whose measured features hit the profile targets.

    The jerk ripple is calibrated against the real kinematics pipeline:
    generate, measure, rescale, at most CALIBRATION_ROUNDS times. Raises
    InfeasibleProfileError when the targets cannot be reached, e.g. the
    base layout already exceeds the jerk target by more than the tolerance
    or the speed profile would stall.
    """
    dt = 1.0 / cfg.frame_rate
    n = int(round(cfg.duration_s * cfg.frame_rate)) + 1
    t = np.arange(n) * dt
    if profile.regime == "pulse":
        layout = _pulse_layout(profile, cfg, rng, t)
    else:
        layout = _wave_layout(profile, cfg, rng, t)

    mean_speed = _jitter(rng, profile.mean_speed)
    jerk_target = _jitter(rng, profile.jerk_std)
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def build(amp: float, omega: float) -> Trajectory:
        return _realize(layout, t, dt, mean_speed, amp, omega, phase,
                        cfg.frame_rate, vehicle_id, profile.label)

    base = build(0.0, 1.0)
    base_std = _jerk_std(base)
    needed_var = jerk_target ** 2 - base_std ** 2
    if needed_var <= 0.0:
        if base_std <= (1.0 + JERK_TOLERANCE) * jerk_target:
            return base
        raise InfeasibleProfileError(
            f"{vehicle_id}: layout jerk {base_std:.3f} already exceeds "
            f"target {jerk_target:.3f}"
        )
    needed_std = math.sqrt(needed_var)
    omega = min(max(math.sqrt(2.0) * needed_std / RIPPLE_NOMINAL_AMP,
                    RIPPLE_OMEGA_RANGE[0]), RIPPLE_OMEGA_RANGE[1])
    amp = math.sqrt(2.0) * needed_std / omega

    for _ in range(CALIBRATION_ROUNDS):
        amp = min(amp, RIPPLE_MAX_AMP)
        traj = build(amp, omega)
        measured = _jerk_std(traj)
        if abs(measured - jerk_target) <= JERK_TOLERANCE * jerk_target:
            return traj
        achieved_var = measured ** 2 - base_std ** 2
        if achieved_var <= 1e-12:
            amp *= 2.0
        else:
            amp *= math.sqrt(needed_var / achieved_var)
    raise InfeasibleProfileError(
        f"{vehicle_id}: jerk calibration missed target {jerk_target:.3f} "
        f"after {CALIBRATION_ROUNDS} rounds"
    )


def generate_dataset(cfg: GeneratorConfig) -> list[Trajectory]:
    """Generate both populations, the AVs first.

    Reproducible per trajectory: each one draws from its own stream keyed
    by (seed, population index, trajectory index), so resizing one
    population never shifts the other.
    """
    av_profile, hdv_profile = scale_profiles(AV_PROFILE, HDV_PROFILE, cfg.separation)
    trajectories: list[Trajectory] = []
    groups = (("AV", 0, cfg.n_av, av_profile), ("HDV", 1, cfg.n_hdv, hdv_profile))
    for label, label_idx, count, profile in groups:
        for i in range(count):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(label_idx, i))
            rng = np.random.Generator(np.random.PCG64(seq))
            trajectories.append(generate_trajectory(profile, cfg, rng, f"{label.lower()}_{i:04d}"))
    return trajectories
