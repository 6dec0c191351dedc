"""Self-contained environments: a 3-D toy cannon and a DMP-based thrower.

The cannon shoots from the origin over random hilly terrain at ground
targets; its controller parameters are horizontal orientation, vertical
angle, and launch speed.  The thrower integrates a dynamic movement
primitive from a start position, releases a ball with the end-effector's
final state, and scores the ballistic landing point.  Both environments
satisfy the factorization premise: the commanded target never enters the
dynamics, so landings can be re-scored under arbitrary targets.

Each task has one contract: a rollout maps (world, env context, theta,
rng) to the landing, a (2,) array, after checking the env context's and
theta's shapes and theta's box; the rng draws the cannon's launch noise,
``None`` is the noise-free shot, and the thrower has no noise.  A reward
scores targets against landings and theta in ``batch(targets, landings,
params)``, and its one-row call is that batch on one row.  Gravity, launch
noise, the DMP gains and the thrower's clock and shape weights are module
constants; the worlds' ``replay_metadata`` records gravity, launch noise
and the clock.  Every DMP starts at rest.

A cannon landing is found by a vectorized scan of the arc on a 0.01 time
grid, then bisection on Python floats that stops at its fixed point, the
first step that leaves the bracket unchanged (after about 45 steps, at
most 100); the result equals that of 100 bisection steps bit for bit.

A DMP's forcing term depends only on the phase and the shape weights, and
an RK4 run visits 2n+1 phases, so it is computed once per run as a phase
table (once per ``ThrowerWorld``, which keeps it); the RK4 then runs on
Python floats, one spatial dimension at a time, with the operations and
the order of the array RK4 it replaced, and equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError
from .optim import SearchSpace

# cannon boxes: theta = (alpha, beta, v), targets on the ground plane
CANNON_PARAM_SPACE = SearchSpace(
    [0.0, 0.01, 0.1], [2.0 * math.pi, math.pi / 2 - 0.2, 5.0])
CANNON_TARGET_SPACE = SearchSpace([-11.0, -11.0], [11.0, 11.0])
# the cannon has no env context
CANNON_ENV_SPACE = SearchSpace(np.zeros(0), np.zeros(0))
# active variant appends the shoot indicator to the target context
ACTIVE_CANNON_TARGET_SPACE = SearchSpace([-11.0, -11.0, 0.0], [11.0, 11.0, 1.0])

# flat launch pad: terrain is masked to zero inside PAD_RADIUS and blends
# smoothly up to full height at PAD_BLEND_RADIUS; generated hill centers
# stay outside the blend region so each keeps its nominal peak
PAD_RADIUS = 1.5
PAD_BLEND_RADIUS = 3.0
CANNON_HILLS = 4
CANNON_GRAVITY = 1.0
# standard deviation of the noise a rollout with an rng adds to each launch
# angle
LAUNCH_NOISE_DEG = 1.0


# eq=False: ndarray fields; worlds compare by replay_metadata()
@dataclass(frozen=True, eq=False)
class Hill:
    center: np.ndarray
    height: float
    width: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        if center.shape != (2,):
            raise ContractError("hill center must be a 2-vector")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        if not (self.height >= 0 and np.isfinite(self.height)):
            raise ContractError("hill height must be non-negative")
        if not (self.width > 0 and np.isfinite(self.width)):
            raise ContractError("hill width must be positive")


# eq=False: ndarray fields; worlds compare by replay_metadata()
@dataclass(frozen=True, eq=False)
class CannonWorld:
    hills: tuple[Hill, ...]
    seed: int

    @classmethod
    def generate(cls, seed: int) -> "CannonWorld":
        """A world of ``CANNON_HILLS`` random hills."""
        rng = np.random.default_rng(seed)
        hills = []
        while len(hills) < CANNON_HILLS:
            center = rng.uniform(CANNON_TARGET_SPACE.lower,
                                 CANNON_TARGET_SPACE.upper)
            if np.hypot(center[0], center[1]) < PAD_BLEND_RADIUS:
                continue
            height = rng.uniform(0.5, 2.0)
            width = rng.uniform(1.5, 3.0)
            hills.append(Hill(center, height, width))
        return cls(hills=tuple(hills), seed=seed)

    def replay_metadata(self) -> dict:
        return {
            "kind": "cannon",
            "gravity": CANNON_GRAVITY,
            "launch_noise_deg": LAUNCH_NOISE_DEG,
            "seed": self.seed,
            "hills": [{"center": h.center.tolist(), "height": h.height,
                       "width": h.width} for h in self.hills],
        }


def _pad_mask(r):
    # C2-smooth 0 -> 1 ramp between the pad edge and the blend radius
    u = np.clip((r - PAD_RADIUS) / (PAD_BLEND_RADIUS - PAD_RADIUS), 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def terrain_elevation(world: CannonWorld, x, y):
    """Ground height at (x, y); zero on the launch pad around the origin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for h in world.hills:
        d2 = (x - h.center[0]) ** 2 + (y - h.center[1]) ** 2
        total += h.height * np.exp(-d2 / (2.0 * h.width**2))
    masked = _pad_mask(np.hypot(x, y)) * total
    if masked.ndim == 0:
        return float(masked)
    return masked


_LANDING_DT = 0.01
_LANDING_TMAX = 100.0


def _point_elevation(world: CannonWorld):
    """``terrain_elevation`` at one point, on Python floats.

    The per-hill constants are taken once; the operations and their order
    are those of ``terrain_elevation`` on a single point, so the two agree
    bit for bit.  That means numpy's exp and hypot (``math.exp`` can round
    differently) and ``** 2``, which is libm's pow on a scalar and now and
    then differs from ``x * x`` in the last bit.
    """
    hills = [(float(h.center[0]), float(h.center[1]), h.height,
              2.0 * h.width**2) for h in world.hills]
    blend = PAD_BLEND_RADIUS - PAD_RADIUS

    def elevation(x: float, y: float) -> float:
        total = 0.0
        for cx, cy, height, denom in hills:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            total += height * float(np.exp(-d2 / denom))
        u = min(max((float(np.hypot(x, y)) - PAD_RADIUS) / blend, 0.0), 1.0)
        return u * u * u * (u * (6.0 * u - 15.0) + 10.0) * total

    return elevation


def _first_landing_time(world: CannonWorld, vel: np.ndarray) -> float:
    """First t > 0 where the ballistic arc meets the terrain."""
    g = CANNON_GRAVITY
    vx, vy, vz = (float(c) for c in vel)
    elevation = _point_elevation(world)

    def gap(t):
        return (vz * t - 0.5 * g * t * t) - elevation(vx * t, vy * t)

    # terrain never dips below the z = 0 plane, so the flat-ground landing
    # time bounds the search horizon
    t_flat = max(2.0 * vz / g, 0.0)
    if t_flat > _LANDING_TMAX:
        raise ContractError("trajectory exceeds the landing time horizon")
    hi = _LANDING_DT
    if t_flat > _LANDING_DT:
        grid = np.arange(_LANDING_DT, t_flat + 2 * _LANDING_DT, _LANDING_DT)
        z = vz * grid - 0.5 * g * grid * grid
        gaps = z - terrain_elevation(world, vx * grid, vy * grid)
        below = gaps <= 0.0
        if not np.any(below):
            raise ContractError("ballistic arc never re-enters the terrain")
        first = int(np.argmax(below))
        hi = float(grid[first])
    lo = max(hi - _LANDING_DT, 0.0)
    # the set {t: arc above ground} starts at 0+, so bisect its boundary;
    # a step that moves neither end would repeat forever, so the result is
    # that of all 100 steps
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    t_land = 0.5 * (lo + hi)
    if abs(gap(t_land)) > 1e-8:
        raise ContractError("landing refinement failed to meet tolerance")
    return t_land


def cannon_rollout(world: CannonWorld, env_context, theta,
                   rng: np.random.Generator | None) -> np.ndarray:
    """Fire once; returns the landing point.

    theta is (horizontal orientation alpha, vertical angle beta, speed v)
    and the env context is empty.  With an rng both angles are perturbed by
    independent Gaussian noise of ``LAUNCH_NOISE_DEG`` degrees; the
    commanded target never enters.
    """
    if np.shape(env_context) != (CANNON_ENV_SPACE.dim,):
        raise ContractError("the cannon takes an empty env context")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ContractError("launch parameter vector must have 3 entries")
    if not CANNON_PARAM_SPACE.contains(theta):
        raise ContractError("launch parameters outside their box")
    alpha, beta, v = theta.tolist()
    if rng is not None:
        sigma = math.radians(LAUNCH_NOISE_DEG)
        alpha = alpha + sigma * rng.standard_normal()
        beta = beta + sigma * rng.standard_normal()
    vel = v * np.array([
        math.cos(beta) * math.cos(alpha),
        math.cos(beta) * math.sin(alpha),
        math.sin(beta),
    ])
    t_land = _first_landing_time(world, vel)
    return np.array([vel[0] * t_land, vel[1] * t_land])


class Reward:
    """A reward's one-row call: ``batch`` on a single (target, landing,
    params) row, so scalar and batched scores agree bit for bit.
    Subclasses define ``batch(targets, landings, params)``."""

    def __call__(self, target, landing, params) -> float:
        return float(self.batch(np.asarray(target, dtype=float)[None, :],
                                np.asarray(landing, dtype=float)[None, :],
                                np.asarray(params, dtype=float)[None, :])[0])


class CannonReward(Reward):
    """R = -||target - landing|| - 0.05 v^2, with v theta's commanded speed."""

    def batch(self, targets, landings, params):
        targets = np.asarray(targets, dtype=float)
        params = np.asarray(params, dtype=float)
        delta = targets - np.asarray(landings, dtype=float)
        dist = np.sqrt(np.sum(delta * delta, axis=1))
        return -dist - 0.05 * params[:, 2] * params[:, 2]


class ActiveCannonReward(CannonReward):
    """Cannon reward gated by the shoot indicator in the target context.

    With the indicator above 0.1 the task is "don't shoot": the reward is
    the negated norm of the commanded parameter vector.  The indicator is a
    pure target-type context; it never enters the rollout.
    """

    indicator_threshold = 0.1

    def batch(self, targets, landings, params):
        targets = np.asarray(targets, dtype=float)
        params = np.asarray(params, dtype=float)
        shoot = super().batch(targets[:, :2], landings, params)
        hold = -np.sqrt(np.sum(params * params, axis=1))
        return np.where(targets[:, 2] <= self.indicator_threshold, shoot, hold)


# ---------------------------------------------------------------------------
# dynamic movement primitives
# ---------------------------------------------------------------------------

# critically damped gains: DMP_DAMPING == 2 * sqrt(DMP_SPRING)
DMP_SPRING = 625.0 / 4.0
DMP_DAMPING = 25.0
DMP_PHASE_DECAY = 25.0 / 3.0
DMP_BASIS_COUNT = 25


@dataclass(frozen=True)
class DmpParams:
    """Critically damped trajectory generator with a learned forcing term."""

    shape_weights: np.ndarray  # (basis count, spatial dims)
    goal: np.ndarray
    goal_velocity: np.ndarray
    duration: float

    def __post_init__(self):
        w = np.array(self.shape_weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ContractError("shape_weights must be (basis count >= 2, dims)")
        w.flags.writeable = False
        object.__setattr__(self, "shape_weights", w)
        goal = np.array(self.goal, dtype=float)
        gvel = np.array(self.goal_velocity, dtype=float)
        if goal.shape != (w.shape[1],) or gvel.shape != (w.shape[1],):
            raise ContractError("goal and goal_velocity must match weight dims")
        goal.flags.writeable = False
        gvel.flags.writeable = False
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "goal_velocity", gvel)
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ContractError("duration must be positive")

    @property
    def dims(self) -> int:
        return self.shape_weights.shape[1]


def _basis_centers(n_basis: int) -> tuple[np.ndarray, np.ndarray]:
    # centers traced by the phase at equally spaced normalized times
    times = np.linspace(0.0, 1.0, n_basis)
    centers = np.exp(-DMP_PHASE_DECAY * times)
    gaps = np.diff(centers)
    widths = 1.0 / (2.0 * gaps**2)
    widths = np.append(widths, widths[-1])
    return centers, widths


def _forcing_features_for(z, centers, widths) -> np.ndarray:
    # normalized, phase-gated basis activations
    z = np.atleast_1d(np.asarray(z, dtype=float))
    phi = np.exp(-widths[None, :] * (z[:, None] - centers[None, :]) ** 2)
    return z[:, None] * phi / np.sum(phi, axis=1, keepdims=True)


def _phase_table(shape_weights: np.ndarray, du: float,
                 n_steps: int) -> tuple[list[float], list[list[float]]]:
    """The 2n+1 phases an RK4 run visits and the forcing at each.

    Entry 2k is step k's start u_k, entry 2k+1 its midpoint u_k + du/2 and
    the last entry u_n, the end of the final step (RK4's ``u + du`` equals
    the next step's ``u``).  Returns ``1 - u`` per phase and, per spatial
    dimension, the forcing at each phase, every row computed one phase at
    a time by the expression the array RK4 used.
    """
    centers, widths = _basis_centers(shape_weights.shape[0])

    def force(u):
        z = math.exp(-DMP_PHASE_DECAY * u)
        return _forcing_features_for(z, centers, widths)[0] @ shape_weights

    phases = []
    u = 0.0
    for _ in range(n_steps):
        phases += [u, u + du / 2]
        u += du
    phases.append(u)
    rows = np.array([force(u) for u in phases])
    return [1.0 - u for u in phases], rows.T.tolist()


def _rk4(p: DmpParams, table, y0, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 over a ``_phase_table``, one spatial dimension at a time.

    The dimensions are coupled only through the shared phase, so each runs
    on Python floats with the operations and the order of the array RK4
    (``p.goal - ramp * (1 - u)``, then ``spring * (goal - y) - damping *
    yd + damping * ramp + force``); the results equal it bit for bit.
    """
    rest, forcing = table
    spring, damping, duration = DMP_SPRING, DMP_DAMPING, p.duration
    ramp = duration * p.goal_velocity  # goal speed in normalized time
    du = dt / duration
    half, sixth = du / 2, du / 6
    positions = np.empty((n_steps + 1, p.dims))
    velocities = np.empty((n_steps + 1, p.dims))
    for dim in range(p.dims):
        goal, r = float(p.goal[dim]), float(ramp[dim])
        pull = damping * r
        moving_goal = [goal - r * q for q in rest]
        force = forcing[dim]
        y, yd = float(y0[dim]), 0.0  # every DMP starts at rest
        ys, vs = [y], [0.0]
        for i in range(0, 2 * n_steps, 2):
            a1 = spring * (moving_goal[i] - y) - damping * yd + pull + force[i]
            y2, v2 = y + half * yd, yd + half * a1
            a2 = spring * (moving_goal[i + 1] - y2) - damping * v2 + pull \
                + force[i + 1]
            y3, v3 = y + half * v2, yd + half * a2
            a3 = spring * (moving_goal[i + 1] - y3) - damping * v3 + pull \
                + force[i + 1]
            y4, v4 = y + du * v3, yd + du * a3
            a4 = spring * (moving_goal[i + 2] - y4) - damping * v4 + pull \
                + force[i + 2]
            y = y + sixth * (yd + 2 * v2 + 2 * v3 + v4)
            yd = yd + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
            ys.append(y)
            vs.append(yd / duration)
        positions[:, dim] = ys
        velocities[:, dim] = vs
    return positions, velocities


def dmp_integrate(p: DmpParams, y0, dt: float,
                  n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration from rest at ``y0``; returns positions and real-time
    velocities per step.

    The system runs in normalized time so that scaling ``duration`` and
    ``dt`` together reproduces the same path.  A goal moving linearly into
    (goal, goal_velocity) at the final time makes nonzero end velocities
    exact tracking solutions rather than steady-state lags.
    """
    if dt <= 0 or n_steps < 1:
        raise ContractError("dt must be positive and n_steps at least 1")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (p.dims,):
        raise ContractError(f"start state must have shape ({p.dims},)")
    table = _phase_table(p.shape_weights, dt / p.duration, n_steps)
    return _rk4(p, table, y0, dt, n_steps)


def dmp_imitate(demo: np.ndarray, basis_count: int) -> np.ndarray:
    """Least-squares shape weights reproducing a demonstrated path.

    The demo rows are positions sampled uniformly in time; the weights live
    in normalized time, so they hold for any duration.  The goal state is
    taken from the demo's end.
    """
    demo = np.asarray(demo, dtype=float)
    if demo.ndim != 2 or demo.shape[0] < 5:
        raise ContractError("demo must be (n >= 5 samples, dims)")
    if basis_count < 2:
        raise ContractError("need at least two basis functions")
    n = demo.shape[0] - 1
    du = 1.0 / n
    u = np.linspace(0.0, 1.0, n + 1)
    vel = np.gradient(demo, du, axis=0)  # normalized-time derivatives
    acc = np.gradient(vel, du, axis=0)

    goal = demo[-1]
    ramp = vel[-1]  # == duration * goal_velocity
    moving_goal = goal[None, :] - ramp[None, :] * (1.0 - u)[:, None]
    forcing = acc - DMP_SPRING * (moving_goal - demo) + DMP_DAMPING * vel \
        - DMP_DAMPING * ramp[None, :]

    centers, widths = _basis_centers(basis_count)
    z = np.exp(-DMP_PHASE_DECAY * u)
    design = _forcing_features_for(z, centers, widths)
    weights, *_ = np.linalg.lstsq(design, forcing, rcond=None)
    return weights


def imitate_params(demo: np.ndarray, basis_count: int,
                   duration: float) -> DmpParams:
    """Full DMP fitted to a demo: weights plus its end state as the goal."""
    demo = np.asarray(demo, dtype=float)
    weights = dmp_imitate(demo, basis_count)
    n = demo.shape[0] - 1
    vel = np.gradient(demo, 1.0 / n, axis=0)
    return DmpParams(shape_weights=weights, goal=demo[-1],
                     goal_velocity=vel[-1] / duration, duration=duration)


# ---------------------------------------------------------------------------
# thrower
# ---------------------------------------------------------------------------

# axis 1 is height; ground is the height = 0 plane and landings are the
# (axis 0, axis 2) coordinates
THROWER_GRAVITY = 9.81
THROWER_GOAL_SPACE = SearchSpace([-0.5, 1.0, -0.5], [0.5, 1.5, 0.5])
THROWER_GOAL_VEL_SPACE = SearchSpace([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
THROWER_PARAM_SPACE = THROWER_GOAL_SPACE.concat(THROWER_GOAL_VEL_SPACE)
THROWER_START_SPACE = SearchSpace([-0.2, 0.8, -0.2], [0.2, 1.2, 0.2])
THROWER_TARGET_SPACE = SearchSpace([-1.0, -1.0], [1.0, 1.0])


def _minimum_jerk(start, end, n_samples: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, n_samples)[:, None]
    blend = 10 * u**3 - 15 * u**4 + 6 * u**5
    return np.asarray(start)[None, :] + blend * (np.asarray(end)
                                                 - np.asarray(start))[None, :]


# the thrower's clock, and the shape weights of its one movement primitive:
# they imitate a minimum-jerk path from the start box's center to the goal
# box's
THROWER_DURATION = 1.0
THROWER_DT = 0.01
THROWER_STEPS = round(THROWER_DURATION / THROWER_DT)
THROWER_SHAPE_WEIGHTS = dmp_imitate(
    _minimum_jerk(THROWER_START_SPACE.center, THROWER_GOAL_SPACE.center, 101),
    DMP_BASIS_COUNT)
THROWER_SHAPE_WEIGHTS.flags.writeable = False


class ThrowerWorld:
    """The thrower's world, which keeps the phase table of the constant
    movement primitive.  Worlds compare by identity, and their
    ``replay_metadata()`` by content."""

    @cached_property
    def phase_table(self) -> tuple[list[float], list[list[float]]]:
        """``_phase_table`` of the thrower's forcing, built on first use and
        kept with the world."""
        return _phase_table(THROWER_SHAPE_WEIGHTS, THROWER_DT / THROWER_DURATION,
                            THROWER_STEPS)

    def replay_metadata(self) -> dict:
        return {"kind": "thrower", "gravity": THROWER_GRAVITY,
                "duration": THROWER_DURATION, "dt": THROWER_DT}


def ballistic_landing(position, velocity, gravity: float) -> np.ndarray:
    """Ground-plane landing point of a released ball; axis 1 is height."""
    position = np.asarray(position, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    h, vh = position[1], velocity[1]
    if h <= 0:
        return np.array([position[0], position[2]])
    t = (vh + math.sqrt(vh * vh + 2.0 * gravity * h)) / gravity
    return np.array([position[0] + velocity[0] * t,
                     position[2] + velocity[2] * t])


def thrower_rollout(world: ThrowerWorld, env_context, theta,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Run the DMP from the start position and release into free flight;
    returns the landing point.

    The env context is the start position and theta stacks the commanded
    goal and goal velocity; the ball takes the final DMP state exactly.
    The thrower has no actuation noise, so the rng is not read.
    """
    start = np.asarray(env_context, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if start.shape != (3,):
        raise ContractError("start position must have 3 entries")
    if theta.shape != (6,):
        raise ContractError("thrower parameter vector must have 6 entries")
    if not THROWER_START_SPACE.contains(start):
        raise ContractError("start position outside its box")
    if not THROWER_PARAM_SPACE.contains(theta):
        raise ContractError("thrower parameters outside their box")
    params = DmpParams(shape_weights=THROWER_SHAPE_WEIGHTS, goal=theta[:3],
                       goal_velocity=theta[3:], duration=THROWER_DURATION)
    positions, velocities = _rk4(params, world.phase_table, start, THROWER_DT,
                                 THROWER_STEPS)
    return ballistic_landing(positions[-1], velocities[-1], THROWER_GRAVITY)


class ThrowerReward(Reward):
    """R = -||target - landing||."""

    def batch(self, targets, landings, params):
        targets = np.asarray(targets, dtype=float)
        delta = targets - np.asarray(landings, dtype=float)
        return -np.sqrt(np.sum(delta * delta, axis=1))
