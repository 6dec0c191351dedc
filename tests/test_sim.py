"""Environment and DMP tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcps import sim
from fcps.errors import ContractError
from fcps.sim import (
    ActiveCannonReward,
    CannonReward,
    CannonWorld,
    DmpParams,
    Hill,
    PAD_BLEND_RADIUS,
    THROWER_GOAL_SPACE,
    THROWER_PARAM_SPACE,
    THROWER_START_SPACE,
    ThrowerReward,
    ThrowerWorld,
    ballistic_landing,
    cannon_rollout,
    dmp_imitate,
    dmp_integrate,
    imitate_params,
    terrain_elevation,
    thrower_rollout,
)

FLAT = CannonWorld(hills=(), seed=0)
# the cannon's env context
NO_ENV = np.zeros(0)


# ---------------------------------------------------------------------------
# terrain
# ---------------------------------------------------------------------------


def test_flat_world_elevation_zero():
    assert terrain_elevation(FLAT, 0.0, 0.0) == 0.0
    assert terrain_elevation(FLAT, 5.0, -3.0) == 0.0


def test_single_hill_profile():
    world = CannonWorld(hills=(Hill([6.0, 0.0], height=1.5, width=1.0),), seed=0)
    assert terrain_elevation(world, 6.0, 0.0) == pytest.approx(1.5, abs=1e-12)
    # two widths out along the ridge, still outside the pad blend
    expected = 1.5 * math.exp(-2.0)
    assert terrain_elevation(world, 8.0, 0.0) == pytest.approx(expected, rel=1e-9)


def test_pad_is_exactly_flat_despite_nearby_hill():
    world = CannonWorld(hills=(Hill([3.2, 0.0], height=2.0, width=3.0),), seed=0)
    assert terrain_elevation(world, 0.0, 0.0) == 0.0
    inside = terrain_elevation(world, 1.0, 0.5)
    assert inside == 0.0
    # beyond the blend radius the hill is untouched
    far = terrain_elevation(world, 6.0, 0.0)
    assert far == pytest.approx(2.0 * math.exp(-(6.0 - 3.2) ** 2 / 18.0), rel=1e-9)


def test_elevation_vectorized_matches_scalar():
    # exact only because these 7 points miss the ~0.1% of points where
    # libm's pow (the scalar ``** 2``) and np.square (the array ``** 2``)
    # round differently; the 20,000-point test below gives the general bound
    world = CannonWorld.generate(seed=5)
    xs = np.linspace(-10, 10, 7)
    ys = np.linspace(-10, 10, 7)
    grid = terrain_elevation(world, xs, ys)
    scalars = [terrain_elevation(world, x, y) for x, y in zip(xs, ys)]
    assert np.array_equal(grid, scalars)
    assert np.all(grid >= 0)


def test_elevation_scalar_and_array_paths_differ_by_under_one_ulp_of_the_hills(
        record_property):
    # a last-bit difference in d2 moves exp(-d2 / (2 w^2)) by a relative
    # d2 / (2 w^2) ulps, so far from the hills the two paths can differ by
    # tens of ulps of the (tiny) elevation, but never by more than one ulp
    # of the tallest hill; the landing's grid scan (array) and bisection
    # (scalar) live with this gap
    world = CannonWorld.generate(seed=0)
    xy = np.random.default_rng(0).uniform(-11.0, 11.0, size=(20_000, 2))
    grid = terrain_elevation(world, xy[:, 0], xy[:, 1])
    scalars = np.array([terrain_elevation(world, x, y) for x, y in xy])
    gap = np.abs(grid - scalars)
    assert np.all(gap <= np.spacing(max(h.height for h in world.hills)))
    share = float(np.mean(gap > 0.0))
    record_property("differing_share", share)  # 18 of 20,000 with glibc 2.36
    assert share < 0.005


def test_generated_world_pad_and_reproducibility():
    w1 = CannonWorld.generate(seed=11)
    w2 = CannonWorld.generate(seed=11)
    assert len(w1.hills) == 4
    for a, b in zip(w1.hills, w2.hills):
        assert np.array_equal(a.center, b.center)
        assert a.height == b.height and a.width == b.width
    for h in w1.hills:
        assert np.hypot(*h.center) >= PAD_BLEND_RADIUS
        assert 0.5 <= h.height <= 2.0
        assert 1.5 <= h.width <= 3.0
    assert terrain_elevation(w1, 0.0, 0.0) == 0.0


def test_worlds_compare_by_identity_and_replay_metadata_by_content():
    for make in (lambda: CannonWorld.generate(seed=3), ThrowerWorld):
        world, twin = make(), make()
        # both used to raise: ValueError from ==, TypeError from hash
        assert world == world and world != twin
        assert len({world, twin}) == 2
        assert world.replay_metadata() == twin.replay_metadata()
    hill = CannonWorld.generate(seed=3).hills[0]
    assert hill == hill and isinstance(hash(hill), int)
    assert CannonWorld.generate(seed=3).replay_metadata() \
        != CannonWorld.generate(seed=4).replay_metadata()


# ---------------------------------------------------------------------------
# cannon rollouts
# ---------------------------------------------------------------------------


def test_flat_world_range_oracle():
    out = cannon_rollout(FLAT, NO_ENV, [0.0, math.pi / 4, 3.0], None)
    assert out.shape == (2,)
    assert abs(out[0] - 9.0) <= 1e-6
    assert abs(out[1]) <= 1e-6


def test_quarter_turn_swaps_axes_on_flat_ground():
    a = cannon_rollout(FLAT, NO_ENV, [0.0, 0.6, 2.5], None)
    b = cannon_rollout(FLAT, NO_ENV, [math.pi / 2, 0.6, 2.5], None)
    assert abs(a[0] - b[1]) <= 1e-9
    assert abs(a[1]) <= 1e-9
    assert abs(b[0]) <= 1e-9


def test_hill_under_arc_shortens_range():
    flat = cannon_rollout(FLAT, NO_ENV, [0.0, math.pi / 4, 3.0], None)
    hilly = CannonWorld(hills=(Hill([4.5, 0.0], height=1.8, width=2.0),), seed=0)
    blocked = cannon_rollout(hilly, NO_ENV, [0.0, math.pi / 4, 3.0], None)
    assert blocked[0] < flat[0] - 0.1


def test_landing_sits_on_terrain():
    rng = np.random.default_rng(2)
    for seed in range(5):
        world = CannonWorld.generate(seed=seed)
        for _ in range(4):
            theta = rng.uniform([0.0, 0.01, 0.1],
                                [2 * math.pi, math.pi / 2 - 0.2, 5.0])
            x, y = cannon_rollout(world, NO_ENV, theta, None)
            v = theta[2]
            t = np.hypot(x, y) / max(np.hypot(*(theta[2] * np.array([
                math.cos(theta[1]) * math.cos(theta[0]),
                math.cos(theta[1]) * math.sin(theta[0])]))), 1e-12)
            z = v * math.sin(theta[1]) * t - 0.5 * sim.CANNON_GRAVITY * t * t
            assert abs(z - terrain_elevation(world, x, y)) <= 1e-6
            assert np.hypot(x, y) <= v * v / sim.CANNON_GRAVITY + 1e-6


def test_rollout_determinism_and_training_noise():
    world = CannonWorld.generate(seed=3)
    theta = np.array([1.0, 0.7, 4.0])
    clean1 = cannon_rollout(world, NO_ENV, theta, None)
    clean2 = cannon_rollout(world, NO_ENV, theta, None)
    assert np.array_equal(clean1, clean2)

    # an rng draws launch noise; the same draws land in the same place
    noisy1 = cannon_rollout(world, NO_ENV, theta, np.random.default_rng(9))
    noisy2 = cannon_rollout(world, NO_ENV, theta, np.random.default_rng(9))
    assert np.array_equal(noisy1, noisy2)
    assert not np.array_equal(noisy1, clean1)


def test_cannon_rollout_checks_its_theta():
    for theta in ([0.0, 0.0, 1.0],  # beta below its box
                  [0.0, 0.5, 9.0],  # v above its box
                  [0.0, 0.5]):  # a 2-vector
        with pytest.raises(ContractError):
            cannon_rollout(FLAT, NO_ENV, theta, None)
        with pytest.raises(ContractError):
            cannon_rollout(FLAT, NO_ENV, theta, np.random.default_rng(0))
    assert cannon_rollout(FLAT, NO_ENV, [1.0, 0.5, 2.0], None).shape == (2,)


# ---------------------------------------------------------------------------
# cannon rewards
# ---------------------------------------------------------------------------


def test_cannon_reward_values():
    fn = CannonReward()
    landing = np.array([3.0, 4.0])
    fast, slow = [1.0, 0.5, 2.0], [1.0, 0.5, 0.1]
    assert fn([3.0, 4.0], landing, fast) == pytest.approx(-0.2, abs=1e-12)
    # the speed penalty reads theta's speed, which no landing entry equals
    assert fn([0.0, 0.0], landing, slow) == pytest.approx(-5.0005, abs=1e-12)
    assert fn([3.0, 4.0], landing, slow) - fn([3.0, 4.0], landing, fast) \
        == pytest.approx(0.05 * (2.0**2 - 0.1**2), abs=1e-12)
    # translation consistency
    shifted = np.array([4.0, 5.0])
    assert fn([1.0, 1.0], shifted, slow) == fn([0.0, 0.0], landing, slow)


@pytest.mark.parametrize("fn,target_box,landing_box,theta_box", [
    pytest.param(CannonReward(), sim.CANNON_TARGET_SPACE,
                 sim.CANNON_TARGET_SPACE, sim.CANNON_PARAM_SPACE, id="cannon"),
    pytest.param(ActiveCannonReward(), sim.ACTIVE_CANNON_TARGET_SPACE,
                 sim.CANNON_TARGET_SPACE, sim.CANNON_PARAM_SPACE,
                 id="active-cannon"),
    pytest.param(ThrowerReward(), sim.THROWER_TARGET_SPACE,
                 sim.THROWER_TARGET_SPACE, THROWER_PARAM_SPACE, id="thrower"),
])
def test_reward_batch_matches_scalar_bitwise(fn, target_box, landing_box,
                                             theta_box):
    rng = np.random.default_rng(1)
    targets = target_box.sample_uniform(16, rng)
    landings = landing_box.sample_uniform(16, rng)
    params = theta_box.sample_uniform(16, rng)
    if isinstance(fn, ActiveCannonReward):
        targets[::2, 2] = 0.0  # every other row shoots; most others hold
    batched = fn.batch(targets, landings, params)
    scalars = [fn(t, landing, p)
               for t, landing, p in zip(targets, landings, params)]
    assert np.array_equal(batched, scalars)


def test_active_cannon_reward_branches():
    fn = ActiveCannonReward()
    base = CannonReward()
    out = np.array([3.0, 4.0])
    theta = np.array([0.01, 0.01, 0.1])
    shoot = fn([0.0, 0.0, 0.05], out, theta)
    assert shoot == base([0.0, 0.0], out, theta)
    hold = fn([0.0, 0.0, 0.5], out, theta)
    assert hold == pytest.approx(-np.linalg.norm(theta), abs=1e-12)


def test_active_reward_indicator_never_touches_rollout():
    # same landing re-scored across indicator values: only the reward moves
    fn = ActiveCannonReward()
    out = np.array([1.0, 1.0])
    theta = np.array([1.0, 0.5, 1.0])
    lo = fn([1.0, 1.0, 0.0], out, theta)
    hi = fn([1.0, 1.0, 1.0], out, theta)
    assert lo == pytest.approx(-0.05, abs=1e-12)
    assert hi == pytest.approx(-np.linalg.norm(theta), abs=1e-12)


# ---------------------------------------------------------------------------
# DMP engine
# ---------------------------------------------------------------------------


def zero_dmp(goal, dims=2, duration=1.0, goal_velocity=None):
    gv = np.zeros(dims) if goal_velocity is None else np.asarray(goal_velocity)
    return DmpParams(shape_weights=np.zeros((25, dims)), goal=goal,
                     goal_velocity=gv, duration=duration)


def test_dmp_zero_forcing_converges_to_goal():
    p = zero_dmp(goal=[1.0, -2.0])
    y0 = np.array([0.0, 0.5])
    pos, vel = dmp_integrate(p, y0, dt=0.01, n_steps=100)
    err = np.linalg.norm(pos[-1] - p.goal)
    assert err <= 1e-3 * np.linalg.norm(y0 - p.goal)
    assert np.linalg.norm(vel[-1]) <= 1e-2


def test_dmp_equilibrium_is_stationary():
    p = zero_dmp(goal=[0.3, 0.7])
    pos, vel = dmp_integrate(p, p.goal, dt=0.01, n_steps=100)
    assert np.max(np.abs(pos - p.goal)) <= 1e-9
    assert np.max(np.abs(vel)) <= 1e-9


def test_dmp_temporal_scaling_invariance():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((25, 2)) * 20.0
    base = DmpParams(shape_weights=w, goal=[1.0, 0.0],
                     goal_velocity=[0.2, -0.1], duration=1.0)
    slow = DmpParams(shape_weights=w, goal=[1.0, 0.0],
                     goal_velocity=[0.1, -0.05], duration=2.0)
    y0 = np.array([0.2, -0.3])
    pos1, vel1 = dmp_integrate(base, y0, dt=0.01, n_steps=100)
    pos2, vel2 = dmp_integrate(slow, y0, dt=0.02, n_steps=100)
    # same path points; wall-clock velocities halve with the slower clock
    assert np.max(np.abs(pos1 - pos2)) <= 1e-6
    assert np.max(np.abs(vel1 - 2.0 * vel2)) <= 1e-6


def test_dmp_nonzero_goal_velocity_is_tracked():
    p = zero_dmp(goal=[0.5, 0.2], goal_velocity=[0.4, -0.3])
    pos, vel = dmp_integrate(p, np.zeros(2), dt=0.005, n_steps=200)
    assert np.linalg.norm(pos[-1] - p.goal) <= 1e-3
    assert np.linalg.norm(vel[-1] - p.goal_velocity) <= 1e-3


def test_dmp_dt_convergence():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((25, 2)) * 30.0
    p = DmpParams(shape_weights=w, goal=[0.8, -0.4], goal_velocity=[0.1, 0.2],
                  duration=1.0)
    y0 = np.array([0.1, 0.1])
    coarse, _ = dmp_integrate(p, y0, dt=0.01, n_steps=100)
    fine, _ = dmp_integrate(p, y0, dt=0.005, n_steps=200)
    assert np.linalg.norm(coarse[-1] - fine[-1]) <= 1e-4


def test_dmp_validation():
    with pytest.raises(ContractError):
        DmpParams(shape_weights=np.zeros((25, 2)), goal=[0.0], goal_velocity=[0.0],
                  duration=1.0)
    p = zero_dmp(goal=[0.0, 0.0])
    with pytest.raises(ContractError):
        dmp_integrate(p, np.zeros(2), dt=0.0, n_steps=10)
    with pytest.raises(ContractError):
        dmp_integrate(p, np.zeros(3), dt=0.01, n_steps=10)


def test_imitation_round_trip_known_weights():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((25, 2)) * 40.0
    truth = DmpParams(shape_weights=w, goal=[1.2, -0.6],
                      goal_velocity=[0.0, 0.0], duration=1.0)
    y0 = np.array([0.0, 0.4])
    demo, _ = dmp_integrate(truth, y0, dt=0.005, n_steps=200)
    fitted = imitate_params(demo, basis_count=25, duration=1.0)
    replay, _ = dmp_integrate(fitted, y0, dt=0.005, n_steps=200)
    span = np.max(np.ptp(demo, axis=0))
    rmse = np.sqrt(np.mean((replay - demo) ** 2))
    assert rmse <= 1e-2 * span


def test_imitation_round_trip_minimum_jerk():
    u = np.linspace(0.0, 1.0, 201)[:, None]
    blend = 10 * u**3 - 15 * u**4 + 6 * u**5
    start, end = np.array([0.0, 1.0, 0.0]), np.array([0.4, 1.3, -0.2])
    demo = start[None, :] + blend * (end - start)[None, :]
    fitted = imitate_params(demo, basis_count=25, duration=1.0)
    replay, _ = dmp_integrate(fitted, start, dt=0.005, n_steps=200)
    span = np.max(np.ptp(demo, axis=0))
    assert np.sqrt(np.mean((replay - demo) ** 2)) <= 1e-2 * span


def test_imitation_of_stationary_demo_is_unforced():
    demo = np.tile(np.array([0.2, 0.5]), (50, 1))
    w = dmp_imitate(demo, basis_count=25)
    assert np.max(np.abs(w)) <= 1e-9


# ---------------------------------------------------------------------------
# thrower
# ---------------------------------------------------------------------------


def test_ballistic_free_fall_lands_below():
    landing = ballistic_landing([0.3, 1.2, -0.1], [0.0, 0.0, 0.0], 9.81)
    assert np.allclose(landing, [0.3, -0.1], atol=1e-12)


def test_ballistic_horizontal_throw_oracle():
    landing = ballistic_landing([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], 9.81)
    assert landing[0] == pytest.approx(math.sqrt(2.0 / 9.81), abs=1e-9)
    assert landing[1] == 0.0


# -- the float RK4 over a phase table against the array RK4 ---------------


def _dmp_integrate_array(p, y0, dt, n_steps):
    """``dmp_integrate`` as it was before the phase table: RK4 on arrays,
    the forcing rebuilt at every evaluation, from rest; the oracle for the
    float RK4."""
    if dt <= 0 or n_steps < 1:
        raise ContractError("dt must be positive and n_steps at least 1")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (p.dims,):
        raise ContractError(f"start state must have shape ({p.dims},)")

    du = dt / p.duration
    centers, widths = sim._basis_centers(p.shape_weights.shape[0])
    ramp = p.duration * p.goal_velocity  # goal speed in normalized time

    def accel(u, y, yd):
        z = math.exp(-sim.DMP_PHASE_DECAY * u)
        moving_goal = p.goal - ramp * (1.0 - u)
        force = sim._forcing_features_for(z, centers, widths)[0] @ p.shape_weights
        return sim.DMP_SPRING * (moving_goal - y) - sim.DMP_DAMPING * yd \
            + sim.DMP_DAMPING * ramp + force

    positions = np.empty((n_steps + 1, p.dims))
    velocities = np.empty((n_steps + 1, p.dims))
    y, yd = y0.copy(), np.zeros(p.dims)
    positions[0], velocities[0] = y, yd / p.duration
    u = 0.0
    for k in range(n_steps):
        a1 = accel(u, y, yd)
        k1y, k1v = yd, a1
        a2 = accel(u + du / 2, y + du / 2 * k1y, yd + du / 2 * k1v)
        k2y, k2v = yd + du / 2 * k1v, a2
        a3 = accel(u + du / 2, y + du / 2 * k2y, yd + du / 2 * k2v)
        k3y, k3v = yd + du / 2 * k2v, a3
        a4 = accel(u + du, y + du * k3y, yd + du * k3v)
        k4y, k4v = yd + du * k3v, a4
        y = y + du / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        yd = yd + du / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        u += du
        positions[k + 1], velocities[k + 1] = y, yd / p.duration
    return positions, velocities


def _thrower_rollout_array(start, theta):
    """``thrower_rollout`` over the array RK4, validation aside."""
    params = DmpParams(shape_weights=sim.THROWER_SHAPE_WEIGHTS, goal=theta[:3],
                       goal_velocity=theta[3:], duration=sim.THROWER_DURATION)
    pos, vel = _dmp_integrate_array(params, start, sim.THROWER_DT, sim.THROWER_STEPS)
    return ballistic_landing(pos[-1], vel[-1], sim.THROWER_GRAVITY)


@settings(max_examples=100)
@given(dims=st.integers(1, 3), n_basis=st.integers(2, 30),
       clock=st.sampled_from([(0.01, 1.0), (0.005, 1.0), (0.02, 2.0),
                              (0.013, 0.7), (0.25, 3.0)]),
       n_steps=st.integers(1, 200), moving=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(dims=3, n_basis=25, clock=(0.01, 1.0), n_steps=100, moving=True, seed=0)
@example(dims=3, n_basis=30, clock=(0.005, 1.0), n_steps=200, moving=True, seed=1)
def test_dmp_integrate_equals_the_array_rk4_bit_for_bit(dims, n_basis, clock,
                                                         n_steps, moving, seed):
    dt, duration = clock
    rng = np.random.default_rng(seed)
    p = DmpParams(shape_weights=rng.standard_normal((n_basis, dims)) * 40.0,
                  goal=rng.uniform(-1.0, 1.0, dims),
                  goal_velocity=rng.uniform(-1.0, 1.0, dims) if moving
                  else np.zeros(dims), duration=duration)
    y0 = rng.uniform(-1.0, 1.0, dims)
    pos, vel = dmp_integrate(p, y0, dt, n_steps)
    ref_pos, ref_vel = _dmp_integrate_array(p, y0, dt, n_steps)
    assert pos.shape == ref_pos.shape == (n_steps + 1, dims)
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(vel, ref_vel)


def test_thrower_rollout_equals_the_array_rk4_rollout():
    rng = np.random.default_rng(8)
    world = ThrowerWorld()
    starts = THROWER_START_SPACE.sample_uniform(20, rng)
    thetas = THROWER_PARAM_SPACE.sample_uniform(20, rng)
    corners = [THROWER_START_SPACE.lower, THROWER_START_SPACE.upper]
    edges = [THROWER_PARAM_SPACE.lower, THROWER_PARAM_SPACE.upper]
    for start, theta in [*zip(starts, thetas), *zip(corners, edges)]:
        out = thrower_rollout(world, start, theta, None)
        assert np.array_equal(out, _thrower_rollout_array(start, theta))


def test_thrower_builds_its_forcing_rows_once_per_world(monkeypatch):
    world, other = ThrowerWorld(), ThrowerWorld()
    calls = []
    features = sim._forcing_features_for

    def counted(*args):
        calls.append(args[0])
        return features(*args)

    monkeypatch.setattr(sim, "_forcing_features_for", counted)
    rng = np.random.default_rng(3)
    for _ in range(4):
        thrower_rollout(world, THROWER_START_SPACE.sample_uniform(1, rng)[0],
                        THROWER_PARAM_SPACE.sample_uniform(1, rng)[0], None)
    # the start and midpoint of every step, and the end of the last one
    assert len(calls) == 2 * sim.THROWER_STEPS + 1
    thrower_rollout(other, THROWER_START_SPACE.center, THROWER_PARAM_SPACE.center,
                    None)
    assert len(calls) == 2 * (2 * sim.THROWER_STEPS + 1)


def test_thrower_rollout_shapes_and_determinism():
    world = ThrowerWorld()
    start = THROWER_START_SPACE.center
    theta = THROWER_PARAM_SPACE.center
    a = thrower_rollout(world, start, theta, None)
    b = thrower_rollout(world, start, theta, None)
    assert np.array_equal(a, b)
    assert a.shape == (2,)
    # the thrower has no actuation noise: an rng draws nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert np.array_equal(thrower_rollout(world, start, theta, rng), a)
    assert rng.bit_generator.state == state


def test_thrower_release_matches_dmp_final_state():
    from fcps.sim import DmpParams as DP
    world = ThrowerWorld()
    start = np.array([0.1, 1.0, -0.1])
    theta = np.concatenate([THROWER_GOAL_SPACE.center, [0.5, 0.2, 0.1]])
    params = DP(shape_weights=sim.THROWER_SHAPE_WEIGHTS, goal=theta[:3],
                goal_velocity=theta[3:], duration=sim.THROWER_DURATION)
    pos, vel = dmp_integrate(params, start, sim.THROWER_DT, sim.THROWER_STEPS)
    expected = ballistic_landing(pos[-1], vel[-1], sim.THROWER_GRAVITY)
    out = thrower_rollout(world, start, theta, None)
    assert np.array_equal(out, expected)


def test_thrower_validation():
    world = ThrowerWorld()
    with pytest.raises(ContractError):
        thrower_rollout(world, [5.0, 1.0, 0.0], THROWER_PARAM_SPACE.center, None)
    with pytest.raises(ContractError):
        thrower_rollout(world, THROWER_START_SPACE.center, np.zeros(6) + 9.0,
                        None)
    center = THROWER_PARAM_SPACE.center
    for start, theta in ((THROWER_START_SPACE.center, center[:3]),  # (3,) theta
                         (THROWER_START_SPACE.center, np.stack([center, center])),
                         (THROWER_START_SPACE.center[:2], center)):  # (2,) start
        with pytest.raises(ContractError):
            thrower_rollout(world, start, theta, None)


def test_thrower_reward():
    fn = ThrowerReward()
    hit = np.array([0.3, 0.4])
    theta = THROWER_PARAM_SPACE.center  # the thrower reward ignores it
    assert fn([0.3, 0.4], hit, theta) == 0.0
    assert fn([0.0, 0.0], hit, theta) == pytest.approx(-0.5, abs=1e-12)
    assert fn([0.6, 0.8], hit, theta) == fn([0.0, 0.0], hit, theta)


# -- landing time against the fixed 100-step bisection ----------------------


def _first_landing_time_100_steps(world, vel):
    """The landing search as it was before the fixed-point exit: 100
    bisection steps on 0-d arrays through ``terrain_elevation``; the oracle
    for the faster search."""
    g = sim.CANNON_GRAVITY
    vz = vel[2]

    def gap(t):
        z = vz * t - 0.5 * g * t * t
        return z - terrain_elevation(world, vel[0] * t, vel[1] * t)

    t_flat = max(2.0 * vz / g, 0.0)
    if t_flat > sim._LANDING_TMAX:
        raise ContractError("trajectory exceeds the landing time horizon")
    hi = sim._LANDING_DT
    if t_flat > sim._LANDING_DT:
        grid = np.arange(sim._LANDING_DT, t_flat + 2 * sim._LANDING_DT,
                         sim._LANDING_DT)
        z = vz * grid - 0.5 * g * grid * grid
        gaps = z - terrain_elevation(world, vel[0] * grid, vel[1] * grid)
        below = gaps <= 0.0
        if not np.any(below):
            raise ContractError("ballistic arc never re-enters the terrain")
        first = int(np.argmax(below))
        hi = grid[first]
    lo = max(hi - sim._LANDING_DT, 0.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_land = 0.5 * (lo + hi)
    if abs(gap(t_land)) > 1e-8:
        raise ContractError("landing refinement failed to meet tolerance")
    return t_land


def _rollout_with_oracle(world, theta):
    original = sim._first_landing_time
    sim._first_landing_time = _first_landing_time_100_steps
    try:
        return cannon_rollout(world, NO_ENV, theta, None)
    finally:
        sim._first_landing_time = original


STEEP = CannonWorld(hills=(Hill([4.0, 0.0], height=2.0, width=1.5),
                           Hill([0.0, -5.0], height=2.0, width=1.5),
                           Hill([-6.5, 6.5], height=1.0, width=3.0)), seed=0)


@settings(max_examples=150)
@given(world_seed=st.integers(0, 2**16),
       alpha=st.floats(0.0, 2 * math.pi),
       beta=st.floats(0.01, math.pi / 2 - 0.2),
       v=st.floats(0.1, 5.0))
def test_landing_equals_the_100_step_bisection(world_seed, alpha, beta, v):
    world = CannonWorld.generate(seed=world_seed)
    for w in (world, STEEP):
        fast = cannon_rollout(w, NO_ENV, [alpha, beta, v], None)
        slow = _rollout_with_oracle(w, [alpha, beta, v])
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("theta", [
    [0.3, 0.01, 0.1],  # t_flat below one grid step: the bracket is (0, 0.01]
    [1.0, 0.02, 0.2],
    [0.0, 0.3, 3.5],  # flat shots into the slope of the hill at (4, 0)
    [0.0, 0.5, 3.5],
    [4.71238898, 0.3, 3.5],  # into the hill at (0, -5)
    [2.35619449, 0.6, 4.0],  # onto the flank of the hill at (-6.5, 6.5)
])
def test_landing_edge_cases_equal_the_100_step_bisection(theta):
    vel_z = theta[2] * math.sin(theta[1])
    if theta[2] <= 0.2:
        assert 2.0 * vel_z / sim.CANNON_GRAVITY <= sim._LANDING_DT
    for w in (FLAT, STEEP, CannonWorld.generate(seed=0)):
        fast = cannon_rollout(w, NO_ENV, theta, None)
        slow = _rollout_with_oracle(w, theta)
        assert np.array_equal(fast, slow)


def test_landing_on_a_steep_hill_stops_short_of_flat_range():
    theta = [0.0, 0.5, 3.5]
    flat = cannon_rollout(FLAT, NO_ENV, theta, None)
    steep = cannon_rollout(STEEP, NO_ENV, theta, None)
    assert steep[0] < flat[0] - 5.0
    x, y = steep
    assert terrain_elevation(STEEP, x, y) > 1.0
    # the hill's slope under the landing point is steeper than 1
    rise = terrain_elevation(STEEP, x + 1e-4, y) - terrain_elevation(STEEP, x - 1e-4, y)
    assert rise / 2e-4 > 1.0


@pytest.mark.parametrize("world_seed", [0, 1, 7, 42])
def test_point_elevation_equals_terrain_elevation_bit_for_bit(world_seed):
    world = CannonWorld.generate(seed=world_seed)
    elevation = sim._point_elevation(world)
    rng = np.random.default_rng(world_seed)
    # the pad, its blend ring, and the hills out to the target box edge
    radius = np.concatenate([rng.uniform(0.0, 3.5, 1500), rng.uniform(0.0, 16.0, 1500)])
    angle = rng.uniform(0.0, 2 * math.pi, radius.size)
    for x, y in zip(radius * np.cos(angle), radius * np.sin(angle)):
        assert elevation(float(x), float(y)) == terrain_elevation(world, x, y)
    for world in (STEEP, FLAT):
        point = sim._point_elevation(world)
        for x, y in zip(radius * np.cos(angle), radius * np.sin(angle)):
            assert point(float(x), float(y)) == terrain_elevation(world, x, y)
