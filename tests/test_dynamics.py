import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbolab import dynamics
from cbolab.analysis import oracle_nparticle_linear_error
from cbolab.cli import trajectory_csv
from cbolab.dynamics import (
    IntegrationError,
    SimConfig,
    SimOutcome,
    Trajectory,
    _police_domain,
    _pull_of,
    analytic_gap,
    gap_decay_tolerance,
    reduced_solve,
    reduced_two_particle,
    simulate,
)
from cbolab.objective import (
    BUILTIN_NAMES,
    Objective,
    builtin_objective,
    consensus_point,
    softmax_weights,
)

# closed-form consensus error for the slope-1 linear objective started at
# (minimizer, minimizer + 1), computed independently to high precision
LIN_ERR_A10 = 0.069310178166072844477
# two at the minimizer and two at distance 1, alpha = 5
NPART_ERR_A5_N4_J2 = 0.13728636641416544816
EXP_NEG_1 = 0.3678794411714423216


def linear_obj():
    return builtin_objective("linear")


def trajectory_text(traj):
    """The CSV text that the CLI streams, for a recorded trajectory."""
    parts = []
    row = trajectory_csv(parts.append, len(traj.states[0]))
    for sample in zip(traj.times, traj.states, traj.consensus_values):
        row(*sample)
    return "".join(parts)


class TestSimConfig:
    def test_defaults_scale_with_lambda(self):
        cfg = SimConfig(lam=4.0, alpha=1.0, initial_positions=(0.0, 1.0))
        assert cfg.dt_value == 1e-3 / 4.0
        assert cfg.t_max_value == 20.0
        assert cfg.integrator == "rk4"
        assert cfg.gap_tol == 1e-10
        assert cfg.sample_stride == 10

    def test_explicit_dt_wins(self):
        cfg = SimConfig(lam=1.0, alpha=0.0, initial_positions=(0.0, 1.0), dt=0.25)
        assert cfg.dt_value == 0.25

    def test_with_alpha(self):
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0))
        assert cfg.with_alpha(7.0).alpha == 7.0
        assert cfg.with_alpha(7.0).lam == cfg.lam

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(lam=0.0), "lambda"),
            (dict(lam=-1.0), "lambda"),
            (dict(alpha=-2.0), "alpha"),
            (dict(initial_positions=(0.5,)), "at least two"),
            (dict(initial_positions=(0.0, math.nan)), "finite"),
            (dict(integrator="heun"), "integrator"),
            (dict(dt=-0.5), "dt"),
            (dict(dt=2.0), "stability"),
            (dict(gap_tol=0.0), "gap_tol"),
            (dict(t_max=-1.0), "t_max"),
            (dict(sample_stride=0), "sample_stride"),
            (dict(dt=1e-310), "dt"),  # t_max/dt overflows to inf
            (dict(sample_stride=2.5), "sample_stride"),
            (dict(sample_stride=math.inf), "sample_stride"),
            (dict(sample_stride=math.nan), "sample_stride"),
        ],
    )
    def test_validation_names_the_field(self, kwargs, needle):
        base = dict(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0))
        base.update(kwargs)
        with pytest.raises(ValueError, match=needle):
            SimConfig(**base)


class TestAnalyticGap:
    def test_values(self):
        assert analytic_gap(1.0, 1.0, 0.0) == 1.0
        assert analytic_gap(1.0, 1.0, 1.0) == pytest.approx(EXP_NEG_1, rel=1e-15)
        assert analytic_gap(0.0, 3.0, 7.0) == 0.0

    def test_tolerance_scales(self):
        assert gap_decay_tolerance("rk4", 1.0, 1.0, 1e-3) == 1e-8  # floor
        assert gap_decay_tolerance("euler", 1.0, 1.0, 1e-2) == pytest.approx(5e-3)
        big = gap_decay_tolerance("rk4", 1.0, 1.0, 0.3)
        assert big == pytest.approx(40.0 * 0.3**4)


class TestSimulate:
    def test_two_particle_linear_matches_closed_form(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=10.0, initial_positions=(0.0, 1.0))
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.stop_reason == "gap_converged"
        assert out.final_gap < cfg.gap_tol
        assert out.x_inf_estimate == pytest.approx(LIN_ERR_A10, abs=1e-6)
        assert out.error_to_minimizer == pytest.approx(LIN_ERR_A10, abs=1e-6)

    def test_four_particle_two_clusters_matches_closed_form(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=5.0, initial_positions=(0.0, 0.0, 1.0, 1.0))
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.x_inf_estimate == pytest.approx(NPART_ERR_A5_N4_J2, abs=1e-6)

    def test_alpha_zero_conserves_the_mean(self):
        obj = builtin_objective("rastrigin1d")
        ics = (-2.0, -0.5, 1.0, 3.0, 4.5)
        cfg = SimConfig(lam=1.0, alpha=0.0, initial_positions=ics)
        out = simulate(obj, cfg, record_trajectory=False)
        mean0 = math.fsum(ics) / len(ics)
        assert out.x_inf_estimate == pytest.approx(mean0, abs=cfg.gap_tol)

    def test_gap_decay_tracks_the_exponential(self):
        obj = builtin_objective("rastrigin1d")
        cfg = SimConfig(lam=2.0, alpha=3.0, initial_positions=(-1.0, 0.5, 2.0))
        out = simulate(obj, cfg)
        traj = out.trajectory
        tol = gap_decay_tolerance("rk4", 3.0, cfg.lam, cfg.dt_value)
        worst = max(
            abs(max(s) - min(s) - analytic_gap(3.0, cfg.lam, t))
            for t, s in zip(traj.times, traj.states)
        )
        assert worst <= tol

    def test_order_is_preserved_at_every_sample(self):
        obj = builtin_objective("double-well")
        ics = (0.1, 0.3, 0.5, 0.8, 0.95)
        cfg = SimConfig(lam=1.0, alpha=40.0, initial_positions=ics)
        out = simulate(obj, cfg)
        for state in out.trajectory.states:
            assert list(state) == sorted(state)

    def test_consensus_stays_in_hull(self):
        obj = builtin_objective("quadratic", -1.0, 1.0)
        cfg = SimConfig(lam=1.0, alpha=25.0, initial_positions=(-0.9, 0.2, 0.7))
        out = simulate(obj, cfg)
        for state, m in zip(out.trajectory.states, out.trajectory.consensus_values):
            assert min(state) <= m <= max(state)

    def test_zero_initial_gap_returns_immediately(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=2.0, initial_positions=(0.4, 0.4, 0.4))
        out = simulate(obj, cfg)
        assert out.stop_reason == "gap_converged"
        assert out.n_steps == 0
        assert out.x_inf_estimate == 0.4
        assert out.final_gap == 0.0
        assert out.trajectory.times == (0.0,)

    def test_t_max_stops_an_unconverged_run(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0), t_max=0.05)
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.stop_reason == "t_max_reached"
        assert out.final_gap > cfg.gap_tol
        assert out.t_final == pytest.approx(0.05, abs=2e-3)
        assert out.n_steps >= 1

    def test_lambda_reparametrization_is_exact(self):
        # scaling lam by 2 and dt, t_max by 1/2 traverses the identical
        # discrete arithmetic (the factors are powers of two), so the runs
        # agree bitwise step for step.
        obj = builtin_objective("double-well")
        a = SimConfig(
            lam=1.0, alpha=30.0, initial_positions=(0.3, 0.9), dt=1e-3, t_max=80.0
        )
        b = SimConfig(
            lam=2.0, alpha=30.0, initial_positions=(0.3, 0.9), dt=5e-4, t_max=40.0
        )
        oa = simulate(obj, a, record_trajectory=False)
        ob = simulate(obj, b, record_trajectory=False)
        assert oa.x_inf_estimate == ob.x_inf_estimate
        assert oa.n_steps == ob.n_steps
        assert oa.final_positions == ob.final_positions

    def test_euler_converges_too(self):
        obj = linear_obj()
        cfg = SimConfig(
            lam=1.0, alpha=10.0, initial_positions=(0.0, 1.0), integrator="euler"
        )
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.stop_reason == "gap_converged"
        assert out.x_inf_estimate == pytest.approx(LIN_ERR_A10, abs=1e-4)

    def test_rejects_initial_positions_outside_domain(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 2.0))
        with pytest.raises(ValueError, match="outside domain"):
            simulate(obj, cfg)

    def test_euler_step_matches_hand_computation(self):
        # two particles at 0 and 1 under the slope-1 linear objective, alpha=1:
        # the consensus point is the sigmoid split e^-1/(1+e^-1) and each
        # particle moves dt * lam * (m - x).
        obj = linear_obj()
        cfg = SimConfig(
            lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0), integrator="euler", dt=0.1,
            sample_stride=1,
        )
        e = math.exp(-1.0)
        m = math.fsum([(1.0 / (1.0 + e)) * 0.0, (e / (1.0 + e)) * 1.0])
        assert m == pytest.approx(0.26894142136999512075, rel=1e-15)
        traj = simulate(obj, cfg).trajectory
        assert traj.consensus_values[0] == m
        new = traj.states[1]
        assert new[0] == 0.0 + 0.1 * (1.0 * (m - 0.0))
        assert new[1] == 1.0 + 0.1 * (1.0 * (m - 1.0))
        # the drift velocities themselves
        assert 1.0 * (m - 0.0) == pytest.approx(0.26894142136999512075, rel=1e-15)
        assert 1.0 * (m - 1.0) == pytest.approx(-0.73105857863000487925, rel=1e-15)

    def test_police_domain_clamps_rounding_but_rejects_excursions(self):
        obj = linear_obj()
        assert _police_domain(obj, [-1e-12, 1.0]) == [0.0, 1.0]
        with pytest.raises(IntegrationError, match="left the domain"):
            _police_domain(obj, [-0.5, 1.0])

    def test_non_finite_objective_aborts_the_run(self):
        # a NaN landmine inside the domain poisons the weights and the state;
        # the per-sample uniform-bound check catches it as an IntegrationError
        def landmine(x: float) -> float:
            return math.nan if x > 0.6 else x

        obj = Objective(domain_lo=0.0, domain_hi=1.0, eval=landmine)
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0))
        with pytest.raises(IntegrationError):
            simulate(obj, cfg, record_trajectory=False)

    @pytest.mark.parametrize("integrator, stages", [("rk4", 4), ("euler", 1)])
    @pytest.mark.parametrize("stride", [1, 10])
    def test_each_state_takes_one_drift(self, integrator, stages, stride):
        # the drift that gives a state's consensus point for its sample is
        # also the first stage of the step that leaves it
        obj, calls = counting(linear_obj())
        cfg = SimConfig(
            lam=1.0, alpha=10.0, initial_positions=(0.0, 1.0),
            integrator=integrator, dt=0.01, sample_stride=stride,
        )
        out = simulate(obj, cfg)
        assert out.n_steps > 1000
        assert calls[0] == 2 * (stages * out.n_steps + 1)

    @pytest.mark.parametrize("record", [True, False])
    def test_on_sample_sees_the_recorded_trajectory(self, record):
        obj = builtin_objective("rastrigin1d")
        cfg = SimConfig(
            lam=2.0, alpha=3.0, initial_positions=(-1.0, 0.5, 2.0), sample_stride=7
        )
        seen = []
        out = simulate(
            obj, cfg, record_trajectory=record,
            on_sample=lambda t, xs, m: seen.append((t, tuple(xs), m)),
        )
        traj = simulate(obj, cfg).trajectory
        assert seen == list(zip(traj.times, traj.states, traj.consensus_values))
        assert out.trajectory == (traj if record else None)

    def test_sampling_grid_and_final_state(self):
        obj = linear_obj()
        cfg = SimConfig(
            lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0), sample_stride=100
        )
        out = simulate(obj, cfg)
        traj = out.trajectory
        dt = cfg.dt_value
        assert traj.times[0] == 0.0
        assert traj.times[1] == 100 * dt
        assert traj.times[2] == 200 * dt
        assert traj.times[-1] == out.t_final
        assert len(traj.times) == len(traj.states) == len(traj.consensus_values)
        assert all(len(s) == 2 for s in traj.states)


class TestReducedTwoParticle:
    def test_matches_simulate(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=10.0, initial_positions=(0.0, 1.0))
        full = simulate(obj, cfg, record_trajectory=False)
        red = reduced_two_particle(obj, cfg)
        assert red.x_inf_estimate == pytest.approx(full.x_inf_estimate, abs=1e-8)

    def test_closed_form_anchor(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=10.0, initial_positions=(0.0, 1.0))
        red = reduced_two_particle(obj, cfg)
        assert red.x_inf_estimate == pytest.approx(LIN_ERR_A10, abs=1e-10)
        assert red.stop_reason == "gap_converged"
        assert red.final_gap == cfg.gap_tol

    def test_lambda_drops_out_bitwise(self):
        obj = builtin_objective("double-well")
        slow = SimConfig(lam=0.1, alpha=1e4, initial_positions=(0.6, 0.9))
        fast = SimConfig(lam=10.0, alpha=1e4, initial_positions=(0.6, 0.9))
        a = reduced_two_particle(obj, slow)
        b = reduced_two_particle(obj, fast)
        assert a.x_inf_estimate == b.x_inf_estimate
        assert a.final_positions == b.final_positions
        # lam only rescales the time axis
        assert a.t_final == pytest.approx(100.0 * b.t_final, rel=1e-12)

    def test_alpha_zero_lands_on_the_midpoint(self):
        obj = builtin_objective("quadratic")
        cfg = SimConfig(lam=1.0, alpha=0.0, initial_positions=(0.2, 0.8))
        red = reduced_two_particle(obj, cfg)
        assert red.x_inf_estimate == pytest.approx(0.5, abs=1e-10)

    def test_input_order_does_not_matter(self):
        obj = builtin_objective("double-well")
        up = SimConfig(lam=1.0, alpha=100.0, initial_positions=(0.75, 0.97))
        dn = SimConfig(lam=1.0, alpha=100.0, initial_positions=(0.97, 0.75))
        a = reduced_two_particle(obj, up)
        b = reduced_two_particle(obj, dn)
        assert a.x_inf_estimate == b.x_inf_estimate
        assert a.final_positions == (b.final_positions[1], b.final_positions[0])

    def test_sub_tolerance_gap_returns_immediately(self):
        obj = builtin_objective("quadratic")
        cfg = SimConfig(lam=1.0, alpha=5.0, initial_positions=(0.5, 0.5 + 1e-12))
        red = reduced_two_particle(obj, cfg)
        assert red.n_steps == 0
        assert red.stop_reason == "gap_converged"
        assert red.final_gap == pytest.approx(1e-12, rel=1e-3)
        assert 0.5 <= red.x_inf_estimate <= 0.5 + 1e-12

    def test_end_time_follows_the_log_map(self):
        obj = linear_obj()
        cfg = SimConfig(lam=2.0, alpha=1.0, initial_positions=(0.0, 1.0))
        red = reduced_two_particle(obj, cfg)
        assert red.t_final == pytest.approx(math.log(1.0 / cfg.gap_tol) / cfg.lam, rel=1e-12)
        assert red.trajectory is None

    def test_validation(self):
        obj = linear_obj()
        cfg3 = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="exactly two"):
            reduced_two_particle(obj, cfg3)
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0))
        with pytest.raises(ValueError, match="rtol"):
            reduced_two_particle(obj, cfg, rtol=0)
        bad = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.5))
        with pytest.raises(ValueError, match="outside domain"):
            reduced_two_particle(obj, bad)

    def test_more_steps_refine_the_answer(self):
        obj = builtin_objective("double-well")
        cfg = SimConfig(lam=1.0, alpha=3e5, initial_positions=(0.6, 0.97))
        coarse = reduced_two_particle(obj, cfg, rtol=1e-6)
        fine = reduced_two_particle(obj, cfg, rtol=1e-10)
        vfine = reduced_two_particle(obj, cfg, rtol=1e-13)
        assert fine.n_steps > coarse.n_steps
        assert abs(fine.x_inf_estimate - vfine.x_inf_estimate) < abs(
            coarse.x_inf_estimate - vfine.x_inf_estimate
        )


def counting(obj):
    """obj with an eval that counts its calls, and the one-element counter."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return obj.eval(x)

    return replace(obj, eval=counted), calls


# the kinked table of the acceptance criteria: a V with its minimum at 0.5
KINKED_TABLE = (0.0, 1.0, 0.5, 0.0, 1.0, 1.0)


@st.composite
def ensembles(draw):
    """An objective and N in 2..200 positions: a few spots, each repeated and
    spread by a drawn width (0 gives exactly repeated positions)."""
    family = draw(st.sampled_from(BUILTIN_NAMES))
    obj = builtin_objective(family, params=KINKED_TABLE if family == "custom-table" else ())
    n = draw(st.integers(2, 200))
    spots = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=n))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    jitter = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    xs = [
        min(obj.domain_lo + (spots[i % len(spots)] + spread * u) / (1.0 + spread) * obj.width,
            obj.domain_hi)
        for i, u in enumerate(jitter)
    ]
    return obj, xs


class TestConsensusKernel:
    @given(
        ensemble=ensembles(),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 9.0).map(lambda e: 10.0**e)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_softmax_formula(self, ensemble, alpha):
        obj, xs = ensemble
        m = min(max(_pull_of(obj.eval, alpha, xs)(1.0, 0.0), min(xs)), max(xs))
        want = consensus_point(xs, softmax_weights([obj.eval(x) for x in xs], alpha))
        bound = len(xs) * 2.0**-52 * max(abs(x) for x in xs)
        assert abs(m - want) <= bound
        if alpha == 0.0:
            assert abs(m - math.fsum(xs) / len(xs)) <= bound


class TestReducedSolve:
    def test_matches_the_n_particle_closed_form(self):
        cfg = SimConfig(lam=1.0, alpha=5.0, initial_positions=(0.0, 1.0, 0.0, 1.0))
        red = reduced_solve(linear_obj(), cfg)
        assert red.x_inf_estimate == pytest.approx(NPART_ERR_A5_N4_J2, abs=1e-10)
        assert red.final_gap == cfg.gap_tol

    @given(
        family=st.sampled_from(BUILTIN_NAMES),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=8),
        log_alpha=st.floats(-2.0, 3.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_simulate(self, family, fractions, log_alpha):
        params = KINKED_TABLE if family == "custom-table" else ()
        obj = builtin_objective(family, params=params)
        ics = tuple(min(obj.domain_lo + u * obj.width, obj.domain_hi) for u in fractions)
        cfg = SimConfig(lam=1.0, alpha=10.0**log_alpha, initial_positions=ics)
        full = simulate(obj, cfg, record_trajectory=False)
        red = reduced_solve(obj, cfg)
        assert red.x_inf_estimate == pytest.approx(full.x_inf_estimate, abs=1e-8)

    @given(
        n=st.sampled_from([2, 3, 5, 8, 16, 64, 256]),
        data=st.data(),
        width=st.floats(0.5, 2.0),
        log_alpha=st.floats(0.0, 9.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_ensembles_match_the_closed_form(self, n, data, width, log_alpha):
        j = data.draw(st.integers(1, n - 1))
        alpha = 10.0**log_alpha
        obj = builtin_objective("linear", 0.0, width, (1.0,))
        cfg = SimConfig(lam=1.0, alpha=alpha, initial_positions=(0.0,) * j + (width,) * (n - j))
        red = reduced_solve(obj, cfg)
        exact = oracle_nparticle_linear_error(alpha, n, j, width)
        assert abs(red.x_inf_estimate - exact) <= 1e-10 * width

    def test_kink_crossings_stay_within_tolerance(self):
        # particles cross the kink of the V; without the midpoint defect the
        # step error estimate reads such steps ~30 times low, missing by 1.7e-7
        obj = builtin_objective("custom-table", params=KINKED_TABLE)
        cfg = SimConfig(lam=1.0, alpha=2.0, initial_positions=(0.88, 0.24, 0.84))
        ref = reduced_solve(obj, cfg, rtol=1e-13)
        red = reduced_solve(obj, cfg)
        assert red.x_inf_estimate == pytest.approx(ref.x_inf_estimate, abs=1e-9)

    def test_lambda_drops_out_bitwise(self):
        obj = builtin_objective("double-well")
        ics = (0.9, 0.1, 0.6, 0.35)
        a = reduced_solve(obj, SimConfig(lam=0.1, alpha=1e4, initial_positions=ics))
        b = reduced_solve(obj, SimConfig(lam=10.0, alpha=1e4, initial_positions=ics))
        assert a.x_inf_estimate == b.x_inf_estimate
        assert a.final_positions == b.final_positions
        assert a.t_final == pytest.approx(100.0 * b.t_final, rel=1e-12)

    def test_input_order_does_not_matter(self):
        obj = builtin_objective("rastrigin1d")
        ics = (-2.0, -0.5, 1.0, 3.0, 4.5)
        perm = (3.0, -2.0, 4.5, 1.0, -0.5)
        a = reduced_solve(obj, SimConfig(lam=1.0, alpha=30.0, initial_positions=ics))
        b = reduced_solve(obj, SimConfig(lam=1.0, alpha=30.0, initial_positions=perm))
        assert a.x_inf_estimate == b.x_inf_estimate
        assert dict(zip(ics, a.final_positions)) == dict(zip(perm, b.final_positions))

    def test_stiff_pair_stays_within_the_fixed_march_budget(self):
        # 800 000 evaluations is what 100 000 four-stage steps on a pair cost;
        # at alpha = 1e9 stability holds the step at the floor
        obj, calls = counting(builtin_objective("double-well"))
        cfg = SimConfig(lam=1.0, alpha=1e9, initial_positions=(0.3, 0.9))
        red = reduced_solve(obj, cfg)
        assert calls[0] <= 800_000
        assert red.n_floor_steps > 0

    def test_stiff_pair_cost_does_not_grow_with_alpha(self):
        # where a step at the stiffness floor is unstable the step is held
        # there: 1/2500 of the s range, coarsened to 1/1000 once the stretch
        # has held 10 steps, and late in the solve 1/2500 of the ln s range
        # times s, so no alpha needs many more than 1000 steps of 7 pair
        # fields early and a few hundred late
        for alpha in (1e5, 1e7, 1e9):
            obj, calls = counting(builtin_objective("double-well"))
            cfg = SimConfig(lam=1.0, alpha=alpha, initial_positions=(0.05, 0.99))
            reduced_solve(obj, cfg)
            assert calls[0] <= 20_000

    def test_kinked_table_matches_a_reference_with_finer_floors(self, monkeypatch):
        # its solve passes a brief stiff spell at s ~ 0.08, where a kink hands
        # the lead to another particle, and a mildly stiff stretch at s ~ 0.06;
        # floored at 1/1000 of the s range from their first stiff step, they
        # leave the answer 8.8e-6 * gap0 off
        knots = (0.0, 0.8892574529135058, 0.033165590363306796, 0.48099206880664347,
                 0.03945311523995654, 0.7603473689296663, 0.09699875143991565,
                 0.00043963214000819484, 0.2024075179964182, 0.0,
                 1.0, 0.8897768850222663)
        obj = builtin_objective("custom-table", params=knots)
        ics = (0.3232584779379777, 0.4618979774396751, 0.19160191830004192,
               0.653361753814228, 0.07119045685704117)
        cfg = SimConfig(lam=1.0, alpha=8964737.134036772, initial_positions=ics)
        red = reduced_solve(obj, cfg)
        for name in ("_SAMPLE_BUDGET", "_STIFF_STEPS", "_STIFF_STEPS_HELD"):
            monkeypatch.setattr(dynamics, name, 100 * getattr(dynamics, name))
        ref = reduced_solve(obj, cfg, rtol=1e-12)
        gap0 = max(ics) - min(ics)
        assert abs(red.x_inf_estimate - ref.x_inf_estimate) <= 1e-10 * gap0

    def test_smooth_pair_is_cheap_and_never_floored(self):
        # the stiffness test must not flag a smooth pair at the domain ends,
        # up to the largest alpha of the benchmark's linear and quadratic pairs
        for family, hi, alpha in (("linear", 1.0, 10.0), ("linear", 2.0, 1e4),
                                  ("quadratic", 1.5, 1e4)):
            obj, calls = counting(builtin_objective(family, 0.0, hi))
            cfg = SimConfig(lam=1.0, alpha=alpha, initial_positions=(0.0, hi))
            red = reduced_solve(obj, cfg)
            assert calls[0] < 5_000, family
            assert red.n_floor_steps == 0, family


class TestTrajectoryHelpers:
    def _toy_traj(self):
        return Trajectory(
            times=(0.0, 1.0, 2.0),
            states=((0.0, 1.0), (0.4, 0.9), (0.6, 0.8)),
            consensus_values=(0.5, 0.65, 0.7),
        )

    def test_csv_layout(self):
        traj = self._toy_traj()
        text = trajectory_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x_1,x_2,m,gap_max"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert [float(c) for c in cells] == [0.0, 0.0, 1.0, 0.5, 1.0]

    def test_csv_round_trips_at_full_precision(self):
        obj = linear_obj()
        cfg = SimConfig(lam=1.0, alpha=3.0, initial_positions=(0.0, 1.0), t_max=0.5)
        out = simulate(obj, cfg)
        text = trajectory_text(out.trajectory)
        rows = text.strip().split("\n")[1:]
        for row, t, state, m in zip(
            rows, out.trajectory.times, out.trajectory.states, out.trajectory.consensus_values
        ):
            cells = [float(c) for c in row.split(",")]
            assert cells[0] == t
            assert tuple(cells[1:3]) == state
            assert cells[3] == m
            assert cells[4] == max(state) - min(state)


def test_outcome_carries_the_final_state():
    obj = linear_obj()
    cfg = SimConfig(lam=1.0, alpha=2.0, initial_positions=(0.0, 1.0))
    out = simulate(obj, cfg, record_trajectory=False)
    assert isinstance(out, SimOutcome)
    assert out.trajectory is None
    assert len(out.final_positions) == 2
    assert max(out.final_positions) - min(out.final_positions) == out.final_gap
    assert out.t_final == pytest.approx(out.n_steps * cfg.dt_value)
