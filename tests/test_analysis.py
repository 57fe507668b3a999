import math
import random
from dataclasses import replace

import pytest

from cbolab.analysis import (
    CalyxCertificate,
    CurvatureError,
    InvariantCheck,
    SweepReport,
    certify_calyx,
    lipschitz_separation_bound,
    oracle_linear_error,
    oracle_nparticle_linear_error,
    oracle_quadratic_bounds,
    sweep_alpha,
    sweep_n,
    verify_invariants,
)
from cbolab.cli import sweep_csv
from cbolab.dynamics import SimConfig, reduced_two_particle, simulate
from cbolab.objective import Objective, builtin_objective

# Closed-form values computed independently at 50 decimal digits.
LIN_ERR = {
    (1.0, 1.0): 0.37988549304172247537,
    (10.0, 1.0): 0.069310178166072844477,
    (100.0, 1.0): 0.0069314718055994530942,
    (1000.0, 1.0): 0.00069314718055994530942,
    (10000.0, 1.0): 0.000069314718055994530942,
}
NPART_ERR = {
    (5.0, 4, 2, 1.0): 0.13728636641416544816,
    (5.0, 32, 1, 1.0): 0.65520892104750784811,
}
QUAD_BOUNDS_A100_B1 = (0.022155673136318950341, 0.058870501125773734551)
LIPSEP_A10_C2 = 0.034657359027997265471
LN2 = 0.69314718055994530942
# large-alpha limit of upper/lower for the quadratic pair: 8 sqrt(ln2/2)/sqrt(pi)
QUAD_RATIO_LIMIT = 2.6571298810718400765

# Certificate regression anchors: the builtin double-well at default parameters.
# These came from this implementation once it had been validated against the
# hand-computable quadratic case and the dominance property below; they pin
# the construction against accidental drift.
DOUBLE_WELL_CERT = {
    "r1": 0.0478998084,
    "c1": 0.26013371144661956,
    "C1": 0.8349317331263206,
    "f_star": 0.0,
    "f1": 0.0004919051404778663,
    "delta": 0.0004919051404778663,
    "r2": 0.024272538395249472,
    "c2": 0.0003279367603185775,
    "alpha0": 125630.38806628763,
}


def simpson(g, lo, hi, n=20_000):
    if n % 2:
        n += 1
    h = (hi - lo) / n
    s = g(lo) + g(hi)
    s += 4.0 * sum(g(lo + i * h) for i in range(1, n, 2))
    s += 2.0 * sum(g(lo + i * h) for i in range(2, n, 2))
    return s * h / 3.0


class TestLinearOracle:
    @pytest.mark.parametrize("key", sorted(LIN_ERR))
    def test_frozen_values(self, key):
        alpha, width = key
        assert oracle_linear_error(alpha, width) == pytest.approx(
            LIN_ERR[key], rel=1e-15
        )

    @pytest.mark.parametrize("alpha,width", [(1.0, 1.0), (5.0, 0.5), (10.0, 2.0)])
    def test_matches_quadrature(self, alpha, width):
        # independent route: the error is the integral of the upper-particle
        # weight 1/(1 + e^(alpha*tau)) over the gap variable
        quad = simpson(lambda t: 1.0 / (1.0 + math.exp(alpha * t)), 0.0, width)
        assert oracle_linear_error(alpha, width) == pytest.approx(quad, abs=1e-12)

    def test_small_alpha_limit_is_half_width(self):
        # the closed form cancels two nearly equal logs here, so the noise
        # floor is around 1e-7; the limit itself is approached much faster
        assert oracle_linear_error(1e-9, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_large_alpha_limit_is_ln2_over_alpha(self):
        assert oracle_linear_error(50.0, 100.0) == LN2 / 50.0

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            oracle_linear_error(0.0, 1.0)
        with pytest.raises(ValueError, match="width"):
            oracle_linear_error(1.0, -1.0)


class TestNParticleOracle:
    @pytest.mark.parametrize("key", sorted(NPART_ERR))
    def test_frozen_values(self, key):
        alpha, n, j, width = key
        got = oracle_nparticle_linear_error(alpha, n, j, width)
        assert got == pytest.approx(NPART_ERR[key], rel=1e-15)

    @pytest.mark.parametrize(
        "alpha,n,j,width", [(5.0, 4, 2, 1.0), (3.0, 5, 1, 2.0), (2.0, 7, 6, 1.0)]
    )
    def test_matches_quadrature(self, alpha, n, j, width):
        def g(t):
            e = math.exp(-alpha * t)
            return (n - j) * e / (j + (n - j) * e)

        quad = simpson(g, 0.0, width)
        got = oracle_nparticle_linear_error(alpha, n, j, width)
        assert got == pytest.approx(quad, abs=1e-12)

    def test_reduces_to_two_particle_form(self):
        for alpha in (0.5, 3.0, 40.0):
            assert oracle_nparticle_linear_error(alpha, 2, 1, 1.0) == pytest.approx(
                oracle_linear_error(alpha, 1.0), rel=1e-14
            )

    def test_large_width_limit(self):
        # j of n particles hold the minimizer; the rest lose all weight
        assert oracle_nparticle_linear_error(2.0, 10, 9, 1000.0) == pytest.approx(
            math.log(10.0 / 9.0) / 2.0, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            oracle_nparticle_linear_error(1.0, 1, 1, 1.0)
        with pytest.raises(ValueError, match="j must"):
            oracle_nparticle_linear_error(1.0, 4, 0, 1.0)
        with pytest.raises(ValueError, match="j must"):
            oracle_nparticle_linear_error(1.0, 4, 4, 1.0)


class TestQuadraticBounds:
    def test_frozen_values(self):
        lower, upper = oracle_quadratic_bounds(100.0, 1.0)
        assert lower == pytest.approx(QUAD_BOUNDS_A100_B1[0], rel=1e-14)
        assert upper == pytest.approx(QUAD_BOUNDS_A100_B1[1], rel=1e-14)

    def test_alpha_homogeneity(self):
        # both bounds scale as alpha^(-1/2) once the e^(-alpha b^2) tail is dead
        lo1, up1 = oracle_quadratic_bounds(1.0, 10.0)
        lo4, up4 = oracle_quadratic_bounds(4.0, 10.0)
        assert 2.0 * up4 == pytest.approx(up1, rel=1e-15)
        assert 2.0 * lo4 == pytest.approx(lo1, rel=1e-12)

    def test_ratio_approaches_the_constant(self):
        lower, upper = oracle_quadratic_bounds(100.0, 10.0)
        assert upper / lower == pytest.approx(QUAD_RATIO_LIMIT, rel=1e-13)

    def test_lower_can_go_negative_for_tiny_alpha_b(self):
        lower, upper = oracle_quadratic_bounds(1e-4, 1e-2)
        assert lower < 0.0
        assert upper > 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            oracle_quadratic_bounds(-1.0, 1.0)
        with pytest.raises(ValueError, match="b must"):
            oracle_quadratic_bounds(1.0, 0.0)

    def test_sandwich_on_the_exact_solver(self):
        obj = builtin_objective("quadratic")
        for alpha in (1e2, 1e3, 1e4, 1e5, 1e6):
            cfg = SimConfig(
                lam=1.0, alpha=alpha, initial_positions=(0.0, 1.0), gap_tol=1e-12
            )
            out = reduced_two_particle(obj, cfg)
            err = abs(out.x_inf_estimate)
            lower, upper = oracle_quadratic_bounds(alpha, 1.0)
            assert lower - 1e-12 <= err <= upper + 1e-12


class TestLipschitzSeparation:
    def test_frozen_values(self):
        assert lipschitz_separation_bound(10.0, 2.0) == pytest.approx(
            LIPSEP_A10_C2, rel=1e-15
        )
        assert lipschitz_separation_bound(1.0, 1.0) == pytest.approx(LN2, rel=1e-15)

    def test_dominates_the_linear_error(self):
        # ln2/(alpha c) with c = slope bounds the closed-form error everywhere
        for i in range(50):
            alpha = 10.0 ** (-2.0 + 8.0 * i / 49)
            for k in range(50):
                width = 10.0 ** (-3.0 + 6.0 * k / 49)
                assert lipschitz_separation_bound(alpha, 1.0) >= oracle_linear_error(
                    alpha, width
                )

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            lipschitz_separation_bound(0.0, 1.0)
        with pytest.raises(ValueError, match="c_f"):
            lipschitz_separation_bound(1.0, 0.0)


class TestCertifyCalyx:
    def test_quadratic_matches_hand_computation(self):
        # f(x) = x^2 on [-1, 1]: curvature is exactly 2 everywhere, the window
        # grows to the whole domain, delta ~ 1, r2 ~ sqrt(1/2), c2 ~ 1/2 and
        # alpha0 ~ 2 sqrt(2)
        cert = certify_calyx(builtin_objective("quadratic", -1.0, 1.0))
        assert cert.c1 == pytest.approx(2.0, abs=1e-4)
        assert cert.C1 == pytest.approx(2.0, abs=1e-4)
        assert cert.delta == pytest.approx(1.0, abs=1e-4)
        assert cert.r2 == pytest.approx(math.sqrt(0.5), abs=1e-4)
        assert cert.c2 == pytest.approx(0.5, abs=1e-4)
        assert cert.alpha0 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-4)
        assert cert.f_star == 0.0

    def test_double_well_regression_anchor(self):
        cert = certify_calyx(builtin_objective("double-well"))
        for name, want in DOUBLE_WELL_CERT.items():
            assert getattr(cert, name) == pytest.approx(want, rel=1e-10), name

    @pytest.mark.parametrize(
        "obj",
        [
            builtin_objective("quadratic", -1.0, 1.0),
            builtin_objective("shifted-quadratic"),
            builtin_objective("double-well"),
            builtin_objective("rastrigin1d"),
        ],
        ids=["quadratic", "shifted-quadratic", "double-well", "rastrigin1d"],
    )
    def test_arithmetic_invariants(self, obj):
        cert = certify_calyx(obj)
        assert cert.alpha0 * cert.r2 * cert.c2 == pytest.approx(1.0, abs=1e-12)
        assert cert.r2 <= cert.r1
        assert 0.0 < cert.c1 <= cert.C1
        assert cert.delta > 0.0
        assert cert.f1 >= cert.f_star

    def test_error_bound_formula_and_threshold(self):
        cert = certify_calyx(builtin_objective("quadratic", -1.0, 1.0))
        alpha = 10.0 * cert.alpha0
        want = LN2 / (alpha * cert.c2) + math.sqrt(LN2 / (alpha * cert.c1))
        assert cert.error_bound(alpha) == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValueError, match="alpha0"):
            cert.error_bound(cert.alpha0)
        with pytest.raises(ValueError, match="alpha0"):
            cert.error_bound(0.5 * cert.alpha0)

    def test_error_bound_decreases_with_alpha(self):
        cert = certify_calyx(builtin_objective("double-well"))
        alphas = [cert.alpha0 * m for m in (1.5, 3.0, 10.0, 100.0)]
        bounds = [cert.error_bound(a) for a in alphas]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_flat_minimum_is_rejected(self):
        # coincident wells make the double-well a pure quartic: zero curvature
        quartic = builtin_objective("double-well", params=(0.5, 0.5, 0.0))
        with pytest.raises(CurvatureError):
            certify_calyx(quartic)

    def test_table_kink_is_rejected(self):
        # a piecewise-linear vee has no stable second difference at its tip
        vee = builtin_objective("custom-table", params=(0.0, 1.0, 0.5, 0.0, 1.0, 1.0))
        with pytest.raises(CurvatureError):
            certify_calyx(vee)

    def test_boundary_minimizer_is_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            certify_calyx(builtin_objective("linear"))

    def test_near_boundary_minimizer_is_rejected(self):
        obj = builtin_objective("quadratic", 0.0, 1.0, (1e-9,))
        with pytest.raises(ValueError, match="finite-difference step"):
            certify_calyx(obj)

    def test_missing_minimizer_is_rejected(self):
        obj = Objective(domain_lo=-1.0, domain_hi=1.0, eval=lambda x: x * x)
        with pytest.raises(ValueError, match="known minimizer"):
            certify_calyx(obj)

    def test_grid_validation(self):
        obj = builtin_objective("quadratic", -1.0, 1.0)
        with pytest.raises(ValueError, match="grid_n"):
            certify_calyx(obj, grid_n=5)

    @pytest.mark.parametrize("grid_n", [100.5, math.inf, math.nan])
    def test_grid_n_must_be_whole(self, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            certify_calyx(builtin_objective("quadratic", -1.0, 1.0), grid_n=grid_n)

    def test_non_isolated_minimum_is_rejected(self):
        # (x^2-1)^2 has two global minima; certifying around +1 must fail at
        # the separation stage once the Lipschitz slack is accounted for
        def w_shape(x: float) -> float:
            u = x * x - 1.0
            return u * u

        obj = Objective(
            domain_lo=-2.0,
            domain_hi=2.0,
            eval=w_shape,
            known_minimizer=1.0,
            lipschitz_hint=24.0,
        )
        with pytest.raises(ValueError, match="not isolated"):
            certify_calyx(obj)


class TestCertificateSoundness:
    """The certified bound dominates the measured error for every family.

    Straddling pairs are drawn around the minimizer and alpha spans four
    decades above alpha0. The gap resolution is scaled with sqrt(alpha*C1)
    so the weight transition layer stays resolved at large alpha.
    """

    FAMILIES = [
        builtin_objective("quadratic", -1.0, 1.0),
        builtin_objective("shifted-quadratic"),
        builtin_objective("double-well"),
        builtin_objective("rastrigin1d"),
    ]

    @pytest.mark.parametrize(
        "obj", FAMILIES, ids=[o.family for o in FAMILIES]
    )
    def test_bound_dominates_measured_error(self, obj):
        cert = certify_calyx(obj)
        x_star = obj.known_minimizer
        lo, hi = obj.domain_lo, obj.domain_hi
        rng = random.Random(0xCB01AB)
        pairs = []
        for _ in range(3):
            x1 = rng.uniform(lo + 1e-3 * obj.width, x_star - 0.02 * (x_star - lo))
            x2 = rng.uniform(x_star + 0.02 * (hi - x_star), hi - 1e-3 * obj.width)
            pairs.append((x1, x2))
        for mult in (2.0, 10.0, 100.0, 1000.0, 10000.0):
            alpha = cert.alpha0 * mult
            bound = cert.error_bound(alpha)
            for x1, x2 in pairs:
                cfg = SimConfig(lam=1.0, alpha=alpha, initial_positions=(x1, x2))
                out = reduced_two_particle(obj, cfg)
                err = abs(out.x_inf_estimate - x_star)
                assert err <= bound, (
                    f"alpha={alpha:.6g} ics=({x1:.6g},{x2:.6g}): "
                    f"err {err:.6g} > bound {bound:.6g}"
                )


class TestSweepAlpha:
    def base_cfg(self, **kw):
        kw.setdefault("lam", 1.0)
        kw.setdefault("alpha", 1.0)
        kw.setdefault("initial_positions", (0.0, 1.0))
        return SimConfig(**kw)

    def test_linear_rate_is_one_over_alpha(self):
        # the 1/alpha asymptote needs alpha*width >> 1, hence the grid starts
        # at 10 (at alpha = 1 the error still sits at 55% of ln2/alpha)
        report = sweep_alpha(
            builtin_objective("linear"), self.base_cfg(), [10.0, 100.0, 1000.0, 10000.0]
        )
        assert report.param_name == "alpha"
        assert -1.05 <= report.fitted_slope <= -0.95
        assert report.slope_stderr < 0.05
        for row in report.rows:
            key = (row.param_value, 1.0)
            assert row.abs_error == pytest.approx(LIN_ERR[key], abs=1e-9)
            assert row.bound_lower is None
            assert row.bound_upper == pytest.approx(
                lipschitz_separation_bound(row.param_value, 1.0), rel=1e-15
            )
            # at large alpha the error equals the bound, so allow solver noise
            assert row.abs_error <= row.bound_upper + 1e-9

    def test_linear_pair_is_exact_up_to_alpha_1e9(self):
        # the weights switch over a span of order one in ln s near
        # s ~ 1/alpha, which a step floor absolute in s steps over at large
        # alpha (2.4e-7 off, fitted slope -0.61)
        alphas = [10.0 ** (k / 2) for k in range(6, 19)]
        report = sweep_alpha(builtin_objective("linear"), self.base_cfg(), alphas)
        for row in report.rows:
            exact = oracle_linear_error(row.param_value, 1.0)
            assert abs(row.abs_error - exact) <= 1e-10, row.param_value
        assert -1.05 <= report.fitted_slope <= -0.95

    def test_quadratic_rate_is_half_with_bounds(self):
        report = sweep_alpha(
            builtin_objective("quadratic"), self.base_cfg(), [100.0, 1000.0, 10000.0]
        )
        assert -0.6 <= report.fitted_slope <= -0.4
        for row in report.rows:
            lower, upper = oracle_quadratic_bounds(row.param_value, 1.0)
            assert row.bound_lower == pytest.approx(lower, rel=1e-15)
            assert row.bound_upper == pytest.approx(upper, rel=1e-15)
            assert lower - 1e-12 <= row.abs_error <= upper + 1e-12

    def test_bounds_only_for_the_canonical_start(self):
        report = sweep_alpha(
            builtin_objective("quadratic"),
            self.base_cfg(initial_positions=(0.1, 0.9)),
            [10.0, 100.0],
        )
        for row in report.rows:
            assert row.bound_lower is None and row.bound_upper is None

    def test_lambda_drops_out(self):
        obj = builtin_objective("quadratic")
        r1 = sweep_alpha(obj, self.base_cfg(lam=1.0), [10.0, 100.0])
        r5 = sweep_alpha(obj, self.base_cfg(lam=5.0), [10.0, 100.0])
        for a, b in zip(r1.rows, r5.rows):
            assert a.x_inf == b.x_inf

    def test_noise_floor_rows_are_excluded_from_the_fit(self):
        # with gap_tol = 1e-4 every error here sits below 10*gap_tol = 1e-3,
        # so no row is eligible and the fit is reported as undefined
        report = sweep_alpha(
            builtin_objective("linear"),
            self.base_cfg(gap_tol=1e-4),
            [1e4, 1e5],
        )
        assert all(row.abs_error <= 1e-3 for row in report.rows)
        assert report.fitted_slope is None
        assert report.slope_stderr is None

    def test_single_point_has_no_slope(self):
        report = sweep_alpha(builtin_objective("linear"), self.base_cfg(), [10.0])
        assert report.fitted_slope is None

    def test_two_points_have_zero_stderr(self):
        report = sweep_alpha(builtin_objective("linear"), self.base_cfg(), [10.0, 100.0])
        assert report.slope_stderr == 0.0

    def test_parallel_jobs_change_nothing(self):
        obj = builtin_objective("quadratic")
        serial = sweep_alpha(obj, self.base_cfg(), [10.0, 100.0, 1000.0], jobs=1)
        parallel = sweep_alpha(obj, self.base_cfg(), [10.0, 100.0, 1000.0], jobs=2)
        assert serial == parallel

    def test_unpicklable_objective_falls_back_to_serial(self):
        obj = Objective(
            domain_lo=0.0, domain_hi=1.0, eval=lambda x: x, known_minimizer=0.0
        )
        report = sweep_alpha(obj, self.base_cfg(), [10.0, 100.0], jobs=4)
        assert report.rows[0].abs_error == pytest.approx(LIN_ERR[(10.0, 1.0)], abs=1e-9)

    def test_rows_are_limits_not_t_max_snapshots(self):
        # a three-particle sweep once ran each row in physical time and cut
        # it at t_max = 2, giving a fitted slope of -0.91; the rows are limits
        obj = builtin_objective("quadratic", -1.0, 1.0)
        base = self.base_cfg(initial_positions=(0.0, 0.4, 0.8), t_max=2.0)
        report = sweep_alpha(obj, base, [10.0, 100.0, 1000.0])
        for row in report.rows:
            cfg = replace(base, alpha=row.param_value, t_max=None)
            full = simulate(obj, cfg, record_trajectory=False)
            assert full.stop_reason == "gap_converged"
            assert row.x_inf == pytest.approx(full.x_inf_estimate, abs=1e-8)
        assert -0.6 <= report.fitted_slope <= -0.4

    def test_validation(self):
        obj = builtin_objective("linear")
        with pytest.raises(ValueError, match="nonempty"):
            sweep_alpha(obj, self.base_cfg(), [])
        with pytest.raises(ValueError, match="increasing"):
            sweep_alpha(obj, self.base_cfg(), [10.0, 10.0])
        with pytest.raises(ValueError, match="positive"):
            sweep_alpha(obj, self.base_cfg(), [-1.0, 10.0])
        bare = Objective(domain_lo=0.0, domain_hi=1.0, eval=lambda x: x)
        with pytest.raises(ValueError, match="minimizer"):
            sweep_alpha(bare, self.base_cfg(), [10.0])


class TestSweepN:
    def test_matches_the_closed_form(self):
        report = sweep_n(5.0, 1.0, [2, 4, 8, 16, 32])
        assert report.param_name == "N"
        for row in report.rows:
            exact = oracle_nparticle_linear_error(5.0, int(row.param_value), 1, 1.0)
            assert row.bound_lower == exact and row.bound_upper == exact
            assert row.abs_error == pytest.approx(exact, abs=1e-6)
        errs = [r.abs_error for r in report.rows]
        assert all(b > a for a, b in zip(errs, errs[1:]))
        assert report.rows[0].abs_error == pytest.approx(
            oracle_linear_error(5.0, 1.0), abs=1e-6
        )
        assert report.fitted_slope > 0.0

    def test_cluster_split(self):
        report = sweep_n(5.0, 1.0, [4], j=2)
        assert report.rows[0].abs_error == pytest.approx(
            NPART_ERR[(5.0, 4, 2, 1.0)], abs=1e-6
        )

    @pytest.mark.parametrize("alpha", [1e6, 1e9])
    def test_exact_at_extreme_alpha_and_n(self, alpha):
        report = sweep_n(alpha, 1.0, [2, 16, 64, 256], j=1)
        assert max(abs(r.abs_error - r.bound_lower) for r in report.rows) <= 1e-10

    def test_rows_agree_with_simulate(self):
        # simulate stays the independent physical-time route to each row
        report = sweep_n(5.0, 1.0, [2, 3, 5])
        obj = builtin_objective("linear", 0.0, 1.0, (1.0,))
        for row in report.rows:
            n = int(row.param_value)
            cfg = SimConfig(lam=1.0, alpha=5.0, initial_positions=(0.0,) + (1.0,) * (n - 1))
            full = simulate(obj, cfg, record_trajectory=False)
            assert row.x_inf == pytest.approx(full.x_inf_estimate, abs=1e-8)

    def test_parallel_jobs_change_nothing(self):
        assert sweep_n(5.0, 1.0, [2, 4, 8], jobs=2) == sweep_n(5.0, 1.0, [2, 4, 8], jobs=1)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_n(5.0, 1.0, [])
        with pytest.raises(ValueError, match="increasing"):
            sweep_n(5.0, 1.0, [4, 4, 8])
        with pytest.raises(ValueError, match="at least 2"):
            sweep_n(5.0, 1.0, [1, 2])
        with pytest.raises(ValueError, match="j must"):
            sweep_n(5.0, 1.0, [2, 4], j=2)
        with pytest.raises(ValueError, match="alpha"):
            sweep_n(0.0, 1.0, [2, 4])
        with pytest.raises(ValueError, match="width"):
            sweep_n(5.0, -1.0, [2, 4])

    @pytest.mark.parametrize("counts", [[2.5, 4], [2, math.inf], [2, math.nan]])
    def test_counts_must_be_whole(self, counts):
        with pytest.raises(ValueError, match="counts must be integers"):
            sweep_n(5.0, 1.0, counts)

    def test_j_must_be_whole(self):
        with pytest.raises(ValueError, match="j must be an integer"):
            sweep_n(5.0, 1.0, [4, 8], j=1.5)
        assert sweep_n(5.0, 1.0, [4, 8], j=2.0) == sweep_n(5.0, 1.0, [4, 8], j=2)


class TestSweepCsv:
    def test_layout_and_round_trip(self):
        report = sweep_alpha(
            builtin_objective("linear"),
            SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0)),
            [10.0, 100.0],
        )
        text = sweep_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "param,x_inf,abs_error,bound_lower,bound_upper"
        assert lines[-1].startswith("# fitted_slope=")
        assert "slope_stderr=" in lines[-1]
        assert len(lines) == 2 + len(report.rows)
        cells = lines[1].split(",")
        assert float(cells[0]) == 10.0
        assert float(cells[1]) == report.rows[0].x_inf  # 17g round-trips exactly
        assert cells[3] == "nan"  # linear setups carry no lower bound

    def test_undefined_slope_is_nan(self):
        report = SweepReport(
            param_name="alpha", rows=(), fitted_slope=None, slope_stderr=None
        )
        text = sweep_csv(report)
        assert "# fitted_slope=nan slope_stderr=nan" in text


class TestVerifyInvariants:
    def test_rk4_passes_everything(self):
        obj = builtin_objective("rastrigin1d")
        cfg = SimConfig(lam=2.0, alpha=3.0, initial_positions=(-1.0, 0.5, 2.0))
        report = verify_invariants(obj, cfg)
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == [
            "gap_decay",
            "order_preservation",
            "consensus_containment",
            "average_bound",
            "uniform_bound",
        ]
        by_name = {c.name: c for c in report.checks}
        assert by_name["gap_decay"].residual <= 1e-8
        assert by_name["order_preservation"].residual == 0.0
        assert by_name["consensus_containment"].residual == 0.0
        assert by_name["average_bound"].residual <= 1e-8
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.invariant_residuals == tuple(c.residual for c in report.checks)

    def test_euler_residual_scales_linearly_in_dt(self):
        obj = builtin_objective("linear")
        res = {}
        for dt in (1e-2, 1e-3):
            cfg = SimConfig(
                lam=1.0,
                alpha=1.0,
                initial_positions=(0.0, 1.0),
                integrator="euler",
                dt=dt,
            )
            report = verify_invariants(obj, cfg)
            assert report.all_passed
            res[dt] = report.checks[0].residual
        ratio = res[1e-2] / res[1e-3]
        assert 8.0 <= ratio <= 12.0

    def test_zero_gap_run_has_exactly_zero_residuals(self):
        obj = builtin_objective("linear")
        cfg = SimConfig(lam=1.0, alpha=2.0, initial_positions=(0.4, 0.4, 0.4))
        report = verify_invariants(obj, cfg)
        assert report.all_passed
        for check in report.checks:
            assert check.residual == 0.0, check.name
        out = simulate(obj, cfg, record_trajectory=False)
        assert out.invariant_residuals == tuple(c.residual for c in report.checks)

    def test_aborted_integration_reports_a_failed_check(self):
        def landmine(x: float) -> float:
            return math.nan if x > 0.6 else x

        obj = Objective(domain_lo=0.0, domain_hi=1.0, eval=landmine)
        cfg = SimConfig(lam=1.0, alpha=1.0, initial_positions=(0.0, 1.0))
        report = verify_invariants(obj, cfg)
        assert not report.all_passed
        assert len(report.checks) == 1
        check = report.checks[0]
        assert isinstance(check, InvariantCheck)
        assert check.name == "integration"
        assert check.residual == math.inf
        assert check.detail


def test_certificate_dataclass_is_plain_data():
    cert = CalyxCertificate(
        r1=1.0, c1=2.0, C1=2.0, f_star=0.0, f1=1.0, delta=1.0, r2=0.5, c2=0.25, alpha0=8.0
    )
    assert cert.error_bound(16.0) == pytest.approx(
        LN2 / (16.0 * 0.25) + math.sqrt(LN2 / 32.0), rel=1e-15
    )
