import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbolab.objective import (
    BUILTIN_NAMES,
    Objective,
    builtin_objective,
    consensus_point,
    load_table_csv,
    softmax_weights,
    table_objective,
    weights,
)

# Reference values computed independently at 50 decimal digits and rounded
# to binary64. sigma(1) = 1/(1+e^-1), the two-point weight split at alpha=1.
SIGMOID_1 = 0.73105857863000487925
SIGMOID_1_COMPL = 0.26894142136999512075

# softmax weights for f(x) = x^2, alpha = 2, positions [0, 0.5, 1]
WEIGHTS_QUAD_A2 = (
    0.57409699296769455953,
    0.34820742788373485248,
    0.077695579148570587986,
)


# Each closed-form family at its defaults and at one explicit parameter set:
# (name, domain_lo, domain_hi, params) -> (domain_lo, domain_hi,
# known_minimizer, lipschitz_hint, family, params) and the float.hex of eval
# at lo + width * i / 10 for i = 0..10. A change to any of these is a change
# to the catalogue.
CATALOGUE = [
    (
        ("linear", None, None, ()),
        (0.0, 1.0, 0.0, 1.0, "linear", (1.0,)),
        (
            "0x0.0p+0", "0x1.999999999999ap-4", "0x1.999999999999ap-3",
            "0x1.3333333333333p-2", "0x1.999999999999ap-2", "0x1.0000000000000p-1",
            "0x1.3333333333333p-1", "0x1.6666666666666p-1", "0x1.999999999999ap-1",
            "0x1.ccccccccccccdp-1", "0x1.0000000000000p+0",
        ),
    ),
    (
        ("linear", -1.0, 2.0, (2.5,)),
        (-1.0, 2.0, -1.0, 2.5, "linear", (2.5,)),
        (
            "0x0.0p+0", "0x1.8000000000001p-1", "0x1.8000000000000p+0",
            "0x1.2000000000000p+1", "0x1.8000000000000p+1", "0x1.e000000000000p+1",
            "0x1.2000000000000p+2", "0x1.5000000000000p+2", "0x1.8000000000000p+2",
            "0x1.b000000000000p+2", "0x1.e000000000000p+2",
        ),
    ),
    (
        ("quadratic", None, None, ()),
        (0.0, 1.0, 0.0, None, "quadratic", (0.0,)),
        (
            "0x0.0p+0", "0x1.47ae147ae147cp-7", "0x1.47ae147ae147cp-5",
            "0x1.70a3d70a3d70ap-4", "0x1.47ae147ae147cp-3", "0x1.0000000000000p-2",
            "0x1.70a3d70a3d70ap-2", "0x1.f5c28f5c28f5bp-2", "0x1.47ae147ae147cp-1",
            "0x1.9eb851eb851ecp-1", "0x1.0000000000000p+0",
        ),
    ),
    (
        ("quadratic", -1.0, 1.0, (0.3,)),
        (-1.0, 1.0, 0.3, None, "quadratic", (0.3,)),
        (
            "0x1.b0a3d70a3d70bp+0", "0x1.35c28f5c28f5dp+0", "0x1.9eb851eb851eap-1",
            "0x1.f5c28f5c28f5bp-2", "0x1.ffffffffffffep-3", "0x1.70a3d70a3d70ap-4",
            "0x1.47ae147ae147fp-7", "0x1.47ae147ae1472p-7", "0x1.70a3d70a3d70fp-4",
            "0x1.0000000000000p-2", "0x1.f5c28f5c28f5bp-2",
        ),
    ),
    (
        ("shifted-quadratic", None, None, ()),
        (0.0, 1.0, 0.5, None, "shifted-quadratic", (0.5, 1.0)),
        (
            "0x1.4000000000000p+0", "0x1.28f5c28f5c290p+0", "0x1.170a3d70a3d71p+0",
            "0x1.0a3d70a3d70a4p+0", "0x1.028f5c28f5c29p+0", "0x1.0000000000000p+0",
            "0x1.028f5c28f5c29p+0", "0x1.0a3d70a3d70a4p+0", "0x1.170a3d70a3d71p+0",
            "0x1.28f5c28f5c290p+0", "0x1.4000000000000p+0",
        ),
    ),
    (
        ("shifted-quadratic", -2.0, 3.0, (0.7, 0.25)),
        (-2.0, 3.0, 0.7, None, "shifted-quadratic", (0.7, 0.25)),
        (
            "0x1.e28f5c28f5c2ap+2", "0x1.45c28f5c28f5dp+2", "0x1.91eb851eb851ep+1",
            "0x1.b0a3d70a3d70ap+0", "0x1.7ae147ae147aep-1", "0x1.28f5c28f5c28fp-2",
            "0x1.5c28f5c28f5c3p-2", "0x1.c7ae147ae147cp-1", "0x1.f0a3d70a3d70bp+0",
            "0x1.beb851eb851ecp+1", "0x1.628f5c28f5c28p+2",
        ),
    ),
    (
        ("double-well", None, None, ()),
        (0.0, 1.0, 0.75, None, "double-well", (0.25, 0.75, 0.01)),
        (
            "0x1.4e147ae147ae1p-5", "0x1.c1f212d773190p-7", "0x1.ef9db22d0e560p-9",
            "0x1.4bc6a7ef9db23p-9", "0x1.04ea4a8c154cap-8", "0x1.28f5c28f5c28fp-8",
            "0x1.86c226809d496p-9", "0x1.16872b020c4a4p-11", "0x1.99999999999a7p-11",
            "0x1.3edfa43fe5c94p-7", "0x1.251eb851eb852p-5",
        ),
    ),
    (
        ("double-well", -1.0, 2.0, (1.5, -0.5, 0.2)),
        (-1.0, 2.0, -0.5, None, "double-well", (1.5, -0.5, 0.2)),
        (
            "0x1.9cccccccccccdp+0", "0x1.9ce075f6fd21ep-3", "0x1.381d7dbf487fbp-5",
            "0x1.c432ca57a786fp-2", "0x1.da29c779a6b50p-1", "0x1.3333333333333p+0",
            "0x1.2a858793dd97fp+0", "0x1.d7dbf487fcb92p-1", "0x1.8425aee631f8ap-1",
            "0x1.295e9e1b089a3p+0", "0x1.6800000000000p+1",
        ),
    ),
    (
        ("rastrigin1d", None, None, ()),
        (-5.12, 5.12, 0.0, None, "rastrigin1d", (0.0, 1.0)),
        (
            "0x1.a7c453afdad6dp+4", "0x1.0f424986fec85p+4", "0x1.31357bc720333p+3",
            "0x1.0f52f9dd6bdabp+2", "0x1.0f57322c967b1p+0", "0x0.0p+0",
            "0x1.0f57322c967b1p+0", "0x1.0f52f9dd6bdb2p+2", "0x1.31357bc720333p+3",
            "0x1.0f424986fec82p+4", "0x1.a7c453afdad6dp+4",
        ),
    ),
    (
        ("rastrigin1d", -2.0, 2.0, (0.5, 3.0)),
        (-2.0, 2.0, 0.5, None, "rastrigin1d", (0.5, 3.0)),
        (
            "0x1.8800000000000p+3", "0x1.3ee8a2fe474e4p+2", "0x1.b44a9034ebe50p+2",
            "0x1.677dc3681f180p+2", "0x1.6208f25f83a02p+0", "0x1.9000000000000p+2",
            "0x1.2a784b256da63p-1", "0x1.01175d01b8b17p+2", "0x1.1ab0f69b524b3p+2",
            "0x1.c86f58c5ea067p+0", "0x1.0800000000000p+3",
        ),
    ),
]

PARAM_NAMES = {
    "linear": ("slope",),
    "quadratic": ("center",),
    "shifted-quadratic": ("center", "offset"),
    "double-well": ("side", "bottom", "tilt"),
    "rastrigin1d": ("center", "amplitude"),
}


class TestBuiltinCatalog:
    def test_every_builtin_constructs_with_defaults(self):
        for name in BUILTIN_NAMES:
            if name == "custom-table":
                obj = builtin_objective(name, params=(0.0, 1.0, 0.5, 0.0, 1.0, 1.0))
            else:
                obj = builtin_objective(name)
            assert obj.domain_lo < obj.domain_hi
            assert obj.known_minimizer is not None
            assert obj.family == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_objective("cubic")

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "custom-table"])
    def test_nonnegative_and_minimized_at_known_minimizer(self, name):
        obj = builtin_objective(name)
        lo, hi = obj.domain_lo, obj.domain_hi
        f_star = obj.eval(obj.known_minimizer)
        for i in range(201):
            x = lo + (hi - lo) * i / 200
            v = obj.eval(x)
            assert v >= 0.0
            assert v >= f_star - 1e-12

    def test_linear_slope_and_hint(self):
        obj = builtin_objective("linear", 0.0, 2.0, (3.0,))
        assert obj.eval(0.0) == 0.0
        assert obj.eval(1.0) == 3.0
        assert obj.lipschitz_hint == 3.0
        assert obj.known_minimizer == 0.0

    def test_linear_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError, match="slope"):
            builtin_objective("linear", params=(0.0,))
        with pytest.raises(ValueError, match="slope"):
            builtin_objective("linear", params=(-1.0,))

    def test_quadratic_center_outside_domain(self):
        with pytest.raises(ValueError, match="center"):
            builtin_objective("quadratic", 0.0, 1.0, (2.0,))

    def test_double_well_global_minimum_is_unique(self):
        obj = builtin_objective("double-well")
        side, bottom, tilt = obj.params
        assert obj.known_minimizer == bottom
        assert obj.eval(bottom) == 0.0
        assert obj.eval(side) == pytest.approx(tilt * (side - bottom) ** 2)
        assert obj.eval(side) > 0.0

    def test_double_well_distinct_wells_need_tilt(self):
        with pytest.raises(ValueError, match="tilt"):
            builtin_objective("double-well", params=(0.25, 0.75, 0.0))
        # coincident wells degrade to a pure quartic and need no tilt
        obj = builtin_objective("double-well", params=(0.5, 0.5, 0.0))
        assert obj.eval(0.75) == pytest.approx(0.25**4)

    def test_rastrigin_values(self):
        obj = builtin_objective("rastrigin1d")
        assert obj.domain_lo == -5.12 and obj.domain_hi == 5.12
        assert obj.eval(0.0) == 0.0
        # one period out: d^2 plus a vanishing cosine term
        assert obj.eval(1.0) == pytest.approx(1.0)
        assert obj.eval(0.5) == pytest.approx(0.25 + 2.0)

    @pytest.mark.parametrize("name", sorted(PARAM_NAMES))
    def test_domain_where_the_family_overflows_is_rejected(self, name):
        # quadratic is inf at the ends; rastrigin1d's cos raises a bare ValueError
        with pytest.raises(ValueError, match=f"^{name}: .* not finite"):
            builtin_objective(name, -1e308, 1e308)

    def test_param_count_validation(self):
        with pytest.raises(ValueError):
            builtin_objective("quadratic", params=(0.0, 1.0))
        with pytest.raises(ValueError):
            builtin_objective("rastrigin1d", params=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="pairs"):
            builtin_objective("custom-table", params=(0.0, 1.0, 0.5))

    @pytest.mark.parametrize(
        "args, fields, evals", CATALOGUE,
        ids=[f"{a[0]}-{'explicit' if a[3] else 'defaults'}" for a, _, _ in CATALOGUE],
    )
    def test_catalogue_is_pinned(self, args, fields, evals):
        obj = builtin_objective(*args)
        got = (obj.domain_lo, obj.domain_hi, obj.known_minimizer, obj.lipschitz_hint,
               obj.family, obj.params)
        assert got == fields
        assert tuple(obj.eval(obj.domain_lo + obj.width * i / 10).hex() for i in range(11)) == evals

    @pytest.mark.parametrize("name", sorted(PARAM_NAMES))
    def test_one_parameter_too_many_names_them_all(self, name):
        names = PARAM_NAMES[name]
        params = next(a[3] for a, _, _ in CATALOGUE if a[0] == name and a[3])
        assert len(params) == len(names)
        with pytest.raises(ValueError) as info:
            builtin_objective(name, None, None, params + (0.0,))
        for word in (name, *names):
            assert word in str(info.value)

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="domain"):
            Objective(domain_lo=1.0, domain_hi=0.0, eval=lambda x: x)
        with pytest.raises(ValueError, match="known_minimizer"):
            Objective(domain_lo=0.0, domain_hi=1.0, eval=lambda x: x, known_minimizer=2.0)
        with pytest.raises(ValueError, match="lipschitz"):
            Objective(domain_lo=0.0, domain_hi=1.0, eval=lambda x: x, lipschitz_hint=-1.0)

    def test_builtins_pickle(self):
        for name in BUILTIN_NAMES:
            if name == "custom-table":
                obj = builtin_objective(name, params=(0.0, 1.0, 0.5, 0.0, 1.0, 1.0))
            else:
                obj = builtin_objective(name)
            clone = pickle.loads(pickle.dumps(obj))
            for i in range(11):
                x = obj.domain_lo + obj.width * i / 10
                assert clone.eval(x) == obj.eval(x)


class TestTableObjective:
    def test_values_shifted_to_zero_minimum(self):
        obj = table_objective((0.0, 1.0, 2.0), (3.0, 1.0, 5.0))
        assert obj.eval(1.0) == 0.0
        assert obj.eval(0.0) == 2.0
        assert obj.known_minimizer == 1.0
        assert obj.lipschitz_hint == 4.0  # steepest segment after the shift

    def test_interpolation_and_clamping(self):
        obj = table_objective((0.0, 1.0), (0.0, 2.0))
        assert obj.eval(0.5) == pytest.approx(1.0)
        assert obj.eval(-0.5) == 0.0  # clamped to the end value
        assert obj.eval(1.5) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            table_objective((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="two"):
            table_objective((0.0,), (1.0,))
        with pytest.raises(ValueError, match="finite"):
            table_objective((0.0, 1.0), (math.inf, 0.0))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,f\n0.0,3.0\n0.5,1.0\n1.0,2.0\n")
        obj = load_table_csv(str(path))
        assert obj.domain_lo == 0.0 and obj.domain_hi == 1.0
        assert obj.known_minimizer == 0.5
        assert obj.eval(0.5) == 0.0
        assert obj.eval(0.0) == 2.0

    @pytest.mark.parametrize("header", ["x,f\n", ""], ids=["with-header", "no-header"])
    def test_csv_non_numeric_data_row_is_not_a_header(self, header, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text(header + "0.0,1O\n0.5,0\n1,1\n")
        with pytest.raises(ValueError, match="non-numeric row"):
            load_table_csv(str(path))

    def test_csv_header_needs_both_fields_non_numeric(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,1\n0.0,3.0\n0.5,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="non-numeric row"):
            load_table_csv(str(path))
        path.write_text("\nx,f\n0.0,3.0\n0.5,1.0\n1.0,2.0\n")
        assert load_table_csv(str(path)).domain_lo == 0.0

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\nnope,2.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_table_csv(str(path))
        path.write_text("x,f\n0.0,1.0\n")
        with pytest.raises(ValueError, match="two data rows"):
            load_table_csv(str(path))


class TestSoftmaxWeights:
    def test_two_point_split_matches_sigmoid(self):
        w = softmax_weights([0.0, 1.0], 1.0)
        assert w[0] == pytest.approx(SIGMOID_1, rel=1e-15)
        assert w[1] == pytest.approx(SIGMOID_1_COMPL, rel=1e-15)

    def test_quadratic_anchor(self):
        obj = builtin_objective("quadratic")
        w = weights(obj, 2.0, [0.0, 0.5, 1.0])
        for got, want in zip(w, WEIGHTS_QUAD_A2):
            assert got == pytest.approx(want, rel=1e-14)

    def test_alpha_zero_is_exactly_uniform(self):
        w = softmax_weights([5.0, 0.1, 3.0, 2.0], 0.0)
        assert list(w) == [0.25, 0.25, 0.25, 0.25]

    def test_extreme_alpha_concentrates_on_best(self):
        w = softmax_weights([0.0, 1.0, 2.0], 1e6)
        assert w[0] == 1.0
        assert w[1] == 0.0 and w[2] == 0.0

    def test_no_overflow_at_huge_values(self):
        w = softmax_weights([1000.0, 0.0, 999.0], 1e6)
        assert all(math.isfinite(x) for x in w)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    @given(
        values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64),
        alpha=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200)
    def test_simplex_property(self, values, alpha):
        w = softmax_weights(values, alpha)
        assert len(w) == len(values)
        assert all(math.isfinite(x) and x >= 0.0 for x in w)
        assert abs(math.fsum(w) - 1.0) <= 1e-12

    @given(
        values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16),
        shift=st.floats(-5.0, 5.0),
        alpha=st.floats(0.0, 100.0),
    )
    @settings(max_examples=100)
    def test_shift_invariance(self, values, shift, alpha):
        w0 = softmax_weights(values, alpha)
        w1 = softmax_weights([v + shift for v in values], alpha)
        for a, b in zip(w0, w1):
            assert a == pytest.approx(b, abs=5e-12)

    @given(
        values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=16),
        scale=st.floats(0.1, 10.0),
        alpha=st.floats(0.0, 100.0),
    )
    @settings(max_examples=100)
    def test_scale_commutes_with_alpha(self, values, scale, alpha):
        w0 = softmax_weights(values, alpha * scale)
        w1 = softmax_weights([v * scale for v in values], alpha)
        for a, b in zip(w0, w1):
            assert a == pytest.approx(b, abs=1e-9)


class TestWeightsValidation:
    def test_rejects_positions_outside_domain(self):
        obj = builtin_objective("linear")
        with pytest.raises(ValueError, match="outside domain"):
            weights(obj, 1.0, [0.0, 1.5])

    def test_rejects_bad_alpha(self):
        obj = builtin_objective("linear")
        with pytest.raises(ValueError, match="alpha"):
            weights(obj, -1.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="alpha"):
            weights(obj, math.nan, [0.0, 1.0])

    def test_rejects_empty(self):
        obj = builtin_objective("linear")
        with pytest.raises(ValueError, match="at least one"):
            weights(obj, 1.0, [])

    def test_rejects_non_finite_objective_value(self):
        bad = Objective(domain_lo=0.0, domain_hi=1.0, eval=lambda x: math.inf)
        with pytest.raises(ValueError, match="not finite"):
            weights(bad, 1.0, [0.5])

    def test_single_particle_gets_full_weight(self):
        obj = builtin_objective("linear")
        w = weights(obj, 7.0, [0.3])
        assert w == (1.0,)


class TestConsensusPoint:
    def test_two_point_anchor(self):
        obj = builtin_objective("linear")
        w = weights(obj, 1.0, [0.0, 1.0])
        m = consensus_point([0.0, 1.0], w)
        assert m == pytest.approx(SIGMOID_1_COMPL, rel=1e-15)

    def test_length_mismatch(self):
        obj = builtin_objective("linear")
        w = weights(obj, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="positions"):
            consensus_point([0.0, 0.5, 1.0], w)

    @given(
        positions=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=32
        ),
        alpha=st.floats(0.0, 1e4),
    )
    @settings(max_examples=100)
    def test_always_inside_hull(self, positions, alpha):
        w = softmax_weights([abs(p) for p in positions], alpha)
        m = consensus_point(positions, tuple(w))
        assert min(positions) <= m <= max(positions)
