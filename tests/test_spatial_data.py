"""Standardization, proximity construction, and weight normalization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moransar.errors import (
    AsymmetricInput,
    DegenerateMatrix,
    DimensionMismatch,
    InputError,
    NegativeDistance,
    NonPositiveValue,
    TinyDistance,
    ZeroDistance,
    ZeroVariance,
    located,
)
from moransar.autocorr import moran_index
from moransar.pipeline import REL_TOL
from moransar.spatial_data import (
    ProximityMatrix,
    RawSizeVector,
    StandardizedVector,
    inverse_distance_proximity,
    log_transform,
    prepare,
    spatial_lag,
    standardize,
    symmetrize,
    weights_from_distances,
)


class TestRawSizeVector:
    def test_from_values_default_ids(self):
        raw = RawSizeVector.from_values([2.0, 5.0, 7.0])
        assert raw.ids == ("0", "1", "2")
        assert raw.n == 3

    def test_rejects_single_element(self):
        with pytest.raises(DimensionMismatch):
            RawSizeVector.from_values([1.0])

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RawSizeVector(ids=("a",), values=np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            RawSizeVector.from_values([1.0, np.nan, 3.0])

    def test_values_frozen(self):
        raw = RawSizeVector.from_values([1.0, 2.0])
        with pytest.raises(ValueError):
            raw.values[0] = 9.0


class TestStandardize:
    def test_population_sigma_convention(self):
        # dividing by n (not n-1) makes z.z = n exactly
        raw = RawSizeVector.from_values([1.0, 4.0, 6.0, 9.0, 10.0])
        z = standardize(raw)
        assert abs(z.values.sum()) < 1e-12
        assert abs(z.values @ z.values - raw.n) < 1e-12
        expected = (raw.values - raw.values.mean()) / raw.values.std(ddof=0)
        np.testing.assert_allclose(z.values, expected, rtol=0, atol=1e-14)

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVariance):
            standardize(RawSizeVector.from_values([3.0, 3.0, 3.0]))

    def test_two_site_exact(self, two_site):
        raw, _ = two_site
        z = standardize(raw)
        np.testing.assert_array_equal(z.values, [-1.0, 1.0])

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-320, 2.0**-1074])
    def test_extreme_magnitudes(self, scale):
        # squares of 1e160 overflow, of 1e-160 underflow, and subnormal
        # inputs lose every bit of a square; z is scale-free regardless
        raw = RawSizeVector.from_values([1.0 * scale, 2.0 * scale, 4.0 * scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = standardize(raw).values
        assert abs(z @ z - raw.n) <= REL_TOL * raw.n
        # the same values times an exact power of two, in the normal range
        y = np.ldexp(raw.values, -int(np.frexp(raw.values.max())[1]))
        np.testing.assert_allclose(z, (y - y.mean()) / y.std(), rtol=0, atol=1e-15)

    def test_near_float_limit(self):
        top = np.finfo(float).max
        z = standardize(RawSizeVector.from_values([-top, 0.5 * top, top])).values
        assert abs(z @ z - 3) <= REL_TOL * 3

    def test_power_of_two_scale_is_bit_identical(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 40):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            base = standardize(RawSizeVector.from_values(x)).values
            for k in (-900, -3, 5, 700):
                scaled = standardize(RawSizeVector.from_values(np.ldexp(x, k))).values
                assert scaled.tobytes() == base.tobytes()

    def test_validator_rejects_uncentered(self):
        with pytest.raises(InputError):
            StandardizedVector(values=np.array([1.0, 2.0, 3.0]))

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        shift=st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, scale, shift):
        # z-scores are invariant under x -> scale*x + shift for scale > 0;
        # rounding the shifted input already loses eps * |shift| absolute,
        # which the z-domain sees magnified by 1 / (scale * sigma), so the
        # tolerance must carry that conditioning factor
        base = np.array([1.0, 4.0, 6.0, 9.0, 10.0])
        sigma = base.std(ddof=0)
        kappa = 1.0 + abs(shift) / (scale * sigma)
        z0 = standardize(RawSizeVector.from_values(base))
        z1 = standardize(RawSizeVector.from_values(scale * base + shift))
        np.testing.assert_allclose(
            z1.values, z0.values, rtol=0, atol=1e-12 + 1e-14 * kappa
        )


class TestLogTransform:
    def test_values(self):
        raw = log_transform(RawSizeVector.from_values([1.0, np.e, np.e**2]))
        np.testing.assert_allclose(raw.values, [0.0, 1.0, 2.0], atol=1e-14)

    def test_ids_preserved(self):
        raw = RawSizeVector(ids=("x", "y"), values=np.array([2.0, 3.0]))
        assert log_transform(raw).ids == ("x", "y")

    def test_rejects_zero(self):
        with pytest.raises(NonPositiveValue) as err:
            log_transform(RawSizeVector.from_values([1.0, 0.0, 2.0]))
        assert err.value.index == 1

    def test_rejects_negative(self):
        with pytest.raises(NonPositiveValue):
            log_transform(RawSizeVector.from_values([1.0, -3.0]))


class TestProximity:
    def test_reciprocal_entries(self):
        d = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
        prox = inverse_distance_proximity(d)
        assert prox.matrix[0, 1] == 0.5
        assert prox.matrix[0, 2] == 0.25
        assert prox.matrix[1, 2] == 0.2
        assert np.all(np.diag(prox.matrix) == 0.0)

    def test_diagonal_of_input_ignored(self):
        d = np.array([[7.0, 2.0], [2.0, 7.0]])  # nonzero diagonal is fine
        prox = inverse_distance_proximity(d)
        assert prox.matrix[0, 0] == 0.0

    def test_zero_distance_rejected(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroDistance):
            inverse_distance_proximity(d)

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateMatrix):
            inverse_distance_proximity(d)

    def test_negative_distance_names_its_elements(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, -0.5], [2.0, -0.5, 0.0]])
        with pytest.raises(NegativeDistance,
                           match=r"^distance between elements 1 and 2 is negative: -0\.5$") as exc:
            inverse_distance_proximity(d)
        assert (exc.value.i, exc.value.j, exc.value.value) == (1, 2, -0.5)
        with pytest.raises(DegenerateMatrix) as exc:
            with located(dist="d.csv", ids=("a", "b", "c")):
                inverse_distance_proximity(d)
        assert str(exc.value) == "d.csv: distance between ids 'b' and 'c' is negative: -0.5"

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            inverse_distance_proximity(np.ones((2, 3)))

    def test_asymmetric_auto_warns_and_symmetrizes(self):
        d = np.array([[0.0, 2.0], [3.0, 0.0]])
        with pytest.warns(UserWarning, match="asymmetric"):
            prox = inverse_distance_proximity(d, symmetrize_policy="auto")
        # average of the reciprocals, not reciprocal of the average
        assert prox.matrix[0, 1] == pytest.approx(0.5 * (1 / 2 + 1 / 3), abs=1e-15)
        assert prox.matrix[0, 1] == prox.matrix[1, 0]

    def test_asymmetric_strict_raises(self):
        d = np.array([[0.0, 2.0], [3.0, 0.0]])
        with pytest.raises(AsymmetricInput):
            inverse_distance_proximity(d, symmetrize_policy="strict")

    def test_asymmetric_matrix_in_memory_names_no_policy(self):
        # only the strict policy of inverse_distance_proximity is a request
        with pytest.raises(AsymmetricInput) as exc:
            ProximityMatrix(matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert str(exc.value) == "entries (0,1) and (1,0) differ by relative 5.000e-01"
        with pytest.raises(AsymmetricInput, match=r"^entries \(0,1\) and \(1,0\) differ by "
                                                  r"relative 3\.333e-01 \(strict symmetry requested\)$"):
            inverse_distance_proximity(np.array([[0.0, 2.0], [3.0, 0.0]]), "strict")

    def test_subnormal_distance_names_its_elements(self):
        tiny = np.finfo(float).tiny  # the smallest normal double, 2**-1022
        d = np.full((3, 3), tiny) * (1 - np.eye(3))
        inverse_distance_proximity(d)
        d[1, 2] = d[2, 1] = np.nextafter(tiny, 0.0)
        with pytest.raises(TinyDistance, match=r"^distance between elements 1 and 2 is too "
                                               r"small to invert: 2\.225073858507201e-308$"):
            inverse_distance_proximity(d)

    @pytest.mark.parametrize("policy", ["Strict", "average", ""])
    def test_unknown_policy_rejected(self, policy):
        # symmetric input, so only the policy check can raise
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(InputError, match="symmetrize"):
            inverse_distance_proximity(d, symmetrize_policy=policy)

    def test_tiny_asymmetry_accepted_silently(self):
        d = np.array([[0.0, 2.0], [2.0 * (1 + 1e-9), 0.0]])
        prox = inverse_distance_proximity(d, symmetrize_policy="strict")
        assert prox.matrix[0, 1] == prox.matrix[1, 0]


class TestSymmetrize:
    def test_symmetric_fixed_point(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(symmetrize(m).matrix, m)

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(0.1, 1.0, size=(6, 6))
        s = symmetrize(m).matrix
        assert np.abs(s - s.T).max() == 0.0
        assert np.all(np.diag(s) == 0.0)


class TestWeights:
    def test_entries_sum_to_one(self, deck):
        for raw, dist in deck[:5]:
            w = weights_from_distances(dist)
            assert abs(w.matrix.sum() - 1.0) <= 1e-15
            assert np.abs(w.matrix - w.matrix.T).max() == 0.0
            assert np.all(np.diag(w.matrix) == 0.0)

    @pytest.mark.parametrize("power", [-1019, 1000])
    def test_power_of_two_scale_changes_no_bit(self, deck, power):
        # at 2**-1019 the proximities of the larger instances sum beyond the
        # float range
        for _, dist in deck[:20]:
            w = weights_from_distances(dist).matrix
            assert weights_from_distances(np.ldexp(dist, power)).matrix.tobytes() == w.tobytes()

    def test_zero_total_rejected(self):
        # ProximityMatrix cannot hold an all-zero matrix, so call the
        # normalizer contract through a 2x2 with forged positive check
        with pytest.raises(DegenerateMatrix):
            ProximityMatrix(matrix=np.zeros((2, 2)))

    def test_two_site_weights(self, two_site):
        _, dist = two_site
        w = weights_from_distances(dist)
        np.testing.assert_array_equal(w.matrix, [[0.0, 0.5], [0.5, 0.0]])

    def test_matrix_frozen(self, two_site):
        _, dist = two_site
        w = weights_from_distances(dist)
        with pytest.raises(ValueError):
            w.matrix[0, 1] = 0.9


class TestSpatialLag:
    def test_matches_matrix_product(self, deck):
        raw, dist = deck[0]
        p = prepare(raw, dist)
        z, weights, lag = p.z, p.weights, p.lag
        np.testing.assert_array_equal(lag.values, weights.matrix @ z.values)
        assert lag.total == pytest.approx(float(lag.values.sum()), abs=0.0)

    def test_dimension_mismatch(self, two_site, chain):
        raw2, dist2 = two_site
        _, dist3 = chain
        z2 = standardize(raw2)
        w3 = weights_from_distances(dist3)
        with pytest.raises(DimensionMismatch):
            spatial_lag(w3, z2)

    def test_lag_sum_is_weighted_column_sums(self, deck):
        # o'Wz: the lag total is the column-sum weighting of z
        raw, dist = deck[1]
        p = prepare(raw, dist)
        z, weights, lag = p.z, p.weights, p.lag
        expected = float(weights.matrix.sum(axis=0) @ z.values)
        assert lag.total == pytest.approx(expected, abs=1e-15)


class TestPrepare:
    @pytest.mark.parametrize("apply_log", [False, True])
    def test_bundle_matches_the_separate_steps(self, deck, apply_log):
        for raw, dist in deck:
            p = prepare(raw, dist, apply_log=apply_log)
            z = standardize(log_transform(raw) if apply_log else raw)
            weights = weights_from_distances(dist)
            np.testing.assert_array_equal(p.z.values, z.values)
            np.testing.assert_array_equal(p.weights.matrix, weights.matrix)
            np.testing.assert_array_equal(
                p.proximity.matrix, inverse_distance_proximity(dist).matrix
            )
            assert p.i_value == moran_index(p.z, p.weights)
            np.testing.assert_array_equal(
                p.lag.values, spatial_lag(p.weights, p.z).values
            )
            assert p.lag.total == spatial_lag(p.weights, p.z).total
            assert p.n == raw.n

    @pytest.mark.parametrize("apply_log", [False, True])
    def test_arrays_are_read_only(self, deck, apply_log):
        raw, dist = deck[0]
        p = prepare(raw, dist, apply_log=apply_log)
        for array in (p.z.values, p.proximity.matrix, p.weights.matrix, p.lag.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_strict_policy_reaches_the_proximity_step(self, chain):
        raw, dist = chain
        skewed = dist.copy()
        skewed[0, 1] = 1.5
        with pytest.raises(AsymmetricInput):
            prepare(raw, skewed, symmetrize="strict")
