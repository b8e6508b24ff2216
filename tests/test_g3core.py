"""The package's cross product on (x, y, z) tuples, and the vector helpers of
the oracles that the references and geometric checks use."""

import math

import pytest
from hypothesis import given, strategies as st

from g3pencil.g3core import cross_parts
from oracles import G3Vector, cross, dot, isotropic_norm, isotropic_wedge, normalize_isotropic

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(x, y, z):
    return G3Vector(float(x), float(y), float(z))


class TestDot:
    def test_first_branch(self):
        assert dot(vec(1, 2, 3), vec(4, 0, 0)) == 4.0

    def test_isotropic_branch(self):
        assert dot(vec(0, 3, 4), vec(0, 3, 4)) == 25.0

    def test_orthogonal_isotropic(self):
        assert dot(vec(0, 1, 0), vec(0, 0, 1)) == 0.0

    def test_self_dot_non_isotropic(self):
        a = vec(2.5, 7, -3)
        assert dot(a, a) == 2.5 * 2.5

    def test_mixed_pair_uses_first_components(self):
        assert dot(vec(2, 9, 9), vec(0, 1, 1)) == 0.0


class TestCross:
    def test_t_cross_n_is_b(self):
        assert cross_parts((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == (0.0, 0.0, 1.0)

    def test_b_cross_t_is_n(self):
        assert cross_parts((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == (0.0, 1.0, 0.0)

    def test_self_cross_vanishes(self):
        a = (1.5, -2.0, 0.25)
        assert cross_parts(a, a) == (0.0, 0.0, 0.0)

    @given(finite, finite, finite, finite, finite, finite)
    def test_always_isotropic_and_antisymmetric(self, ax, ay, az, bx, by, bz):
        a, b = (ax, ay, az), (bx, by, bz)
        c = cross_parts(a, b)
        assert c[0] == 0.0
        assert cross_parts(b, a) == tuple(-x for x in c)
        # the oracles' record cross, which the references use, is the same bit for bit
        assert [x.hex() for x in cross(vec(*a), vec(*b)).as_tuple()] == [x.hex() for x in c]

    @given(finite, finite, finite, finite)
    def test_isotropic_dot_is_planar_euclidean(self, ay, az, by, bz):
        a, b = vec(0, ay, az), vec(0, by, bz)
        assert dot(a, b) == ay * by + az * bz


class TestNorms:
    def test_three_four_five(self):
        assert isotropic_norm(vec(0, 3, 4)) == 5.0

    def test_zero(self):
        assert isotropic_norm(vec(0, 0, 0)) == 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, 2.9, -2.0])
    def test_unit_circle(self, theta):
        assert isotropic_norm(vec(0, math.cos(theta), math.sin(theta))) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_rejects_non_isotropic(self):
        with pytest.raises(ValueError, match="nonzero absolute component"):
            isotropic_norm(vec(1, 0, 0))


class TestNormalize:
    def test_basic(self):
        assert normalize_isotropic(vec(0, 3, 4)) == vec(0, 0.6, 0.8)

    def test_axis(self):
        assert normalize_isotropic(vec(0, 0, 2)) == vec(0, 0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="near-zero"):
            normalize_isotropic(vec(0, 0, 0))

    @given(finite, finite)
    def test_unit_after_normalization(self, y, z):
        if math.hypot(y, z) < 1e-6:
            return
        u = normalize_isotropic(vec(0, y, z))
        assert isotropic_norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_cross_has_unit_norm(self):
        c = vec(*cross_parts((1.0, 2.0, 3.0), (2.0, -1.0, 0.5)))
        assert dot(c, c) >= 0.0
        assert isotropic_norm(normalize_isotropic(c)) == pytest.approx(1.0, abs=1e-15)


def test_wedge_detects_parallelism():
    assert isotropic_wedge(vec(0, 1, 2), vec(0, 2, 4)) == 0.0
    assert isotropic_wedge(vec(0, 1, 0), vec(0, 0, 1)) == 1.0
    with pytest.raises(ValueError):
        isotropic_wedge(vec(1, 0, 0), vec(0, 1, 0))
