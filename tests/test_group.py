import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlift.group import (
    AREA_COEFF,
    DimensionMismatchError,
    GroupElement,
    NonGeometricError,
    _hom_norms,
    _pair_increment,
    dilate,
    group_dist,
    hom_norm,
    inverse,
    multiply,
    unit,
)
from heatlift.sheets import (
    _increment_tables,
    _lift_values,
    _node_pairs,
    _pair_increments,
)


# (seed, dim, scale) of a batch of random geometric elements.
element_batches = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.05, 2.0)
)


def random_geometric(
    rng: np.random.Generator, dim: int, scale: float = 1.0
) -> GroupElement:
    """Random geometric element: free level1 plus free antisymmetric area."""
    l1 = scale * rng.standard_normal(dim)
    a = scale * scale * rng.standard_normal((dim, dim))
    anti = 0.5 * (a - a.T)
    return GroupElement(l1, 0.5 * np.outer(l1, l1) + anti)


def geom(l1, anti_entries=None):
    """Geometric element with prescribed level1 and antisymmetric area."""
    l1 = np.asarray(l1, dtype=float)
    d = l1.shape[0]
    anti = np.zeros((d, d))
    if anti_entries is not None:
        anti = np.asarray(anti_entries, dtype=float)
    return GroupElement(l1, 0.5 * np.outer(l1, l1) + anti)


class TestMultiply:
    def test_unit_both_sides(self):
        rng = np.random.default_rng(0)
        g = random_geometric(rng, 3)
        e = unit(3)
        for prod in (multiply(e, g), multiply(g, e)):
            assert np.allclose(prod.level1, g.level1, atol=0)
            assert np.allclose(prod.level2, g.level2, atol=0)

    def test_d1_scalars(self):
        g = GroupElement(np.array([1.0]), np.array([[0.0]]))
        h = GroupElement(np.array([2.0]), np.array([[0.0]]))
        prod = multiply(g, h)
        assert prod.level1[0] == 3.0
        assert prod.level2[0, 0] == 2.0

    def test_d2_cross_term(self):
        g = GroupElement(np.array([1.0, 0.0]), np.zeros((2, 2)))
        h = GroupElement(np.array([0.0, 1.0]), np.zeros((2, 2)))
        prod = multiply(g, h)
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(prod.level2, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(unit(2), unit(3))

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            g, h, k = (random_geometric(rng, d) for _ in range(3))
            a = multiply(multiply(g, h), k)
            b = multiply(g, multiply(h, k))
            scale = max(1.0, float(np.max(np.abs(a.level2))))
            worst = max(
                worst,
                float(np.max(np.abs(a.level1 - b.level1))),
                float(np.max(np.abs(a.level2 - b.level2))) / scale,
            )
        assert worst <= 1e-12


class TestPairIncrement:
    @settings(max_examples=60, deadline=None)
    @given(element_batches, st.integers(1, 6))
    def test_matches_inverse_times_product(self, batch, count):
        # Stacked pairs broadcast through the kernel in one call; each
        # row must equal the product of the group operations.
        seed, d, scale = batch
        rng = np.random.default_rng(seed)
        gs = [random_geometric(rng, d, scale) for _ in range(count)]
        hs = [random_geometric(rng, d, scale) for _ in range(count)]
        a1, a2 = _pair_increment(
            np.stack([g.level1 for g in gs]),
            np.stack([g.level2 for g in gs]),
            np.stack([h.level1 for h in hs]),
            np.stack([h.level2 for h in hs]),
        )
        for row, (g, h) in enumerate(zip(gs, hs)):
            ref = multiply(inverse(g), h)
            assert np.max(np.abs(a1[row] - ref.level1)) <= 1e-12
            assert np.max(np.abs(a2[row] - ref.level2)) <= 1e-12


class TestInverse:
    def test_unit(self):
        inv = inverse(unit(2))
        assert np.all(inv.level1 == 0) and np.all(inv.level2 == 0)

    def test_d1_example(self):
        g = GroupElement(np.array([2.0]), np.array([[1.0]]))
        inv = inverse(g)
        assert inv.level1[0] == -2.0
        assert inv.level2[0, 0] == 3.0

    def test_cancellation(self):
        rng = np.random.default_rng(2)
        g = random_geometric(rng, 3)
        prod = multiply(g, inverse(g))
        assert np.max(np.abs(prod.level1)) <= 1e-12
        assert np.max(np.abs(prod.level2)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(3)
        g = random_geometric(rng, 2)
        gg = inverse(inverse(g))
        assert np.allclose(gg.level1, g.level1, atol=1e-15)
        assert np.allclose(gg.level2, g.level2, atol=1e-15)


class TestDilate:
    def test_identity_scale(self):
        rng = np.random.default_rng(4)
        g = random_geometric(rng, 2)
        gd = dilate(1.0, g)
        assert np.array_equal(gd.level1, g.level1)
        assert np.array_equal(gd.level2, g.level2)

    def test_zero_scale(self):
        rng = np.random.default_rng(5)
        g = random_geometric(rng, 2)
        gd = dilate(0.0, g)
        assert np.all(gd.level1 == 0) and np.all(gd.level2 == 0)

    def test_d1_example(self):
        g = GroupElement(np.array([1.0]), np.array([[1.0]]))
        gd = dilate(2.0, g)
        assert gd.level1[0] == 2.0 and gd.level2[0, 0] == 4.0

    def test_semigroup_exact(self):
        rng = np.random.default_rng(6)
        g = random_geometric(rng, 3)
        lam, mu = 0.5, 0.25  # dyadic scales compose without rounding
        a = dilate(lam, dilate(mu, g))
        b = dilate(lam * mu, g)
        assert np.array_equal(a.level1, b.level1)
        assert np.array_equal(a.level2, b.level2)


class TestHomNorm:
    def test_unit_is_zero(self):
        assert hom_norm(unit(3)) == 0.0

    def test_d1_antisymmetric_part_vanishes(self):
        g = GroupElement(np.array([3.0]), np.array([[4.5]]))
        assert hom_norm(g) == 3.0

    def test_two_segment_lift_value(self):
        # Chen product of the segment lifts of (0,0)->(1,0)->(1,1); the
        # antisymmetric part has entries +-1/2 with Frobenius norm
        # 1/sqrt(2), so the norm is max(sqrt(2), 2^(3/4) * 2^(-1/4))
        # and both arms evaluate to sqrt(2).
        seg1 = GroupElement(
            np.array([1.0, 0.0]), 0.5 * np.outer([1.0, 0.0], [1.0, 0.0])
        )
        seg2 = GroupElement(
            np.array([0.0, 1.0]), 0.5 * np.outer([0.0, 1.0], [0.0, 1.0])
        )
        g = multiply(seg1, seg2)
        anti = 0.5 * (g.level2 - g.level2.T)
        assert np.allclose(anti, [[0.0, 0.5], [-0.5, 0.0]], atol=0)
        assert hom_norm(g) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_subadditive_under_product(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            d = int(rng.integers(1, 4))
            a = random_geometric(rng, d)
            b = random_geometric(rng, d)
            assert multiply(a, b) is not None
            assert hom_norm(multiply(a, b)) <= hom_norm(a) + hom_norm(b) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(element_batches)
    def test_subadditive_property(self, batch):
        seed, d, scale = batch
        rng = np.random.default_rng(seed)
        a = random_geometric(rng, d, scale)
        b = random_geometric(rng, d, float(rng.uniform(0.05, 2.0)))
        assert hom_norm(multiply(a, b)) <= hom_norm(a) + hom_norm(b) + 1e-12

    def test_non_geometric_rejected_with_defect(self):
        g = GroupElement(np.array([1.0, 0.0]), np.full((2, 2), 0.3))
        with pytest.raises(NonGeometricError) as err:
            hom_norm(g)
        assert err.value.defect > 0

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = random_geometric(rng, int(rng.integers(1, 4)))
            lam = float(rng.uniform(0.1, 3.0))
            lhs = hom_norm(dilate(lam, g))
            rhs = lam * hom_norm(g)
            assert abs(lhs - rhs) <= 1e-14 * max(rhs, 1e-300)

    def test_inversion_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_geometric(rng, 3)
            assert hom_norm(inverse(g)) == pytest.approx(hom_norm(g), rel=1e-13)

    def test_equivalence_with_plain_norm(self):
        # One constant must cover 1e4 random geometric elements both ways.
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(10_000):
            g = random_geometric(rng, int(rng.integers(1, 4)))
            plain = np.linalg.norm(g.level1) + np.linalg.norm(g.level2) ** 0.5
            h = hom_norm(g)
            if h > 0:
                ratios.append(plain / h)
        ratios = np.asarray(ratios)
        c = max(float(np.max(ratios)), float(np.max(1.0 / ratios)))
        assert np.isfinite(c)
        assert c < 10.0


class TestGroupDist:
    def test_self_distance(self):
        rng = np.random.default_rng(10)
        g = random_geometric(rng, 2)
        assert group_dist(g, g) == 0.0

    def test_distance_from_unit(self):
        rng = np.random.default_rng(11)
        g = random_geometric(rng, 3)
        assert group_dist(unit(3), g) == pytest.approx(hom_norm(g), rel=1e-14)

    def test_dilation_scaling(self):
        rng = np.random.default_rng(12)
        g = random_geometric(rng, 2)
        h = random_geometric(rng, 2)
        eps = 0.37
        lhs = group_dist(dilate(eps, g), dilate(eps, h))
        assert lhs == pytest.approx(eps * group_dist(g, h), rel=1e-13)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g, h, k = (random_geometric(rng, 2) for _ in range(3))
            assert group_dist(g, h) == pytest.approx(group_dist(h, g), rel=1e-12)
            assert group_dist(g, k) <= group_dist(g, h) + group_dist(h, k) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(element_batches)
    def test_symmetry_and_triangle_property(self, batch):
        seed, d, scale = batch
        rng = np.random.default_rng(seed)
        g, h, k = (
            random_geometric(rng, d, scale * float(rng.uniform(0.05, 2.0)))
            for _ in range(3)
        )
        assert group_dist(g, h) == pytest.approx(group_dist(h, g), rel=1e-12)
        assert group_dist(g, k) <= group_dist(g, h) + group_dist(h, k) + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(14)
        g = random_geometric(rng, 2)
        h = random_geometric(rng, 2)
        assert group_dist(g, h) > 0

    def test_rejects_non_geometric(self):
        bad = GroupElement(np.array([1.0, 0.0]), np.full((2, 2), 0.4))
        with pytest.raises(NonGeometricError):
            group_dist(bad, unit(2))


def same_bits(x, y):
    """Equal shapes and equal bytes (so -0.0 differs from 0.0)."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def lift_reference(values):
    """The lift's einsum form: (initial values, level1, level2)."""
    deltas = values[:, 1:] - values[:, :-1]
    initial = values[:, 0, :].copy()
    level1 = values - initial[:, None, :]
    contrib = np.einsum("tca,tcb->tcab", level1[:, :-1], deltas)
    half = np.einsum("tca,tcb->tcab", deltas, deltas)
    half *= 0.5
    contrib += half
    level2 = np.empty(values.shape + (values.shape[-1],))
    level2[:, 0] = 0.0
    np.cumsum(contrib, axis=1, out=level2[:, 1:])
    return initial, level1, level2


def pair_increment_reference(l1_i, l2_i, l1_j, l2_j):
    """The pair increment's einsum form."""
    a1 = l1_j - l1_i
    a2 = l2_j - l2_i
    a2 = a2 - np.einsum("...a,...b->...ab", l1_i, a1)
    return a1, a2


def hom_norms_reference(l1, l2):
    """The homogeneous norms' swapaxes and np.sum form."""
    anti = 0.5 * (l2 - np.swapaxes(l2, -1, -2))
    n1 = np.sqrt(np.add.reduce(l1 * l1, axis=-1))
    nf = np.sqrt(np.sum(anti * anti, axis=(-2, -1)))
    return np.maximum(n1, AREA_COEFF * np.sqrt(nf))


class TestEntrywiseKernels:
    """The entry-wise kernels against their einsum/np.sum references."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lift_matches_einsum(self, d):
        rng = np.random.default_rng(40 + d)
        K, nt = 5, 3
        times = np.linspace(0.0, 1.0, nt)
        values = rng.standard_normal((nt, 2**K + 1, d))
        ref = lift_reference(values)
        fresh = _lift_values(times, values, K)
        assert same_bits(fresh.initial_values, ref[0])
        assert same_bits(fresh.level1, ref[1])
        assert same_bits(fresh.level2, ref[2])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pair_increment_matches_einsum(self, d):
        rng = np.random.default_rng(50 + d)
        n = 7
        l1_i, l1_j = rng.standard_normal((2, n, d))
        l2_i, l2_j = rng.standard_normal((2, n, d, d))
        ref = pair_increment_reference(l1_i, l2_i, l1_j, l2_j)
        fresh = _pair_increment(l1_i, l2_i, l1_j, l2_j)
        out = (np.full((n, d), np.nan), np.full((n, d, d), np.nan))
        given_out = _pair_increment(
            l1_i, l2_i, l1_j, l2_j, out=out, work=np.full(n, np.nan)
        )
        assert given_out[0] is out[0] and given_out[1] is out[1]
        for got in (fresh, given_out):
            assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1])
        # One element against another, no leading axes.
        single = _pair_increment(l1_i[0], l2_i[0], l1_j[0], l2_j[0])
        assert same_bits(single[0], ref[0][0]) and same_bits(single[1], ref[1][0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pair_increment_broadcasts_leading_axes(self, d):
        rng = np.random.default_rng(60 + d)
        l1_i, l2_i = rng.standard_normal((4, 1, d)), rng.standard_normal((4, 1, d, d))
        l1_j, l2_j = rng.standard_normal((1, 5, d)), rng.standard_normal((1, 5, d, d))
        ref = pair_increment_reference(l1_i, l2_i, l1_j, l2_j)
        got = _pair_increment(l1_i, l2_i, l1_j, l2_j)
        assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_increment_tables_match_einsum(self, d):
        # The tables call _pair_increments on one time at a time, which
        # writes through transposed views of the component-major rows.
        rng = np.random.default_rng(70 + d)
        nt, n = 3, 8
        level1 = rng.standard_normal((nt, n + 1, d))
        level2 = rng.standard_normal((nt, n + 1, d, d))
        iu, ju, _ = _node_pairs(n)
        f1, f2 = _increment_tables(level1, level2, iu, ju)
        r1, r2 = pair_increment_reference(
            level1[:, iu], level2[:, iu], level1[:, ju], level2[:, ju]
        )
        assert same_bits(f1, r1.transpose(0, 2, 1))
        assert same_bits(f2, r2.reshape(nt, iu.shape[0], d * d).transpose(0, 2, 1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pair_increments_match_einsum(self, d):
        # Three stacked paths, component-major, over runs of node pairs:
        # all of them, a run from the middle, one pair, and runs of 7 that
        # leave a short last run.
        rng = np.random.default_rng(90 + d)
        s, n = 3, 8
        level1 = rng.standard_normal((s, n + 1, d))
        level2 = rng.standard_normal((s, n + 1, d, d))
        p1 = np.ascontiguousarray(level1.transpose(2, 0, 1))
        p2 = np.ascontiguousarray(level2.reshape(s, n + 1, d * d).transpose(2, 0, 1))
        iu, ju, _ = _node_pairs(n)
        pairs = iu.shape[0]
        runs = [(0, pairs), (5, 17), (11, 12)]
        runs += [(lo, min(lo + 7, pairs)) for lo in range(0, pairs, 7)]
        assert runs[-1][1] - runs[-1][0] < 7
        for lo, hi in runs:
            i, j = iu[lo:hi], ju[lo:hi]
            m = hi - lo
            out = (np.full((d, s, m), np.nan), np.full((d * d, s, m), np.nan))
            work = (
                np.full((d, s, m), np.nan),
                np.full((d * d, s, m), np.nan),
                np.full((s, m), np.nan),
            )
            got = _pair_increments(p1, p2, i, j, out, work)
            assert got[0] is out[0] and got[1] is out[1]
            r1, r2 = pair_increment_reference(
                level1[:, i], level2[:, i], level1[:, j], level2[:, j]
            )
            assert same_bits(got[0], r1.transpose(2, 0, 1))
            assert same_bits(got[1], r2.reshape(s, m, d * d).transpose(2, 0, 1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hom_norms_match_sum_form(self, d):
        rng = np.random.default_rng(80 + d)
        l1 = rng.standard_normal((4000, d))
        l2 = rng.standard_normal((4000, d, d))
        # Either level may set the norm.
        l1[:2000] *= 1e-3
        l1[2000:] *= 10.0
        ref = hom_norms_reference(l1, l2)
        fresh = _hom_norms(l1, l2)
        broadcast = _hom_norms(l1[:, None], l2[None, :8])
        ref_broadcast = hom_norms_reference(l1[:, None], l2[None, :8])
        single = _hom_norms(l1[0], l2[0])
        if d <= 2:
            assert same_bits(fresh, ref)
            assert same_bits(broadcast, ref_broadcast)
            assert same_bits(single, ref[0])
        else:
            # Only the summation order of the squares differs.
            assert np.max(np.abs(fresh - ref) / ref) <= 4e-16
            assert np.max(np.abs(broadcast - ref_broadcast) / ref_broadcast) <= 4e-16
            assert abs(single - ref[0]) / ref[0] <= 4e-16
