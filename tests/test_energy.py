"""Unit and property tests for the hyperspherical energy core."""

import math
import tracemalloc

import numpy as np
import pytest

from hypersep.energy import (
    _NEAR_GAP,
    S_POWERS,
    _unit_energy,
    FilterBank,
    MheConfig,
    all_configs,
    layer_energy,
    mhe_penalty,
    normalized_layer_energy,
    pair_distance,
    project_to_sphere,
)
from hypersep.errors import (
    DegenerateBank,
    InvalidConfig,
    ZeroNormFilter,
)
from hypersep.net import NetConfig, collect_filter_banks, init_net

import oracles


def random_bank(rng, n, d, layer_id=0):
    """Gaussian rows rescaled to norms in [0.5, 2] so normalization matters."""
    w = rng.standard_normal((n, d))
    w *= rng.uniform(0.5, 2.0, size=(n, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    return FilterBank(w, layer_id=layer_id)


class TestConfigs:
    def test_all_configs_enumerates_twelve_unique(self):
        configs = all_configs()
        assert len(configs) == 12
        assert len({(c.space, c.distance, c.s_power) for c in configs}) == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"space": "both"},
            {"distance": "cosine"},
            {"s_power": 3},
            {"s_power": -1},
            {"clamp_epsilon": 0.0},
            {"clamp_epsilon": -1e-9},
            {"clamp_epsilon": math.inf},
            {"s_power": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            MheConfig(**kwargs)

    def test_bank_rejects_bad_shapes_and_values(self):
        with pytest.raises(InvalidConfig):
            FilterBank(np.ones(4))
        with pytest.raises(InvalidConfig):
            FilterBank(np.empty((0, 3)))
        with pytest.raises(InvalidConfig):
            FilterBank(np.array([[1.0, np.nan]]))

    def test_bank_coerces_to_float64(self):
        bank = FilterBank([[1, 2], [3, 4]])
        assert bank.weights.dtype == np.float64
        assert bank.n_filters == 2


class TestProjection:
    def test_rows_become_unit_and_norms_returned(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((5, 3)) * 3.0
        unit, norms = project_to_sphere(w)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(norms, np.linalg.norm(w, axis=1), rtol=1e-15)

    def test_negation_projects_to_exact_antipode(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((4, 6))
        unit_pos, _ = project_to_sphere(w)
        unit_neg, _ = project_to_sphere(-w)
        assert np.array_equal(unit_neg, -unit_pos)

    def test_zero_row_names_offender(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroNormFilter) as info:
            project_to_sphere(w)
        assert info.value.row == 1

    def test_row_whose_squared_norm_overflows(self):
        """A finite row with |w| * sqrt(D) above about 1.3e154 gets its norm and unit row, not inf and zeros; the
        other rows' norms keep their bits."""
        rng = np.random.default_rng(13)
        w = rng.standard_normal((4, 5))
        huge = w.copy()
        huge[2] *= 1e200
        unit, norms = project_to_sphere(huge)
        plain = np.sqrt(np.einsum("ij,ij->i", w, w))
        assert np.array_equal(norms[[0, 1, 3]], plain[[0, 1, 3]])
        assert norms[2] == pytest.approx(plain[2] * 1e200, rel=1e-15)
        np.testing.assert_allclose(unit, project_to_sphere(w)[0], rtol=0, atol=1e-15)

    def test_row_whose_norm_overflows_is_refused(self):
        """A finite row with |w| * sqrt(D) past float64's range is refused naming it, with no overflow on the way,
        through the projection, layer_energy and mhe_penalty; a row just inside the range is projected."""
        w = np.random.default_rng(14).standard_normal((6, 5))
        w[3] = 1.5e308
        bank = FilterBank(w, layer_id=2)
        calls = [lambda: project_to_sphere(w), lambda: layer_energy(bank, MheConfig()),
                 lambda: mhe_penalty([FilterBank(np.eye(3)), bank], MheConfig("half", "euclidean", 0), 0.1)]
        for call in calls:
            with pytest.raises(InvalidConfig, match="filter row 3's norm exceeds float64's range"):
                call()
        w[3] = np.finfo(np.float64).max / 2.5  # norm 0.89 of the largest float
        unit, norms = project_to_sphere(w)
        assert norms[3] == pytest.approx(np.finfo(np.float64).max / 2.5 * math.sqrt(5), rel=1e-15)
        np.testing.assert_allclose(unit[3], 1 / math.sqrt(5), rtol=1e-15)


class TestKernelAndDistance:
    def test_orthogonal_pair_distances(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert pair_distance(e1, e2, "euclidean") == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert pair_distance(e1, e2, "angular") == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_identical_pair_clamps(self):
        e1 = np.array([1.0, 0.0])
        assert pair_distance(e1, e1, "euclidean", clamp_epsilon=1e-12) == 1e-12

    def test_chord_equals_two_sin_half_angle(self):
        """chord = 2 sin(theta / 2) across a sweep of angles, within 1e-9."""
        for theta in np.linspace(0.05, math.pi - 0.05, 40):
            a = np.array([1.0, 0.0])
            b = np.array([math.cos(theta), math.sin(theta)])
            chord = pair_distance(a, b, "euclidean")
            angle = pair_distance(a, b, "angular")
            assert abs(chord - 2.0 * math.sin(angle / 2.0)) < 1e-9


class TestEnergyExactValues:
    """Closed-form energies for hand-placed configurations (ordered pairs)."""

    def test_antipodal_pair_euclidean(self):
        bank = FilterBank(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert layer_energy(bank, MheConfig("full", "euclidean", 1)).energy == pytest.approx(1.0, rel=1e-14)
        assert layer_energy(bank, MheConfig("full", "euclidean", 2)).energy == pytest.approx(0.5, rel=1e-14)
        expected_log = -2.0 * math.log(2.0)
        assert layer_energy(bank, MheConfig("full", "euclidean", 0)).energy == pytest.approx(expected_log, rel=1e-14)

    def test_orthogonal_pair_both_distances(self):
        bank = FilterBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert layer_energy(bank, MheConfig("full", "euclidean", 1)).energy == pytest.approx(
            2.0 / math.sqrt(2.0), rel=1e-14
        )
        assert layer_energy(bank, MheConfig("full", "angular", 1)).energy == pytest.approx(
            4.0 / math.pi, rel=1e-12
        )
        assert layer_energy(bank, MheConfig("full", "angular", 0)).energy == pytest.approx(
            -2.0 * math.log(math.pi / 2.0), rel=1e-12
        )

    def test_equilateral_triangle_chord_energy(self):
        angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
        w = np.array([[math.cos(a), math.sin(a)] for a in angles])
        result = layer_energy(FilterBank(w), MheConfig("full", "euclidean", 1))
        assert result.energy == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_scaling_rows_leaves_energy_unchanged(self):
        rng = np.random.default_rng(21)
        bank = random_bank(rng, 5, 4)
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        scaled = FilterBank(bank.weights * scales)
        for config in all_configs():
            base = layer_energy(bank, config).energy
            assert layer_energy(scaled, config).energy == pytest.approx(base, rel=1e-12)

    def test_permuting_rows_leaves_energy_unchanged(self):
        rng = np.random.default_rng(22)
        bank = random_bank(rng, 6, 3)
        perm = rng.permutation(6)
        shuffled = FilterBank(bank.weights[perm])
        for config in all_configs():
            base = layer_energy(bank, config).energy
            assert layer_energy(shuffled, config).energy == pytest.approx(base, rel=1e-12)


class TestOracleAgreement:
    def test_matches_brute_force_over_random_banks(self):
        """Vectorized energy vs pure-Python double loop, all 12 configs."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            bank = random_bank(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
            for config in all_configs():
                expected, clamped = oracles.brute_force_energy(
                    bank.weights, config.space, config.distance, config.s_power, config.clamp_epsilon
                )
                result = layer_energy(bank, config)
                np.testing.assert_allclose(result.energy, expected, rtol=1e-10, atol=1e-12)
                assert result.clamped_pairs == clamped

    def test_ordered_sum_is_twice_unordered(self):
        rng = np.random.default_rng(32)
        bank = random_bank(rng, 5, 4)
        for config in all_configs():
            unit, _ = project_to_sphere(bank.weights)
            pts = np.concatenate([unit, -unit]) if config.space == "half" else unit
            unordered = sum(
                oracles.repulsion(
                    pair_distance(pts[i], pts[k], config.distance, config.clamp_epsilon),
                    config.s_power,
                )
                for i in range(len(pts))
                for k in range(i + 1, len(pts))
            )
            assert layer_energy(bank, config).energy == pytest.approx(2.0 * unordered, rel=1e-12)

    def test_half_space_equals_full_on_stacked_bank_exactly(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            bank = random_bank(rng, int(rng.integers(1, 6)), int(rng.integers(2, 7)))
            stacked = FilterBank(np.concatenate([bank.weights, -bank.weights]))
            for distance in ("euclidean", "angular"):
                for s in (0, 1, 2):
                    half = layer_energy(bank, MheConfig("half", distance, s))
                    full = layer_energy(stacked, MheConfig("full", distance, s))
                    assert half.energy == full.energy
                    assert half.clamped_pairs == full.clamped_pairs

    def test_half_space_gradient_is_full_gradient_on_stacked_bank_folded(self):
        """E_half(W) = E_full([W; -W]), so the half gradient is the stacked gradient's top rows minus its bottom
        rows: within 1e-13 of its largest entry, under all six half configs."""
        rng = np.random.default_rng(34)
        for _ in range(10):
            bank = random_bank(rng, int(rng.integers(2, 9)), int(rng.integers(2, 12)))
            n = bank.n_filters
            stacked = FilterBank(np.concatenate([bank.weights, -bank.weights]))
            for config in all_configs():
                if config.space != "half":
                    continue
                half = layer_energy(bank, config).gradient
                full = layer_energy(stacked, MheConfig("full", config.distance, config.s_power)).gradient
                folded = full[:n] - full[n:]
                err = float(np.max(np.abs(half - folded)) / np.max(np.abs(folded)))
                assert err <= 1e-13, f"{bank.weights.shape} {config.label()}: {err:.2e}"


EUCLIDEAN_CONFIGS = [c for c in all_configs() if c.distance == "euclidean"]


def bank_with_close_pair(gap, mirror):
    """Random 6-D bank whose last two unit rows have dot product 1 - gap.

    The pair spans two coordinate axes, so its row norms are summed exactly
    in any order and the package and the oracle normalize it identically;
    otherwise a one-ulp difference in the unit rows would swamp the chord
    of the closest pairs. With mirror=True the last row is negated (dot
    product -(1 - gap)): the pair is then close only on the half-space stack.
    """
    rng = np.random.default_rng(71)
    w = rng.standard_normal((5, 6))
    x, y = rng.permutation(6)[:2]
    theta = 2.0 * math.asin(math.sqrt(gap / 2.0))  # 1 - cos(theta) == gap
    w[3:] = 0.0
    w[3, x] = 1.0
    w[4, x], w[4, y] = math.cos(theta), math.sin(theta)
    if mirror:
        w[4] = -w[4]
    return w


def rotated_bank_with_close_pair(gap, mirror, seed):
    """bank_with_close_pair's layout in a random rotation of R^6, its close pair's rows renormalized until their
    float64 norms are exactly 1; with mirror=True the last row is negated."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 6))
    theta = 2.0 * math.asin(math.sqrt(gap / 2.0))
    w[3:] = 0.0
    w[3, 0] = 1.0
    w[4, 0], w[4, 1] = math.cos(theta), math.sin(theta)
    w = w @ np.linalg.qr(rng.standard_normal((6, 6)))[0]
    for row in w[3:]:
        for _ in range(10):
            unit, norm = project_to_sphere(row[None])
            if norm[0] == 1.0:
                break
            row[:] = unit[0]
        assert norm[0] == 1.0
    if mirror:
        w[4] = -w[4]
    return w


class TestNearCoincidentGuard:
    """Gram chords sqrt(2 - 2g) cancel for g near 1; pairs above 1 - _NEAR_GAP
    must still match the direct-difference oracle at the acceptance-2 tolerance."""

    @staticmethod
    def assert_matches_oracle(weights, config):
        expected, clamped = oracles.brute_force_energy(
            weights, config.space, config.distance, config.s_power, config.clamp_epsilon
        )
        result = layer_energy(FilterBank(weights), config)
        assert abs(result.energy - expected) <= 1e-12 + 1e-10 * abs(expected), config.label()
        assert result.clamped_pairs == clamped, config.label()

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize(
        "gap", [1e-16, 1e-14, 1e-10, 1e-6, _NEAR_GAP / 2, _NEAR_GAP, 2 * _NEAR_GAP]
    )
    def test_close_pair_energy_matches_brute_force(self, gap, mirror):
        weights = bank_with_close_pair(gap, mirror)
        for config in EUCLIDEAN_CONFIGS:
            self.assert_matches_oracle(weights, config)

    def test_wide_random_bank_matches_brute_force(self):
        weights = random_bank(np.random.default_rng(72), 40, 120).weights
        for config in EUCLIDEAN_CONFIGS:
            self.assert_matches_oracle(weights, config)

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("gap", [1e-6, 1e-10, 1e-14])
    def test_close_pair_gradient_matches_long_double(self, gap, mirror):
        """Five random rotations of a bank with one pair at 1 - g = gap: every euclidean gradient within 1e-12 of
        the long-double one's largest entry, which is the close pair's. Without the pair's tangential terms formed
        from its row difference, 1e-14 read 2e-9. The pair's rows have float64 norms of exactly 1, so both sides
        take the same unit rows; a rounding in one would move the close pair's chord by about ulp / chord."""
        for seed in range(5):
            weights = rotated_bank_with_close_pair(gap, mirror, seed)
            for config in EUCLIDEAN_CONFIGS:
                if mirror and config.space == "full":
                    continue
                got = layer_energy(FilterBank(weights), config).gradient
                ref = oracles.long_double_euclidean_gradient(weights, config.space, config.s_power)
                err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
                assert err < 1e-12, f"seed {seed} {config.label()}: {err:.2e}"

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("gap", [_NEAR_GAP / 2, _NEAR_GAP, 2 * _NEAR_GAP])
    def test_gradient_across_the_guard(self, gap, mirror):
        weights = bank_with_close_pair(gap, mirror)
        for config in EUCLIDEAN_CONFIGS:
            analytic = layer_energy(FilterBank(weights), config).gradient
            fd = oracles.finite_difference_gradient(
                lambda w: layer_energy(FilterBank(w), config).energy, weights
            )
            # Acceptance 1's measure, at gradient scale: entries that are
            # analytically near zero carry only finite-difference noise.
            err = np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd)))
            assert err < 1e-5, f"{config.label()}: error {err:.2e}"


def core_points(unit, space):
    """The points the energy core takes: the unit rows, then in half space their negations."""
    return np.concatenate([unit, -unit], axis=-2) if space == "half" else unit


class TestUnitEnergyCore:
    """The core the Thomson solver calls, on projected rows, against the validating wrapper."""

    @pytest.mark.parametrize(
        "weights",
        [
            random_bank(np.random.default_rng(73), 12, 3).weights,
            bank_with_close_pair(1e-10, mirror=False),
            collect_filter_banks(init_net(NetConfig()))[3].weights,
        ],
        ids=["random_12x3", "near_coincident_6d", "default_net_bank"],
    )
    def test_core_matches_wrapper_bit_for_bit(self, weights):
        for config in all_configs():
            unit, norms = project_to_sphere(weights, config.clamp_epsilon)
            core = _unit_energy(core_points(unit, config.space), norms, config)
            wrapped = layer_energy(FilterBank(weights), config)
            assert core.energy == wrapped.energy, config.label()
            assert np.array_equal(core.gradient, wrapped.gradient), config.label()
            assert core.clamped_pairs == wrapped.clamped_pairs, config.label()
            assert type(core.energy) is float and type(core.clamped_pairs) is int

    @staticmethod
    def clamped_bank():
        """A 5 x 6 bank whose last two rows coincide: a clamped pair under every config at clamp_epsilon 1e-5
        (angular distances bottom out near 1.4e-6), and under the euclidean ones at 1e-12."""
        w = bank_with_close_pair(1e-10, mirror=False)
        w[4] = w[3]
        return w

    @pytest.mark.parametrize(
        "members",
        [
            ["random", "close", "random", "mirrored", "clamped"],
            ["random", "random", "close"],  # a single bank of the stack has near pairs
            ["mirrored", "random"],  # near pairs in half space only
        ],
        ids=["mixed", "one_near_bank", "near_in_half_only"],
    )
    @pytest.mark.parametrize("clamp_epsilon", [1e-12, 1e-5])
    def test_stack_matches_each_bank_alone_bit_for_bit(self, members, clamp_epsilon):
        """The solver's stacked call: (R, N, D) rows give each bank's energy, gradient and clamp count exactly as
        that bank gets them alone, through the near-pair rows of a single bank as well."""
        rng = np.random.default_rng(74)
        make = {
            "random": lambda: random_bank(rng, 5, 6).weights,
            "close": lambda: bank_with_close_pair(1e-10, mirror=False),
            "mirrored": lambda: bank_with_close_pair(1e-10, mirror=True),
            "clamped": self.clamped_bank,
        }
        banks = [make[name]() for name in members]
        for config in all_configs():
            config = MheConfig(config.space, config.distance, config.s_power, clamp_epsilon)
            projected = [project_to_sphere(w, config.clamp_epsilon) for w in banks]
            points = core_points(np.stack([u for u, _ in projected]), config.space)
            stacked = _unit_energy(points, np.stack([n for _, n in projected]), config)
            assert stacked.energy.shape == stacked.clamped_pairs.shape == (len(banks),)
            for r, (unit, norms) in enumerate(projected):
                alone = _unit_energy(core_points(unit, config.space), norms, config)
                assert stacked.energy[r] == alone.energy, (config.label(), r)
                assert np.array_equal(stacked.gradient[r], alone.gradient), (config.label(), r)
                assert stacked.clamped_pairs[r] == alone.clamped_pairs, (config.label(), r)
                if members[r] == "clamped" and (clamp_epsilon == 1e-5 or config.distance == "euclidean"):
                    assert alone.clamped_pairs == (4 if config.space == "half" else 2), config.label()


class TestGradients:
    def test_analytic_matches_central_differences(self):
        """All 12 configs against h=1e-6 central differences."""
        rng = np.random.default_rng(41)
        for _ in range(4):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            bank = random_bank(rng, n, d)
            for config in all_configs():
                analytic = layer_energy(bank, config).gradient
                fd = oracles.finite_difference_gradient(
                    lambda w: layer_energy(FilterBank(w), config).energy, bank.weights
                )
                err = oracles.max_relative_error(analytic, fd)
                assert err < 1e-5, f"{config.label()}: rel err {err:.2e}"

    @pytest.mark.parametrize("seed", range(4))
    def test_euclidean_gradient_matches_long_double_on_paper_banks(self, seed):
        """The paper net's down1 (24x15) and down2 (48x360) banks under the six euclidean configs, against a
        long-double gradient: within 2e-14 of its largest entry."""
        for bank in collect_filter_banks(init_net(NetConfig(seed=seed)))[:2]:
            for config in all_configs():
                if config.distance != "euclidean":
                    continue
                got = layer_energy(bank, config).gradient
                ref = oracles.long_double_euclidean_gradient(bank.weights, config.space, config.s_power)
                err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
                assert err < 2e-14, f"{bank.weights.shape} {config.label()}: {err:.2e}"

    @pytest.mark.parametrize("seed", range(2))
    def test_half_euclidean_gradient_matches_long_double_on_large_paper_banks(self, seed):
        """The paper net's down3 (96x720), up2 (48x720) and up1 (24x360) banks, where the half-space gradient is
        one folded N x N product over a 2N x 2N Gram, against a long-double gradient: within 2e-14 of its
        largest entry."""
        banks = collect_filter_banks(init_net(NetConfig(seed=seed)))
        for bank in (banks[2], banks[6], banks[7]):
            for s_power in S_POWERS:
                got = layer_energy(bank, MheConfig("half", "euclidean", s_power)).gradient
                ref = oracles.long_double_euclidean_gradient(bank.weights, "half", s_power)
                err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
                assert err < 2e-14, f"{bank.weights.shape} half/euclidean/s{s_power}: {err:.2e}"

    @pytest.mark.parametrize("space, bound", [("half", 4.5), ("full", 3)])
    def test_traced_peak_is_a_few_banks(self, space, bound):
        """One euclidean s0 call on a 192 x 2880 bank (the paper's up4 shape) peaks at most `bound` times the bank's
        bytes: the points (the unit rows, or in half space the 2N x D stack [U; -U] with U its top half), the
        gradient and a few 2N x 2N (N x N) matrices, with no other bank-sized temporary."""
        bank = random_bank(np.random.default_rng(43), 192, 2880)
        config = MheConfig(space, "euclidean", 0)
        tracemalloc.start()
        try:
            layer_energy(bank, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * bank.weights.nbytes, f"{space}: peak {peak / bank.weights.nbytes:.2f}x the bank"

    def test_bank_past_squared_norm_overflow(self):
        """A bank scaled by 1e200 has the bank's energy and clamp count and its gradient over 1e200, in every
        config, although its squared row norms overflow."""
        bank = random_bank(np.random.default_rng(44), 6, 5)
        scaled = FilterBank(bank.weights * 1e200)
        for config in all_configs():
            base, big = layer_energy(bank, config), layer_energy(scaled, config)
            assert big.energy == pytest.approx(base.energy, rel=1e-12), config.label()
            assert big.clamped_pairs == base.clamped_pairs, config.label()
            err = np.max(np.abs(big.gradient * 1e200 - base.gradient)) / np.max(np.abs(base.gradient))
            assert err < 1e-12, f"{config.label()}: {err:.2e}"

    def test_gradient_is_zero_under_row_rescaling_direction(self):
        """Energy is scale-free, so gradients are orthogonal to their row."""
        rng = np.random.default_rng(42)
        bank = random_bank(rng, 4, 5)
        for config in all_configs():
            g = layer_energy(bank, config).gradient
            radial = np.einsum("ij,ij->i", g, bank.weights)
            scale = np.einsum("ij,ij->i", bank.weights, bank.weights)
            np.testing.assert_allclose(radial / scale, 0.0, atol=1e-12)

    def test_single_row_half_space_is_flat(self):
        """One filter against its own antipode: constant energy, ~zero gradient."""
        bank = FilterBank(np.array([[0.6, 0.8, 0.0]]))
        for distance in ("euclidean", "angular"):
            for s in (0, 1, 2):
                result = layer_energy(bank, MheConfig("half", distance, s))
                assert np.isfinite(result.energy)
                np.testing.assert_allclose(result.gradient, 0.0, atol=1e-12)

    def test_duplicate_rows_clamp_and_zero_their_gradient(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = layer_energy(FilterBank(w), MheConfig("full", "euclidean", 2))
        assert result.clamped_pairs == 2
        assert np.isfinite(result.energy)
        assert np.all(np.isfinite(result.gradient))


class TestDegenerateAndNormalized:
    def test_single_row_full_space_raises(self):
        bank = FilterBank(np.array([[1.0, 0.0]]), layer_id=7)
        with pytest.raises(DegenerateBank) as info:
            layer_energy(bank, MheConfig("full", "euclidean", 1))
        assert info.value.layer_id == 7

    def test_normalization_divides_by_ordered_pair_count(self):
        rng = np.random.default_rng(51)
        bank = random_bank(rng, 4, 3)
        full = MheConfig("full", "angular", 1)
        half = MheConfig("half", "angular", 1)
        assert normalized_layer_energy(bank, full).energy == pytest.approx(
            layer_energy(bank, full).energy / (4 * 3), rel=1e-15
        )
        assert normalized_layer_energy(bank, half).energy == pytest.approx(
            layer_energy(bank, half).energy / (8 * 7), rel=1e-15
        )


class TestMonotoneRepulsion:
    def test_energy_decreases_as_pair_separates(self):
        """Two filters moved from pi/6 apart to antipodal, full space."""
        thetas = [math.pi * k / 6.0 for k in range(1, 7)]
        for distance in ("euclidean", "angular"):
            for s in (0, 1, 2):
                config = MheConfig("full", distance, s)
                energies = []
                for theta in thetas:
                    w = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
                    energies.append(layer_energy(FilterBank(w), config).energy)
                assert all(a > b for a, b in zip(energies, energies[1:])), (distance, s, energies)


class TestPenalty:
    def test_penalty_is_lambda_times_sum_of_normalized_energies(self):
        rng = np.random.default_rng(61)
        banks = [random_bank(rng, 4, 5, layer_id=i) for i in range(3)]
        config = MheConfig("half", "euclidean", 0)
        lam = 0.125
        expected = lam * sum(
            oracles.brute_force_normalized(b.weights, "half", "euclidean", 0) for b in banks
        )
        penalty, grads = mhe_penalty(banks, config, lam)
        assert penalty == pytest.approx(expected, rel=1e-12)
        assert len(grads) == 3
        for bank, grad in zip(banks, grads):
            per_bank = normalized_layer_energy(bank, config).gradient
            np.testing.assert_allclose(grad, lam * per_bank, rtol=1e-15)

    def test_two_identical_normalized_terms_halve_then_sum(self):
        """lambda 0.5 on two banks each contributing 0.5 gives exactly 0.5."""
        bank = FilterBank(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        config = MheConfig("full", "euclidean", 1)
        per = normalized_layer_energy(bank, config).energy  # 1.0 / 2 = 0.5
        assert per == pytest.approx(0.5, rel=1e-15)
        penalty, _ = mhe_penalty([bank, FilterBank(bank.weights.copy())], config, 0.5)
        assert penalty == pytest.approx(0.5, rel=1e-15)

    def test_zero_lambda_short_circuits(self):
        degenerate = FilterBank(np.array([[1.0, 0.0]]))  # would raise if evaluated
        penalty, grads = mhe_penalty([degenerate], MheConfig(), 0.0)
        assert penalty == 0.0
        assert np.array_equal(grads[0], np.zeros((1, 2)))

    def test_penalty_rejects_bad_arguments(self):
        bank = FilterBank(np.eye(2))
        with pytest.raises(InvalidConfig):
            mhe_penalty([], MheConfig(), 1.0)
        with pytest.raises(InvalidConfig):
            mhe_penalty([bank], MheConfig(), -0.1)

    def test_degenerate_bank_propagates_layer_id(self):
        banks = [FilterBank(np.eye(3), layer_id=0), FilterBank(np.array([[1.0, 0.0, 0.0]]), layer_id=4)]
        with pytest.raises(DegenerateBank) as info:
            mhe_penalty(banks, MheConfig("full", "euclidean", 1), 1.0)
        assert info.value.layer_id == 4

    def test_error_names_the_first_bad_bank_in_list_order(self):
        """The banks run largest first, yet of several bad banks the error names the first in list order."""
        good = FilterBank(np.eye(4), layer_id=0)
        single = FilterBank(np.array([[1.0, 0.0]]), layer_id=1)
        wide_single = FilterBank(np.ones((1, 50)), layer_id=2)
        zero_row = FilterBank(np.array([[1.0, 0.0], [0.0, 0.0]]), layer_id=3)
        config = MheConfig("full", "euclidean", 1)
        with pytest.raises(DegenerateBank) as info:
            mhe_penalty([good, single, wide_single], config, 1.0)
        assert info.value.layer_id == 1
        with pytest.raises(ZeroNormFilter) as info:
            mhe_penalty([good, zero_row, wide_single], config, 1.0)
        assert info.value.row == 1
        with pytest.raises(DegenerateBank) as info:
            mhe_penalty([wide_single, zero_row, good], config, 1.0)
        assert info.value.layer_id == 2

    def test_total_and_gradients_in_list_order(self):
        """Banks of mixed sizes in no size order: the total is the list-order sum, and each gradient is its own
        bank's, bit for bit."""
        rng = np.random.default_rng(63)
        shapes = [(3, 4), (9, 20), (5, 7), (12, 30), (9, 20)]
        banks = [random_bank(rng, n, d, layer_id=i) for i, (n, d) in enumerate(shapes)]
        lam = 0.3
        for config in all_configs():
            alone = [normalized_layer_energy(bank, config) for bank in banks]
            total = 0.0
            for result in alone:
                total += result.energy
            penalty, grads = mhe_penalty(banks, config, lam)
            assert penalty == lam * total, config.label()
            for result, grad in zip(alone, grads):
                assert np.array_equal(grad, result.gradient * lam), config.label()

    def test_traced_peak_is_the_largest_banks(self):
        """Over the paper net's 8 banks at half/euclidean/s0 the call peaks within 4.4 times its largest bank's
        bytes (up4, 192 x 2880): that bank runs first, with no other bank's gradient held yet, and its unit rows
        are the top half of its [U; -U] stack. In list order, beside a separate copy of the unit rows, the peak
        was 5.92 times; 4.4 is three quarters of that."""
        banks = collect_filter_banks(init_net(NetConfig()))
        largest = max(bank.weights.nbytes for bank in banks)
        tracemalloc.start()
        try:
            mhe_penalty(banks, MheConfig("half", "euclidean", 0), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.4 * largest, f"peak {peak / largest:.2f}x the largest bank"

    def test_gradient_descent_on_penalty_spreads_filters(self):
        """A few plain gradient steps should strictly lower the penalty."""
        rng = np.random.default_rng(62)
        w = rng.standard_normal((8, 4)) * 0.2 + 1.0  # bunched in one orthant
        config = MheConfig("half", "angular", 1)
        values = []
        for _ in range(25):
            banks = [FilterBank(w)]
            penalty, grads = mhe_penalty(banks, config, 1.0)
            values.append(penalty)
            w = w - 0.05 * grads[0]
        assert values[-1] < values[0]
        assert min(values) == pytest.approx(values[-1], rel=1e-6)
