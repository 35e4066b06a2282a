"""Point-repulsion optimizer against analytically known optima."""

import math

import numpy as np
import pytest

from hypersep import energy, thomson
from hypersep.energy import FilterBank, MheConfig, all_configs, layer_energy
from hypersep.errors import IncompatibleShape, InvalidConfig
from hypersep.thomson import (
    minimize_energy,
    reference_coordinates,
    reference_energy,
    shape_for_points,
)

import oracles

S1_CHORD = MheConfig("full", "euclidean", 1)


class TestReferences:
    def test_all_coordinates_are_unit_rows(self):
        for shape in ("antipodal", "triangle", "tetrahedron", "octahedron", "icosahedron"):
            coords = reference_coordinates(shape)
            np.testing.assert_allclose(np.linalg.norm(coords, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_tetrahedron_mutual_angles(self):
        coords = reference_coordinates("tetrahedron")
        gram = coords @ coords.T
        off = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, rtol=1e-14)

    def test_antipodal_energies(self):
        assert reference_energy("antipodal", S1_CHORD) == pytest.approx(1.0, rel=1e-14)
        assert reference_energy("antipodal", MheConfig("full", "euclidean", 0)) == pytest.approx(
            -2.0 * math.log(2.0), rel=1e-14
        )

    def test_triangle_energy(self):
        assert reference_energy("triangle", S1_CHORD) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_tetrahedron_energies(self):
        assert reference_energy("tetrahedron", S1_CHORD) == pytest.approx(
            12.0 / math.sqrt(8.0 / 3.0), rel=1e-12
        )
        assert reference_energy("tetrahedron", MheConfig("full", "euclidean", 2)) == pytest.approx(
            4.5, rel=1e-12
        )

    def test_octahedron_energy(self):
        """24 ordered edge pairs at sqrt(2) plus 6 diameter pairs at 2."""
        expected = 24.0 / math.sqrt(2.0) + 6.0 / 2.0
        assert reference_energy("octahedron", S1_CHORD) == pytest.approx(expected, rel=1e-12)

    def test_icosahedron_matches_brute_force(self):
        coords = reference_coordinates("icosahedron")
        expected, _ = oracles.brute_force_energy(coords, "full", "euclidean", 1)
        assert reference_energy("icosahedron", S1_CHORD) == pytest.approx(expected, rel=1e-12)

    def test_unknown_shape_rejected(self):
        with pytest.raises(IncompatibleShape):
            reference_energy("cube", S1_CHORD)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(101)
        coords = reference_coordinates("icosahedron")
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = layer_energy(FilterBank(coords), S1_CHORD).energy
        rotated = layer_energy(FilterBank(coords @ q), S1_CHORD).energy
        assert abs(rotated - base) < 1e-9

    def test_shape_lookup(self):
        assert shape_for_points(2) == "antipodal"
        assert shape_for_points(12) == "icosahedron"
        assert shape_for_points(5) is None


class TestMinimize:
    def test_two_points_reach_antipodal_energy(self):
        best, points = minimize_energy(2, 3, S1_CHORD, steps=400, restarts=3, seed=0)
        assert best == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(np.linalg.norm(points.points, axis=1), 1.0, rtol=0, atol=1e-10)

    def test_four_points_reach_tetrahedron(self):
        best, _ = minimize_energy(4, 3, S1_CHORD, steps=800, restarts=4, seed=1)
        reference = reference_energy("tetrahedron", S1_CHORD)
        assert best <= reference * 1.001
        assert best >= reference * 0.999  # cannot beat the optimum

    def test_history_is_strictly_decreasing(self):
        _, points = minimize_energy(5, 3, S1_CHORD, steps=300, restarts=2, seed=2)
        history = points.energy_history
        assert all(b < a for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("n_points", [2, 3, 4, 6, 12])
    def test_restart_stops_once_no_step_lowers_the_energy(self, n_points, monkeypatch):
        """Acceptance 3's solves: a step that only ties the energy ends the restart instead of
        walking on to `steps`, and the solve still lands on the catalogued optimum. One core call
        evaluates a stack of restarts, so the bound is on restarts evaluated, not on calls."""
        evaluated = []
        core = thomson._unit_energy
        monkeypatch.setattr(thomson, "_unit_energy", lambda *a: evaluated.append(len(a[0])) or core(*a))
        best, points = minimize_energy(n_points, 3, S1_CHORD, steps=2000, restarts=8, seed=0)
        assert sum(evaluated) <= 4000
        assert len(points.energy_history) < 2001
        assert best == pytest.approx(reference_energy(shape_for_points(n_points), S1_CHORD), rel=1e-12)

    def test_angular_log_config_runs(self):
        cfg = MheConfig("full", "angular", 0)
        best, points = minimize_energy(3, 2, cfg, steps=300, restarts=2, seed=3)
        assert np.isfinite(best)
        history = points.energy_history
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_half_space_minimization_runs(self):
        cfg = MheConfig("half", "euclidean", 1)
        best, _ = minimize_energy(3, 3, cfg, steps=200, restarts=2, seed=4)
        assert np.isfinite(best)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidConfig):
            minimize_energy(1, 3, S1_CHORD)
        with pytest.raises(InvalidConfig):
            minimize_energy(3, 1, S1_CHORD)
        with pytest.raises(InvalidConfig):
            minimize_energy(3, 3, S1_CHORD, steps=0)
        with pytest.raises(InvalidConfig):
            minimize_energy(3, 3, S1_CHORD, seed=-1)

    def test_same_seed_reproduces_result(self):
        a, pa = minimize_energy(4, 3, S1_CHORD, steps=200, restarts=2, seed=5)
        b, pb = minimize_energy(4, 3, S1_CHORD, steps=200, restarts=2, seed=5)
        assert a == b
        assert np.array_equal(pa.points, pb.points)

    @pytest.mark.parametrize("step_size", [math.inf, 1e308, 1e200])
    def test_overflowing_step_size_rejected_at_once(self, step_size, monkeypatch):
        """An infinite step would halve forever and a NaN trial would be accepted:
        inf is refused before any evaluation, an overflowing first trial before its own."""
        calls = []
        core = thomson._unit_energy
        monkeypatch.setattr(thomson, "_unit_energy", lambda *a: calls.append(1) or core(*a))
        with pytest.raises(InvalidConfig), np.errstate(over="ignore"):
            minimize_energy(12, 3, S1_CHORD, steps=50, restarts=2, step_size=step_size, seed=6)
        assert len(calls) == (0 if step_size == math.inf else 1)

    def test_solver_skips_the_validating_wrapper(self, monkeypatch):
        """The solver's rows are unit by construction; no evaluation re-checks or re-projects them."""
        calls = []

        def counting(fn):
            return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

        monkeypatch.setattr(thomson, "FilterBank", counting(thomson.FilterBank))
        monkeypatch.setattr(energy, "project_to_sphere", counting(energy.project_to_sphere))
        best, _ = minimize_energy(4, 3, S1_CHORD, steps=100, restarts=2, seed=7)
        assert np.isfinite(best)
        assert calls == []


class TestLockstepRestarts:
    """The restarts run side by side on stacked energy calls, yet every restart takes the path the
    restart-by-restart loop gives it: best energy, points and history agree bit for bit."""

    @staticmethod
    def assert_matches_sequential(n_points, dim, config, **kwargs):
        best, got = minimize_energy(n_points, dim, config, **kwargs)
        energy_ref, points_ref, history_ref = oracles.sequential_minimize(
            energy._unit_energy, n_points, dim, config, **kwargs
        )
        assert best == energy_ref
        assert np.array_equal(got.points, points_ref)
        assert got.energy_history == history_ref

    @pytest.mark.parametrize("config", all_configs(), ids=MheConfig.label)
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(steps=80, restarts=4, seed=0),
            dict(steps=5, restarts=8, seed=1),  # in several configs the cap ends some restarts before others
            dict(steps=40, restarts=1, seed=2),
            dict(steps=40, restarts=3, step_size=1e-20, seed=3),  # no trial at all
        ],
        ids=["steps80", "steps5", "one_restart", "tiny_step"],
    )
    def test_small_shapes_in_every_config(self, config, kwargs):
        self.assert_matches_sequential(5, 3, config, **kwargs)

    @pytest.mark.parametrize("seed", [0, 1000000, 1009002])
    def test_bench_solve(self, seed):
        """The bench's 12 x 3 solve, whose restarts stop at float resolution at different rounds."""
        self.assert_matches_sequential(12, 3, S1_CHORD, steps=2000, restarts=8, seed=seed)

    def test_wide_half_space_bank(self):
        self.assert_matches_sequential(24, 360, MheConfig("half", "euclidean", 0), steps=25, restarts=8, seed=4)

    @pytest.mark.parametrize("size", [3, 1])
    def test_groups_bounded_by_memory(self, size, monkeypatch):
        """A smaller Gram bound splits the 8 restarts into groups of `size`: 3 + 3 + 2, or one by one."""
        evaluated = []
        core = thomson._unit_energy
        monkeypatch.setattr(thomson, "_unit_energy", lambda *a: evaluated.append(len(a[0])) or core(*a))
        monkeypatch.setattr(thomson, "_STACK", (2 * 6) ** 2 * size + 1)
        self.assert_matches_sequential(6, 3, MheConfig("half", "angular", 1), steps=300, restarts=8, seed=5)
        assert max(evaluated) == size
