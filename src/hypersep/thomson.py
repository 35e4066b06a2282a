"""Free-point energy minimization on the sphere, with analytic references.

This is the validation harness for the energy machinery: N unconstrained
points on S^(d-1) are driven to low energy by projected gradient descent
(step, renormalize, halve the step on any step that fails to lower the
energy), and the result is compared against exactly known optimal
configurations - the antipodal pair, the equilateral triangle, and the
regular tetrahedron, octahedron, and icosahedron. If the analytic gradients
were wrong anywhere, these optima would be unreachable. Each trial is
normalized once, here, straight into the energy core's points (the unit
rows, then in half space their negations): no evaluation re-checks or
re-projects it.
"""

from dataclasses import dataclass

import numpy as np

from .energy import FilterBank, MheConfig, _sphere_points, _unit_energy, layer_energy
from .errors import IncompatibleShape, InvalidConfig

SHAPES = ("antipodal", "triangle", "tetrahedron", "octahedron", "icosahedron")

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
_STACK = 1 << 21  # Gram entries of one group of restarts run side by side


@dataclass
class PointSet:
    """Unit-row point matrix plus the accepted-energy trace that led to it."""

    points: np.ndarray
    energy_history: list[float]


def reference_coordinates(shape: str) -> np.ndarray:
    """Exact unit coordinates of the named optimal configuration."""
    if shape == "antipodal":
        return np.array([[1.0, 0.0], [-1.0, 0.0]])
    if shape == "triangle":
        thirds = 2.0 * np.pi / 3.0
        return np.array([[np.cos(k * thirds), np.sin(k * thirds)] for k in range(3)])
    if shape == "tetrahedron":
        raw = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        return raw / np.sqrt(3.0)
    if shape == "octahedron":
        return np.concatenate([np.eye(3), -np.eye(3)])
    if shape == "icosahedron":
        p = _GOLDEN
        raw = np.array(
            [
                [0.0, 1.0, p], [0.0, -1.0, p], [0.0, 1.0, -p], [0.0, -1.0, -p],
                [1.0, p, 0.0], [-1.0, p, 0.0], [1.0, -p, 0.0], [-1.0, -p, 0.0],
                [p, 0.0, 1.0], [p, 0.0, -1.0], [-p, 0.0, 1.0], [-p, 0.0, -1.0],
            ]
        )
        return raw / np.sqrt(1.0 + p * p)
    raise IncompatibleShape(f"unknown shape {shape!r}; expected one of {SHAPES}")


def reference_energy(shape: str, config: MheConfig) -> float:
    """Ordered-pair energy of the named configuration under `config`."""
    coords = reference_coordinates(shape)
    return layer_energy(FilterBank(coords), config).energy


def shape_for_points(n_points: int) -> str | None:
    """The reference shape with n_points vertices, if one is catalogued."""
    return {2: "antipodal", 3: "triangle", 4: "tetrahedron", 6: "octahedron", 12: "icosahedron"}.get(
        n_points
    )


def _normalize_rows(x: np.ndarray, space: str) -> np.ndarray:
    """The energy core's points of x's rows normalized: the unit rows, then in half space their negations."""
    sq = np.einsum("...ij,...ij->...i", x, x)
    if not np.isfinite(sq.max()):  # the trial's only check: overflow leaves NaN or zero rows
        raise InvalidConfig("a descent step overflowed; step_size is too large")
    return _sphere_points(x, np.sqrt(sq), space)


def minimize_energy(
    n_points: int,
    dim: int,
    config: MheConfig,
    steps: int = 2000,
    restarts: int = 8,
    step_size: float = 0.1,
    seed: int = 0,
) -> tuple[float, PointSet]:
    """Projected gradient descent from `restarts` Gaussian starts.

    Each trial step moves against the gradient and renormalizes rows; it is accepted only if it strictly lowers the
    energy, else the step is halved and retried, so the accepted history is strictly decreasing. `steps` caps a
    restart's accepted steps; it ends sooner once no step down to 1e-18 lowers the energy. Ties across restarts
    resolve to the lowest restart index. The restarts run side by side, one stacked energy call per round of
    trials, in groups bounded by memory (_STACK Gram entries); each takes the path it would take alone.
    """
    if n_points < 2 or dim < 2:
        raise InvalidConfig(f"need n_points >= 2 and dim >= 2, got ({n_points}, {dim})")
    if steps < 1 or restarts < 1 or seed < 0 or not 0 < step_size < np.inf:
        raise InvalidConfig("steps and restarts must be >= 1, seed >= 0 and step_size positive and finite")
    group = max(1, _STACK // (2 * n_points if config.space == "half" else n_points) ** 2)
    children = np.random.SeedSequence(seed).spawn(restarts)
    best_energy, best_set = np.inf, None
    for first in range(0, restarts, group):
        starts = [np.random.default_rng(c).standard_normal((n_points, dim)) for c in children[first:first + group]]
        stack = _normalize_rows(np.stack(starts), config.space)
        points = stack[:, :n_points]  # the unit rows of each restart's accepted points
        ones = np.ones(points.shape[:-1])  # the trials' row norms
        result = _unit_energy(stack, ones, config)
        energy, gradient = result.energy, result.gradient
        histories = [[e] for e in energy.tolist()]
        step, taken, live = np.full(len(starts), step_size), np.zeros(len(starts), dtype=int), np.arange(len(starts))
        while (live := live[(taken[live] < steps) & (step[live] >= 1e-18)]).size:
            trial = _normalize_rows(points[live] - step[live, None, None] * gradient[live], config.space)
            result = _unit_energy(trial, ones[:live.size], config)
            lower = result.energy < energy[live]
            won = live[lower]
            points[won], energy[won] = trial[lower, :n_points], result.energy[lower]
            gradient[won] = result.gradient[lower]
            for r, e in zip(won.tolist(), energy[won].tolist()):
                histories[r].append(e)
            taken[won] += 1
            step[live] = np.where(lower, np.minimum(step[live] * 1.3, step_size), step[live] * 0.5)
        r = int(np.argmin(energy))
        if energy[r] < best_energy:
            best_energy, best_set = energy[r], PointSet(points[r], histories[r])
    assert best_set is not None
    return float(best_energy), best_set
