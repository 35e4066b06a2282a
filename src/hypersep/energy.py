"""Hyperspherical energy of filter banks.

A filter bank is an (N, D) matrix whose rows are treated as points on the
unit sphere S^{D-1} after row normalization. The energy of a bank is a sum
of pairwise repulsion terms over *ordered* pairs (i, k), i != k, so each
unordered pair contributes twice:

    E = sum_{i != k} kernel(dist(u_i, u_k))

where dist is either the chord length ||u_i - u_k|| ("euclidean") or the
great-circle angle arccos(u_i . u_k) ("angular"), and the kernel is
z**(-s) for s in {1, 2} or -log(z) for s = 0. In "half" space each row is
paired with its antipode, i.e. the energy is evaluated on the 2N-row stack
[U; -U]; this treats a filter and its negation as the same direction.

Every variant starts from one Gram matrix g = P P^T of the unit points P
(the [U; -U] stack in half space). Angles are arccos(g); chords are
sqrt(2 - 2g), except for off-diagonal pairs with g > 1 - _NEAR_GAP, whose
chords come from direct row differences because 2 - 2g cancels there.
With a clamp threshold below sqrt(2 * _NEAR_GAP) only those pairs can be
clamped, so clamped-pair counts are exact.

All functions return energies over ordered pairs and analytic gradients
with respect to the *unnormalized* weights: one N x N coefficient matrix
F times the unit rows U. A pair's coefficient is the kernel's slope over
the chord (or the angle's sine); in half space the four N x N blocks of
the 2N x 2N coefficients fold into F = C11 - C12 - C21 + C22, as rows i
and N + i of the stack are u_i and -u_i. The normalization chain rule
acts on F too: subtracting r_i = sum_k F_ik g_ik (g the Gram of U) from
its diagonal removes each row's radial part; row i is divided by ||w_i||.
That removal cancels O(1) terms, so the near pairs leave F: each one's
term, coef (delta - (p_i . delta) p_i), comes from the row difference
delta = p_k - p_i its chord was taken from, and folds like the rest.
Distances below the config's ``clamp_epsilon`` are clamped; clamped
pairs add a constant to the energy and nothing to the gradient.
``layer_energy`` validates (``FilterBank``, the row norms of
``project_to_sphere``: none zero, none past float64's range), divides the
rows by their norms straight into the points (``_sphere_points``: the top
half of [U; -U] in half space) and hands points and raw norms to the
unchecked core ``_unit_energy``. The Thomson solver builds its trials'
points the same way and calls the core directly on a stack (R, N', D),
one bank per restart, and gets (R,) energies and clamp counts, each as the
bank alone. ``mhe_penalty`` evaluates its banks largest first, so that no
finished bank's gradient is held under the largest one's temporaries.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBank, InvalidConfig, ZeroNormFilter, check_fields

SPACES = ("full", "half")
DISTANCES = ("euclidean", "angular")
S_POWERS = (0, 1, 2)

# Dot products are kept this far inside [-1, 1] before arccos so the
# derivative 1/sqrt(1 - t^2) stays finite. Pairs that hit the clip bound
# are treated as constants (zero gradient), like distance-clamped pairs.
_DOT_MARGIN = 1e-12

# Chords of pairs with g > 1 - _NEAR_GAP come from row differences; the
# digits 2 - 2g loses there would be amplified by the kernels (1/z^2 most).
_NEAR_GAP = 1e-2


@dataclass(frozen=True)
class MheConfig:
    """Selects one of the 12 energy variants.

    space: "full" uses the N rows as-is, "half" appends each row's antipode.
    distance: "euclidean" chord length or "angular" arc length.
    s_power: kernel exponent; 0 selects the logarithmic kernel.
    clamp_epsilon: distances below this are clamped to it.
    """

    space: str = "full"
    distance: str = "euclidean"
    s_power: int = 0
    clamp_epsilon: float = 1e-12

    def __post_init__(self):
        check_fields(self, space=SPACES, distance=DISTANCES, s_power=S_POWERS)
        if not 0 < self.clamp_epsilon < np.inf:
            raise InvalidConfig(f"clamp_epsilon must be positive and finite, got {self.clamp_epsilon}")

    def label(self) -> str:
        return f"{self.space}/{self.distance}/s{self.s_power}"


def all_configs() -> list[MheConfig]:
    """All 12 (space, distance, s_power) combinations."""
    return [
        MheConfig(space, distance, s)
        for space in SPACES
        for distance in DISTANCES
        for s in S_POWERS
    ]


@dataclass
class FilterBank:
    """One layer's filters flattened to an (N, D) float64 matrix.

    For a 1D conv layer with weights (C_out, C_in, K) the bank is the
    C-order reshape to (C_out, C_in * K): N = C_out rows, one per output
    channel, each row the channel's taps laid out channel-major. Biases
    are never part of a bank.
    """

    weights: np.ndarray
    layer_id: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise InvalidConfig(f"bank weights must be a non-empty 2D matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidConfig(f"bank for layer {self.layer_id} contains non-finite entries")
        self.weights = w

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]


@dataclass
class EnergyResult:
    """Energy value, gradient w.r.t. the bank's raw weights, clamp count.

    clamped_pairs counts ordered pairs whose raw distance fell below the
    clamp threshold (coincident or antipodal directions, typically).
    """

    energy: float
    gradient: np.ndarray
    clamped_pairs: int


def project_to_sphere(
    weights: np.ndarray, clamp_epsilon: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a matrix; returns (unit rows, original row norms).

    Raises ZeroNormFilter naming the first offending row if any norm is
    below clamp_epsilon, and InvalidConfig naming it if a norm exceeds
    float64's range.
    """
    w = np.asarray(weights, dtype=np.float64)
    norms = _row_norms(w, clamp_epsilon)
    return _sphere_points(w, norms, "full"), norms


def _row_norms(w: np.ndarray, clamp_epsilon: float) -> np.ndarray:
    """project_to_sphere's row norms of a finite (N, D) matrix, and its checks."""
    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    # A finite row whose squared norm overflows (einsum does not warn) is scaled by its largest entry first.
    big = np.flatnonzero(norms == np.inf)
    if big.size:
        peak = np.max(np.abs(w[big]), axis=1)
        scaled = w[big] / peak[:, None]
        # peak * root, rounded as it is but taken 2^64 lower, where it cannot overflow: a norm past float64's range is
        # refused, not made inf (and its unit row zero).
        low = np.ldexp(peak, -64) * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
        over = np.flatnonzero(low > np.ldexp(np.finfo(np.float64).max, -64))
        if over.size:
            row = int(big[over[0]])
            raise InvalidConfig(f"filter row {row}'s norm exceeds float64's range (largest entry {peak[over[0]]:.4g})")
        norms[big] = np.ldexp(low, 64)
    small = np.flatnonzero(norms < clamp_epsilon)
    if small.size:
        row = int(small[0])
        raise ZeroNormFilter(row, float(norms[row]))
    return norms


def _sphere_points(rows: np.ndarray, norms: np.ndarray, space: str) -> np.ndarray:
    """The points _unit_energy takes, in one new array: rows / norms, (..., N, D) by (..., N), followed in half space
    by their negations, (..., 2N, D)."""
    if space == "full":
        return rows / norms[..., None]
    n = rows.shape[-2]
    points = np.empty(rows.shape[:-2] + (2 * n, rows.shape[-1]))
    np.negative(np.divide(rows, norms[..., None], out=points[..., :n, :]), out=points[..., n:, :])
    return points


def pair_distance(a: np.ndarray, b: np.ndarray, distance: str, clamp_epsilon: float = 1e-12) -> float:
    """Distance between two unit vectors under the chosen metric, clamped below."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if distance == "euclidean":
        d = float(np.sqrt(np.sum((a - b) ** 2)))
    elif distance == "angular":
        t = float(np.clip(np.dot(a, b), -1.0 + _DOT_MARGIN, 1.0 - _DOT_MARGIN))
        d = float(np.arccos(t))
    else:
        raise InvalidConfig(f"distance must be one of {DISTANCES}, got {distance!r}")
    return max(d, clamp_epsilon)


def _kernel(dist: np.ndarray, s_power: int) -> np.ndarray:
    """Elementwise kernel values on a (clamped) distance matrix, in a new array."""
    if s_power == 0:
        values = np.log(dist)
        return np.negative(values, out=values)
    if s_power == 1:
        return np.divide(1.0, dist)
    values = np.multiply(dist, dist)
    return np.divide(1.0, values, out=values)


def _slope(values: np.ndarray, dist: np.ndarray, s_power: int) -> np.ndarray:
    """The kernel's derivatives at dist, given its values there, written over the values."""
    if s_power == 0:
        return np.divide(-1.0, dist, out=values)
    if s_power == 1:
        return np.negative(np.multiply(values, values, out=values), out=values)
    return np.divide(np.multiply(values, -2.0, out=values), dist, out=values)


def layer_energy(bank: FilterBank, config: MheConfig) -> EnergyResult:
    """Ordered-pair energy of one bank plus its analytic weight gradient."""
    norms = _row_norms(bank.weights, config.clamp_epsilon)
    return _unit_energy(_sphere_points(bank.weights, norms, config.space), norms, config, bank.layer_id)


@functools.lru_cache(maxsize=4)
def _stack_off_diagonal(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, m) off-diagonal mask and its flat indices, read-only: every call on a stack of m-point banks shares
    them."""
    mask = ~np.eye(m, dtype=bool)
    index = np.flatnonzero(mask)
    mask.flags.writeable = index.flags.writeable = False
    return mask, index


def _unit_energy(points: np.ndarray, norms: np.ndarray, config: MheConfig, layer_id: int = 0) -> EnergyResult:
    """layer_energy on _sphere_points, unchecked: (N', D) points and (N,) row norms, or R banks, (R, N', D) and
    (R, N). The unit rows are the points' first N."""
    n, m = norms.shape[-1], points.shape[-2]
    if m < 2:
        raise DegenerateBank(layer_id, f"bank for layer {layer_id} has a single direction")
    # The gradient outlives every array below. Allocated first, it does not split the heap space they free, which
    # the next call's temporaries then fit into: allocated last, it made a process's peak RSS vary by 9 MB.
    gradient = np.empty(points.shape[:-2] + (n, points.shape[-1]))

    # Bank-sized arrays are updated in place where the operation order allows: fresh ones cost page faults.
    gram = points @ points.swapaxes(-1, -2)
    # A stack's calls (the Thomson solver's rounds: many, and small) share their mask; a bank builds its own.
    off_diag, off_index = _stack_off_diagonal(m) if points.ndim == 3 else (~np.eye(m, dtype=bool), None)
    near_rows = []
    if config.distance == "euclidean":
        raw = np.multiply(gram, 2.0)
        np.sqrt(np.maximum(np.subtract(2.0, raw, out=raw), 0.0, out=raw), out=raw)
        near = gram > 1.0 - _NEAR_GAP
        # The diagonal entries are always near; most banks have no other.
        if np.count_nonzero(near) > near.size // m:
            near &= off_diag
            near_rows = [(*bank, i, np.flatnonzero(near[(*bank, i)])) for *bank, i in zip(*np.nonzero(near.any(-1)))]
            # Row by row, so a collapsed bank needs O(m * D) scratch, not O(m^2 * D).
            for *bank, i, cols in near_rows:
                diff = points[(*bank, cols)] - points[(*bank, i)]
                raw[(*bank, i, cols)] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    else:
        gram_clipped = np.clip(gram, -1.0 + _DOT_MARGIN, 1.0 - _DOT_MARGIN)
        dot_clipped = (gram <= -1.0 + _DOT_MARGIN) | (gram >= 1.0 - _DOT_MARGIN)
        raw = np.arccos(gram_clipped)

    clamped = (raw < config.clamp_epsilon) & off_diag
    dist = np.maximum(raw, config.clamp_epsilon, out=raw)
    values = _kernel(dist, config.s_power)
    # values[..., off_diag] is a slow fancy index, and on a stack a non-C layout whose row sums round differently:
    # a stack takes its off-diagonal values by flat index instead, into C-contiguous rows in the same order.
    if off_index is None:
        energy = values[off_diag].sum()
    else:
        energy = values.reshape(-1, m * m).take(off_index, axis=1).sum(axis=-1)

    # The gradient w.r.t. the stack's row p_i is sum_k coef_ik p_k, coef_ik = -2 k'(d_ik) / d_ik for chords and
    # -2 k'(d_ik) / sin(d_ik) for angles: (i, k) and (k, i) both depend on p_i, hence the 2. The chord's derivative
    # (p_i - p_k) / d keeps only its -p_k part: the p_i part is radial, and the normalization chain rule removes it.
    # Clamped pairs (in distance or in the arccos argument) are constants: zero coefficient. In half space p_i = u_i
    # and p_{N+i} = -u_i, so the gradient w.r.t. u_i is (F @ U)_i with F = C11 - C12 - C21 + C22 folded from coef's
    # N x N blocks (full space: F = coef). The chain rule through u = w / ||w|| also works on F: subtracting
    # r_i = sum_k F_ik (u_i . u_k), from the Gram, from F_ii removes row i's radial part, and dividing row i by
    # ||w_i|| leaves F @ U the weight gradient.
    live = off_diag & ~clamped
    coef = np.multiply(_slope(values, dist, config.s_power), -2.0, out=values)  # over the summed values
    if config.distance == "euclidean":
        np.divide(coef, dist, out=coef)
    else:
        live &= ~dot_clipped
        cos2 = np.multiply(gram_clipped, gram_clipped, out=gram_clipped)
        inv_sin = np.divide(1.0, np.sqrt(np.subtract(1.0, cos2, out=cos2), out=cos2), out=cos2)
        np.multiply(coef, inv_sin, out=coef)
    np.copyto(coef, 0.0, where=~live)
    # A near pair's term, coef times p_k's tangential part at p_i, would come out of F @ P and r_i by cancelling
    # O(1) terms: it is formed from the row difference delta = p_k - p_i instead, as coef (delta - (p_i . delta) p_i),
    # and the pair leaves coef. Each stack row's terms fold like its coefficients, row N + i's into u_i's negated.
    if near_rows:
        tangent = np.zeros(points.shape)
        for *bank, i, cols in near_rows:
            p, row = points[(*bank, i)], tangent[(*bank, i)]
            np.matmul(coef[(*bank, i, cols)], points[(*bank, cols)] - p, out=row)
            row -= (p @ row) * p
        coef[near] = 0.0
        if config.space == "half":
            tangent = tangent[..., :n, :] - tangent[..., n:, :]

    fold = coef
    if config.space == "half":  # folded in place, in the order ((C11 - C12) - C21) + C22
        fold = coef[..., :n, :n]
        fold -= coef[..., :n, n:]
        fold -= coef[..., n:, :n]
        fold += coef[..., n:, n:]
    diagonal = np.einsum("...ii->...i", fold)  # a writable view
    diagonal -= np.einsum("...ik,...ik->...i", fold, gram[..., :n, :n])
    fold /= norms[..., None]
    np.matmul(fold, points[..., :n, :], out=gradient)
    if near_rows:
        gradient += tangent / norms[..., None]
    if points.ndim == 2:
        return EnergyResult(float(energy), gradient, int(np.count_nonzero(clamped)))
    return EnergyResult(energy, gradient, clamped.sum(axis=(-2, -1)))


def normalized_layer_energy(bank: FilterBank, config: MheConfig) -> EnergyResult:
    """Energy divided by the ordered pair count N'(N'-1), N' = 2N in half space."""
    result = layer_energy(bank, config)
    n_eff = 2 * bank.n_filters if config.space == "half" else bank.n_filters
    scale = 1.0 / (n_eff * (n_eff - 1))
    gradient = np.multiply(result.gradient, scale, out=result.gradient)
    return EnergyResult(result.energy * scale, gradient, result.clamped_pairs)


def mhe_penalty(
    banks: list[FilterBank], config: MheConfig, lambda_h: float
) -> tuple[float, list[np.ndarray]]:
    """Total penalty lambda_h * sum of normalized bank energies, with per-bank gradients.

    A zero lambda_h short-circuits: the penalty is exactly 0.0 and every
    gradient is an exact zero array, with no energy evaluation (so banks
    that would be degenerate do not raise).
    """
    if not banks:
        raise InvalidConfig("mhe_penalty needs at least one filter bank")
    if lambda_h < 0 or not np.isfinite(lambda_h):
        raise InvalidConfig(f"lambda_h must be finite and non-negative, got {lambda_h!r}")
    if lambda_h == 0.0:
        return 0.0, [np.zeros_like(b.weights) for b in banks]
    # Largest bank first, so that no finished bank's gradient is held under its temporaries. On an error, the banks
    # listed before the failing one that have not run yet run first: the error raised is the first bad bank's.
    results: list[EnergyResult | None] = [None] * len(banks)
    for i in sorted(range(len(banks)), key=lambda i: banks[i].weights.size, reverse=True):
        try:
            results[i] = result = normalized_layer_energy(banks[i], config)
        except Exception:
            for bank, done in zip(banks[:i], results):
                if done is None:
                    normalized_layer_energy(bank, config)
            raise
        np.multiply(result.gradient, lambda_h, out=result.gradient)
    total = 0.0
    for result in results:  # in list order, so the total's rounding does not depend on the banks' sizes
        total += result.energy
    return lambda_h * total, [result.gradient for result in results]
