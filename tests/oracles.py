"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way (pure Python loops over
pairs, math-module scalar ops) and deliberately shares no code with the
package. Tests compare the vectorized implementations against these.
"""

import math

import numpy as np

DOT_MARGIN = 1e-12


def unit_rows(weights):
    """Row-normalize a nested-list/array matrix with scalar arithmetic."""
    rows = []
    for row in np.asarray(weights, dtype=float).tolist():
        norm = math.sqrt(sum(v * v for v in row))
        rows.append([v / norm for v in row])
    return rows


def brute_force_energy(weights, space, distance, s_power, clamp_epsilon=1e-12):
    """Ordered-pair energy by explicit double loop. Returns (energy, clamped_pairs)."""
    points = unit_rows(weights)
    if space == "half":
        points = points + [[-v for v in row] for row in points]
    m = len(points)
    total = 0.0
    clamped = 0
    for i in range(m):
        for k in range(m):
            if i == k:
                continue
            if distance == "euclidean":
                d = math.sqrt(sum((a - b) ** 2 for a, b in zip(points[i], points[k])))
            else:
                t = sum(a * b for a, b in zip(points[i], points[k]))
                t = min(max(t, -1.0 + DOT_MARGIN), 1.0 - DOT_MARGIN)
                d = math.acos(t)
            if d < clamp_epsilon:
                d = clamp_epsilon
                clamped += 1
            total += repulsion(d, s_power)
    return total, clamped


def repulsion(z, s_power):
    """Pair kernel at one distance: -log(z) for s = 0, z**(-s) for s in {1, 2}."""
    if s_power == 0:
        return -math.log(z)
    if s_power == 1:
        return 1.0 / z
    return 1.0 / (z * z)


def brute_force_normalized(weights, space, distance, s_power, clamp_epsilon=1e-12):
    energy, _ = brute_force_energy(weights, space, distance, s_power, clamp_epsilon)
    n = len(np.asarray(weights))
    n_eff = 2 * n if space == "half" else n
    return energy / (n_eff * (n_eff - 1))


def long_double_euclidean_gradient(weights, space, s_power, clamp_epsilon=1e-12):
    """Gradient of the ordered-pair euclidean energy w.r.t. the raw weights, in np.longdouble throughout.

    Distances come from explicit point differences, never from a Gram matrix,
    and the chain rule through row normalization is applied at the end. Loops
    over rows, vectorized over each row's pairs, so paper-sized banks stay fast.
    """
    w = np.asarray(weights, dtype=np.longdouble)
    norms = np.sqrt(np.sum(w * w, axis=1))
    unit = w / norms[:, None]
    points = np.concatenate([unit, -unit]) if space == "half" else unit
    grad = np.zeros_like(points)
    for i in range(len(points)):
        diff = points[i] - points
        d = np.sqrt(np.sum(diff * diff, axis=1))
        live = d >= clamp_epsilon  # clamped pairs are constants; excludes i itself
        d = d[live]
        slope = {0: -1 / d, 1: -1 / (d * d), 2: -2 / (d * d * d)}[s_power]
        # (i, k) and (k, i) both depend on point i: factor 2
        grad[i] = 2 * np.sum((slope / d)[:, None] * diff[live], axis=0)
    n = len(unit)
    grad_unit = grad[:n] - grad[n:] if space == "half" else grad
    radial = np.sum(unit * grad_unit, axis=1)
    return (grad_unit - radial[:, None] * unit) / norms[:, None]


def finite_difference_gradient(func, weights, h=1e-6):
    """Central finite differences of a scalar function of a weight matrix."""
    w = np.asarray(weights, dtype=float)
    grad = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        plus = w.copy()
        plus[idx] += h
        minus = w.copy()
        minus[idx] -= h
        grad[idx] = (func(plus) - func(minus)) / (2.0 * h)
    return grad


def finite_difference_flat(func, params, h=1e-6):
    """Central differences over one parameter array, each entry perturbed in place; func takes the array."""
    grad = np.zeros_like(params)
    for idx in np.ndindex(params.shape):
        saved = params[idx]
        params[idx] = saved + h
        up = func(params)
        params[idx] = saved - h
        down = func(params)
        params[idx] = saved
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic, reference, floor=1e-8):
    """Worst-case elementwise |a - r| / max(|a|, |r|, floor) over array lists."""
    if isinstance(analytic, np.ndarray):
        analytic, reference = [analytic], [reference]
    worst = 0.0
    for a, r in zip(analytic, reference):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
        worst = max(worst, float(np.max(np.abs(a - r) / denom)))
    return worst


def sorted_median(values):
    """Median by explicit sort; midpoint average for even counts."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n % 2:
        return xs[n // 2]
    return 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def sorted_mad(values):
    """Median absolute deviation around the sorted-median."""
    med = sorted_median(values)
    return sorted_median([abs(v - med) for v in values])


def scalar_mean(values):
    return sum(float(v) for v in values) / len(values)


def scalar_sd(values):
    """Population standard deviation (ddof = 0) with scalar arithmetic."""
    mu = scalar_mean(values)
    return math.sqrt(sum((float(v) - mu) ** 2 for v in values) / len(values))


def adam_scalar_trajectory(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam; returns the parameter value after each step."""
    x = float(x0)
    m = 0.0
    v = 0.0
    out = []
    for t in range(1, steps + 1):
        g = float(grad_fn(x))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def scalar_sdr(reference, estimate, eps=1e-20, clamp_db=100.0):
    """Energy-ratio SDR in dB with scalar accumulation."""
    num = eps
    den = eps
    for r, e in zip(reference, estimate):
        num += float(r) * float(r)
        err = float(r) - float(e)
        den += err * err
    val = 10.0 * math.log10(num / den)
    return max(-clamp_db, min(clamp_db, val))


def sequential_minimize(unit_energy, n_points, dim, config, steps=2000, restarts=8, step_size=0.1, seed=0):
    """The Thomson descent one restart after another, each trial one call of unit_energy (the package's
    single-bank core) on one bank; returns the best restart's (energy, points, energy history)."""

    def normalize(x):
        return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]

    def energy_of(points):  # the core takes the half space's [U; -U] stack
        return unit_energy(np.concatenate([points, -points]) if config.space == "half" else points, unit_norms, config)

    unit_norms = np.ones(n_points)
    best = (math.inf, None, None)
    for child in np.random.SeedSequence(seed).spawn(restarts):
        points = normalize(np.random.default_rng(child).standard_normal((n_points, dim)))
        result = energy_of(points)
        energy, gradient = result.energy, result.gradient
        history = [energy]
        step = step_size
        for _ in range(steps):
            while step >= 1e-18:
                trial = normalize(points - step * gradient)
                trial_result = energy_of(trial)
                if trial_result.energy < energy:
                    break
                step *= 0.5
            else:
                break  # no step lowers the energy at float resolution
            points, energy, gradient = trial, trial_result.energy, trial_result.gradient
            history.append(energy)
            step = min(step * 1.3, step_size)
        if energy < best[0]:
            best = (energy, points, history)
    return best
