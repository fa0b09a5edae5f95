"""Independent naive feature implementations used as test oracles.

Pure-Python loops over lists, no numpy, written directly from the feature
definitions.  These deliberately share no code with the library so that a
bug in the vectorized versions cannot hide in its own oracle.
"""

import math


def naive_mean(xs):
    return sum(xs) / len(xs)


def _naive_quantile(xs, q):
    ordered = sorted(xs)
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def naive_median(xs):
    return _naive_quantile(xs, 0.5)


def _naive_histogram(xs, bins):
    """Counts and bin centres by numpy's documented equal-width rule.

    np.histogram over [min, max]: edges as np.linspace makes them
    (lo + k * (span / bins), the last one set to max); each value's bin is
    the float index (x - lo) / span * bins truncated, then corrected three
    times, in order: the max goes into the last bin, a value below its
    bin's left edge moves down one bin, and a value at or above its bin's
    right edge moves up one (the last bin keeps its right edge).
    """
    lo, hi = min(xs), max(xs)
    span = hi - lo
    step = span / bins
    edges = [k * step + lo for k in range(bins)] + [hi]
    counts = [0] * bins
    for x in xs:
        idx = int((x - lo) / span * bins)
        if idx == bins:
            idx -= 1
        if x < edges[idx]:
            idx -= 1
        if x >= edges[idx + 1] and idx != bins - 1:
            idx += 1
        counts[idx] += 1
    centers = [0.5 * (edges[k] + edges[k + 1]) for k in range(bins)]
    return counts, centers


def naive_mode(xs, bins=10):
    if min(xs) == max(xs):
        return xs[0]
    counts, centers = _naive_histogram(xs, bins)
    best = max(range(bins), key=lambda k: (counts[k], -k))
    return centers[best]


def naive_variance(xs):
    mu = naive_mean(xs)
    return sum((x - mu) ** 2 for x in xs) / len(xs)


def naive_skewness(xs):
    mu = naive_mean(xs)
    sigma = math.sqrt(naive_variance(xs))
    if sigma == 0.0:
        return 0.0
    return sum((x - mu) ** 3 for x in xs) / len(xs) / sigma ** 3


def naive_kurtosis(xs):
    mu = naive_mean(xs)
    sigma = math.sqrt(naive_variance(xs))
    if sigma == 0.0:
        return 0.0
    return sum((x - mu) ** 4 for x in xs) / len(xs) / sigma ** 4 - 3.0


def naive_shannon_energy(xs):
    total = 0.0
    for x in xs:
        if x != 0.0:
            total += x * x * math.log(x * x)
    return total


def naive_shannon_entropy(xs, bins=10):
    if min(xs) == max(xs):
        return 0.0
    counts, _ = _naive_histogram(xs, bins)
    total = 0.0
    for c in counts:
        if c > 0:
            p = c / len(xs)
            total += p * math.log(p)
    return total


def naive_zcr(xs):
    def sign(x):
        return 1 if x >= 0 else -1

    changes = sum(abs(sign(xs[k]) - sign(xs[k - 1])) for k in range(1, len(xs)))
    return changes / (2 * (len(xs) - 1) + 1)


def naive_quantile_range(xs):
    return _naive_quantile(xs, 0.75) - _naive_quantile(xs, 0.25)


NAIVE_BY_NAME = {
    "mean": naive_mean,
    "median": naive_median,
    "mode": naive_mode,
    "variance": naive_variance,
    "skewness": naive_skewness,
    "kurtosis": naive_kurtosis,
    "shannon_energy": naive_shannon_energy,
    "shannon_entropy": naive_shannon_entropy,
    "zcr": naive_zcr,
    "quantile_range": naive_quantile_range,
}
