"""Discrete Gaussian noise and Monte Carlo ROC estimation.

The production release adds discrete Gaussian noise with scale
sigma^2 = 1/rho* independently to every query cell.  For the worst-case
neighbor pair, each released query sees two cells move by +-1 (the old
and the new value of the changed record), so the exact likelihood-ratio
statistic of the whole release is a sum of per-cell log pmf ratios.
Sampling that statistic under both hypotheses yields the empirical
level/power curve of the release.

`mc_roc` builds one `DiscreteGaussianSampler` per distinct rho* and
draws that rho*'s cells from all 2 x `N_SHARDS` seeded streams before it
builds the next, so one sampling table is alive at a time.  The sampler
inverts the cumulative sum of the truncated weights that also normalize
`dgauss_pmf`; its bucket-exact guide table returns the inversion draw of
almost every uniform with one table read.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .census import AllocationTable, GeoLevel, QueryKind, Scenario
from .tradeoff import PiecewiseLinearCurve, _check_level

#: Truncation radius of the table, kmax = ceil(12 sigma): the mass outside
#: [-kmax, kmax] is below 1e-30 of the total, so the pmf is normalized by it.
TRUNCATION_SIGMAS = 12.0

MIN_MC_SAMPLES = 1000

#: Logical shard count: each arm's samples are drawn in this many batches
#: with independently seeded streams, which bounds the size of one batch;
#: fixed, and recorded in the manifest, because the stream depends on it.
N_SHARDS = 16

#: Guide-table buckets per sampling-table entry, at least (rounded up to
#: a power of two): at most one bucket in GUIDE_RATIO needs more than
#: its one table read.
GUIDE_RATIO = 32

#: Draws per chunk of one `sample` call: bounds its temporaries, which
#: then stay in cache.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class DiscreteGaussParams:
    """Scale of one noisy cell: sigma^2 = 1/rho*."""

    sigma2: float

    def __post_init__(self) -> None:
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be a finite positive real")


def _table(sigma2: float) -> tuple[int, np.ndarray]:
    """kmax and the weights exp(-k^2 / (2 sigma^2)) for k from -kmax to
    kmax: the truncated table behind both the pmf and the sampler."""
    kmax = int(math.ceil(TRUNCATION_SIGMAS * math.sqrt(sigma2)))
    k = np.arange(-kmax, kmax + 1, dtype=float)
    return kmax, np.exp(-k**2 / (2.0 * sigma2))


def dgauss_pmf(k: int, params: DiscreteGaussParams) -> float:
    """Probability mass at integer k, normalized over the truncated table."""
    return math.exp(-k * k / (2.0 * params.sigma2)) / _table(params.sigma2)[1].sum()


class DiscreteGaussianSampler:
    """Exact sampler by inversion over a truncated cumulative table.

    A uniform u in [0, 1) maps to the first table index whose cdf reaches
    u, `np.searchsorted(cdf, u)`, less kmax.  A bucket-exact guide table
    (Chen & Asau's indexed search) returns that same draw with one table
    read for almost every u.  It splits [0, 1) into m equal buckets, m the
    power of two at least GUIDE_RATIO times the table length, so
    m <= 2 GUIDE_RATIO (2 kmax + 1) and the bucket j = floor(u m) of a
    draw is exact.  Let first[j] be the first index whose cdf reaches j/m.
    Every u in bucket j maps to an index from first[j] to first[j + 1]:
    u >= j/m, and the cdf at first[j + 1] reaches (j + 1)/m > u.  So a
    bucket with no cdf entry inside it sends every u to first[j], and the
    table holds that draw, first[j] - kmax, outright.  The other buckets
    hold at least one entry each, so they are at most one in GUIDE_RATIO,
    and the table flags them with kmax + 1, a value no draw takes.  A
    flagged draw is found by the binary search.
    """

    def __init__(self, params: DiscreteGaussParams):
        kmax, weights = _table(params.sigma2)
        cdf = np.cumsum(weights / weights.sum())
        # rounding can leave the last entry below 1, where a draw above it
        # would map past the table
        cdf[-1] = max(cdf[-1], 1.0)
        self._cdf, self._kmax = cdf, kmax
        m = 1 << (GUIDE_RATIO * cdf.size - 1).bit_length()
        self._m = float(m)
        # cdf[i] reaches j/m exactly when j <= floor(cdf[i] m), a product
        # that scaling by a power of two keeps exact; so first[j] takes
        # index i for each j above floor(cdf[i - 1] m) up to floor(cdf[i] m)
        reach = np.minimum(np.floor(cdf * m), m).astype(np.intp)
        support = np.arange(-kmax, kmax + 1, dtype=np.intp)
        self._draw = np.repeat(support, np.diff(reach, prepend=-1))[:m]
        # entry i lies inside bucket reach[i] (none lies inside bucket m)
        self._draw[reach[reach < m]] = kmax + 1

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Draws of the given shape, filled in chunks of the flattened
        array; the uniforms are consumed in the same order as by one
        `rng.random(size)` call."""
        out = np.empty(size, dtype=np.intp)
        flat = out.reshape(-1)
        buckets = np.empty(min(flat.size, SAMPLE_CHUNK), dtype=np.intp)
        kmax, cdf = self._kmax, self._cdf
        for start in range(0, flat.size, SAMPLE_CHUNK):
            chunk = flat[start : start + SAMPLE_CHUNK]
            u = rng.random(chunk.size)
            # the bucket numbers get their own buffer: `take` does not
            # promise to read its indices before it writes an aliased output;
            # they are below m, and "clip" skips the buffered bounds check
            j = np.multiply(u, self._m, out=buckets[: chunk.size], casting="unsafe")
            self._draw.take(j, out=chunk, mode="clip")
            flagged = (chunk > kmax).nonzero()[0]
            if flagged.size:
                chunk[flagged] = cdf.searchsorted(u[flagged]) - kmax
        return out


@dataclass(frozen=True)
class AffectedQuerySet:
    """The released queries whose answers a neighbor change can move.

    Each entry is (rho_star, number of +-1 cells).  For the canonical
    worst-case pair every query contributes two cells, one +1 and one -1:
    a demographic change moves two cells of one histogram, a location
    change moves one cell in each of two geounits.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        for rho_star, cells in self.entries:
            if rho_star <= 0:
                raise ValueError("rho_star entries must be positive")
            if cells < 1:
                raise ValueError("each entry needs at least one changed cell")

    def total_rho(self) -> float:
        return sum(rho_star for rho_star, _ in self.entries)


def affected_queries_from_table(
    table: AllocationTable, scenario: Scenario | None = None
) -> AffectedQuerySet:
    """Affected query set for the production release or one scenario.

    Zero-budget pairs are skipped; they add no information either way.
    """
    if scenario is None:
        pairs = [(q, level) for q in QueryKind for level in GeoLevel]
    else:
        pairs = sorted(scenario.selected, key=lambda p: (p[0].value, p[1].value))
    entries = []
    for query, level in pairs:
        rho_star = float(table.rho_star(query, level))
        if rho_star > 0.0:
            entries.append((rho_star, 2))
    return AffectedQuerySet(tuple(entries))


def llr_statistic(
    observations: Sequence[int], queries: AffectedQuerySet
) -> float:
    """Log-likelihood ratio of one release, observations relative to the
    null answers: sum of log pmf(obs) - log pmf(obs - shift) per cell.

    The cells of each entry take shifts +1, -1, +1, ... in turn.
    """
    cells = [
        (rho_star, 1 - 2 * (i % 2))
        for rho_star, n_cells in queries.entries
        for i in range(n_cells)
    ]
    if len(observations) != len(cells):
        raise ValueError(
            f"expected {len(cells)} observations, got {len(observations)}"
        )
    total = 0.0
    for obs, (rho_star, shift) in zip(observations, cells):
        sigma2 = 1.0 / rho_star
        # log pmf(k) - log pmf(k - s) = (s^2 - 2 k s) / (2 sigma^2)
        total += (shift * shift - 2.0 * obs * shift) / (2.0 * sigma2)
    return total


@dataclass(frozen=True)
class EmpiricalRoc:
    """Empirical level/power curve from sorted LLR samples of both arms."""

    null_llr: np.ndarray
    alt_llr: np.ndarray
    n_samples: int
    seed: int
    allocation_digest: str

    def power_at(self, level: float) -> float:
        """Power of the empirical likelihood-ratio test at a given level.

        Rejection happens for small LLR; chords between achievable points
        correspond to randomized thresholds.
        """
        _check_level(level)
        n = self.n_samples
        pos = level * n
        idx = int(math.floor(pos))
        if idx >= n:
            return 1.0
        t = self.null_llr[idx]
        base_level = np.searchsorted(self.null_llr, t, side="left") / n
        base_power = np.searchsorted(self.alt_llr, t, side="left") / n
        next_level = np.searchsorted(self.null_llr, t, side="right") / n
        next_power = np.searchsorted(self.alt_llr, t, side="right") / n
        # t is a null sample, so next_level > base_level; rounding can put frac below 0
        frac = (level - base_level) / (next_level - base_level)
        frac = min(1.0, max(0.0, frac))
        return float(base_power + frac * (next_power - base_power))

    def standard_error(self, level: float) -> float:
        """Binomial standard error of `power_at`, with the variance floored
        at one event in n: an estimate of 0 or 1 does not mean that the
        true power is exactly 0 or 1."""
        return self.standard_error_of_power(self.power_at(level))

    def standard_error_of_power(self, power: float) -> float:
        """`standard_error` of the level whose `power_at` is `power`."""
        n = self.n_samples
        return math.sqrt(max(power * (1.0 - power), 1.0 / n) / n)

    def curve(self) -> PiecewiseLinearCurve:
        grid = np.linspace(0.0, 1.0, 201)
        return PiecewiseLinearCurve(tuple((float(x), self.power_at(float(x))) for x in grid))

    def manifest(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "allocation_digest": self.allocation_digest,
            "shards": N_SHARDS,
        }


def _shard_sizes(n: int) -> list[int]:
    base, extra = divmod(n, N_SHARDS)
    return [base + (1 if i < extra else 0) for i in range(N_SHARDS)]


def mc_roc(queries: AffectedQuerySet, n_samples: int, seed: int) -> EmpiricalRoc:
    """Monte Carlo level/power curve of the exact likelihood-ratio test.

    A cell with budget rho* and shift s contributes rho* (1/2 - x s) to the
    LLR.  Under the null x is symmetric noise k, under the alternative
    x = k + s, so with half = sum of rho*/2 over all cells the release LLR
    is +half (null) or -half (alternative) plus the sum of rho* k over the
    cells.  Each shard of each arm has its own independently seeded
    stream, so the result depends only on (queries, n_samples, seed).
    The loop runs rho* by rho*: it builds one sampler per rho* and draws
    all cells of that rho* from each stream in one call.  Each stream
    still consumes its uniforms, and each sample adds its terms, in the
    rho* order of a loop over shards, so the nesting moves no byte.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    cells_of: dict[float, int] = {}
    for rho_star, cells in queries.entries:
        cells_of[rho_star] = cells_of.get(rho_star, 0) + cells
    half = 0.5 * sum(rho_star * cells for rho_star, cells in cells_of.items())
    streams = np.random.SeedSequence(seed).spawn(2 * N_SHARDS)
    arms = (np.full(n_samples, half), np.full(n_samples, -half))
    # (shard's slice of one arm, that shard and arm's stream), in stream order
    blocks = []
    start = 0
    for shard, size in enumerate(_shard_sizes(n_samples)):
        for arm, stream in zip(arms, streams[2 * shard : 2 * shard + 2]):
            blocks.append((arm[start : start + size], np.random.default_rng(stream)))
        start += size
    for rho_star, cells in cells_of.items():
        sampler = DiscreteGaussianSampler(DiscreteGaussParams(1.0 / rho_star))
        for total, rng in blocks:
            total += rho_star * sampler.sample(rng, (cells, total.size)).sum(axis=0)
    null_llr, alt_llr = arms
    null_llr.sort()
    alt_llr.sort()
    digest = hashlib.sha256(
        json.dumps(queries.entries, sort_keys=True).encode()
    ).hexdigest()[:16]
    return EmpiricalRoc(null_llr, alt_llr, n_samples, seed, digest)
