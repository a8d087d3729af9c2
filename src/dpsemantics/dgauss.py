"""Discrete Gaussian noise and Monte Carlo ROC estimation.

The production release adds discrete Gaussian noise with scale
sigma^2 = 1/rho* independently to every query cell.  For the worst-case
neighbor pair, each released query sees two cells move by +-1 (the old
and the new value of the changed record), so the exact likelihood-ratio
statistic of the whole release is a sum of per-cell log pmf ratios.
Sampling that statistic under both hypotheses yields the empirical
level/power curve of the release.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .census import AllocationTable, GeoLevel, QueryKind, Scenario
from .tradeoff import PiecewiseLinearCurve

#: Truncation radius for sampling tables: P(|X| > 12 sigma) < 1e-30.
TRUNCATION_SIGMAS = 12.0

#: Relative size at which the pmf normalizer stops adding terms.
NORMALIZER_REL_TOL = 1e-18

MIN_MC_SAMPLES = 1000

#: Logical shard count; fixed so sharded and sequential execution draw
#: identical streams.
N_SHARDS = 16


@dataclass(frozen=True)
class DiscreteGaussParams:
    """Scale of one noisy cell: sigma^2 = 1/rho*."""

    sigma2: float

    def __post_init__(self) -> None:
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be a finite positive real")


def _normalizer(sigma2: float) -> float:
    """sum over all integers of exp(-j^2 / (2 sigma^2)), symmetric sum
    truncated once terms stop mattering."""
    total = 1.0
    j = 1
    while True:
        term = math.exp(-j * j / (2.0 * sigma2))
        total += 2.0 * term
        if term < NORMALIZER_REL_TOL * total:
            return total
        j += 1


def dgauss_pmf(k: int, params: DiscreteGaussParams) -> float:
    """Probability mass at integer k."""
    return math.exp(-k * k / (2.0 * params.sigma2)) / _normalizer(params.sigma2)


class DiscreteGaussianSampler:
    """Exact sampler by inversion over a truncated cumulative table."""

    def __init__(self, params: DiscreteGaussParams):
        self.params = params
        kmax = int(math.ceil(TRUNCATION_SIGMAS * math.sqrt(params.sigma2)))
        self.support = np.arange(-kmax, kmax + 1)
        weights = np.exp(-self.support.astype(float) ** 2 / (2.0 * params.sigma2))
        self._cdf = np.cumsum(weights / weights.sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return self.support[np.searchsorted(self._cdf, u)]


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

    @property
    def n_cells(self) -> int:
        return sum(cells for _, cells in self.entries)

    def cell_params(self) -> list[tuple[float, int]]:
        """Flatten to per-cell (rho_star, shift) with alternating signs."""
        out = []
        for rho_star, cells in self.entries:
            for i in range(cells):
                out.append((rho_star, 1 if i % 2 == 0 else -1))
        return out

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
    null answers: sum of log pmf(obs) - log pmf(obs - shift) per cell."""
    cells = queries.cell_params()
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
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must lie in [0, 1]")
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
        if next_level == base_level:
            return float(base_power)
        frac = (level - base_level) / (next_level - base_level)
        frac = min(1.0, max(0.0, frac))
        return float(base_power + frac * (next_power - base_power))

    def standard_error(self, level: float) -> float:
        p = self.power_at(level)
        return math.sqrt(max(p * (1.0 - p), 1e-12) / self.n_samples)

    def curve(self, grid: Sequence[float] | None = None) -> PiecewiseLinearCurve:
        if grid is None:
            grid = np.linspace(0.0, 1.0, 201)
        vertices = [(float(x), self.power_at(float(x))) for x in grid]
        if vertices[-1] != (1.0, 1.0):
            vertices.append((1.0, 1.0))
        return PiecewiseLinearCurve(tuple(vertices))

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


def mc_roc(
    queries: AffectedQuerySet, n_samples: int, seed: int, workers: int = 1
) -> EmpiricalRoc:
    """Monte Carlo level/power curve of the exact likelihood-ratio test.

    Null-arm observations are pure noise; alternative-arm observations are
    noise plus the per-cell shift.  Work is split into fixed logical
    shards with independently seeded streams, so the result depends only
    on (queries, n_samples, seed); `workers` changes wall time, never the
    output.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    cells = queries.cell_params()
    samplers = {
        rho_star: DiscreteGaussianSampler(DiscreteGaussParams(1.0 / rho_star))
        for rho_star in {rho for rho, _ in cells}
    }
    sizes = _shard_sizes(n_samples)
    streams = np.random.SeedSequence(seed).spawn(2 * N_SHARDS)

    def run_arm(shard: int, is_alt: int) -> np.ndarray:
        rng = np.random.default_rng(streams[2 * shard + is_alt])
        total = np.zeros(sizes[shard])
        for rho_star, shift in cells:
            k = samplers[rho_star].sample(rng, sizes[shard])
            x = k + shift if is_alt else k
            total += rho_star * (0.5 - x.astype(float) * shift)
        return total

    jobs = [(shard, is_alt) for shard in range(N_SHARDS) for is_alt in (0, 1)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: run_arm(*j), jobs))
    else:
        results = [run_arm(*j) for j in jobs]
    null_llr = np.sort(np.concatenate(results[0::2]))
    alt_llr = np.sort(np.concatenate(results[1::2]))
    digest = hashlib.sha256(
        json.dumps(queries.entries, sort_keys=True).encode()
    ).hexdigest()[:16]
    return EmpiricalRoc(null_llr, alt_llr, n_samples, seed, digest)
