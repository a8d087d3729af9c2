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
builds the next, so one sampling table is alive at a time.  It draws them
in a few `sample` calls, each over a run of whole shards of one size and
both arms of each, up to SAMPLE_CHUNK draws.  The sampler inverts the
cumulative sum of the truncated weights that also normalize `dgauss_pmf`;
its bucket-exact guide table returns the inversion draw of almost every
uniform with one table read.  While the calling thread builds the tables
and samples, one helper thread (`_Ahead`) draws the uniforms of each
chunk that the calling thread hands it, a few chunks ahead, into a ring
of reused buffers; the chunks come in the order the loop consumes them,
so the output bytes do not depend on the helper.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .census import AllocationTable, GeoLevel, QueryKind, Scenario
from .tradeoff import _check_level

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

#: Draws per chunk of one `sample` call, and per call where `mc_roc`
#: groups shards into one: bounds its temporaries, which then stay in cache.
SAMPLE_CHUNK = 1 << 16

#: Buffers of SAMPLE_CHUNK uniforms in `_Ahead`'s ring: the sampler reads
#: one while the helper fills the others.
AHEAD_BUFFERS = 4


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


def _check_int(name: str, value: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def dgauss_pmf(k: int, params: DiscreteGaussParams) -> float:
    """Probability mass at integer k, normalized over the truncated table:
    0.0 outside [-kmax, kmax], where the sampler never draws."""
    _check_int("k", k)
    kmax, weights = _table(params.sigma2)
    if abs(k) > kmax:
        return 0.0
    return float(math.exp(-k * k / (2.0 * params.sigma2)) / weights.sum())


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

    def sample(self, rng: np.random.Generator | _Ahead, size: int | tuple[int, ...]) -> np.ndarray:
        """Draws of the given shape, filled in chunks of the flattened
        array; the uniforms are consumed in the same order as by one
        `rng.random(size)` call.  `rng` is any object whose `random(n)`
        returns the next n uniforms in [0, 1), read until its next call:
        a generator, or the helper that `mc_roc` passes."""
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

    Each entry is (rho_star, number of +-1 cells): a finite positive real
    and an int of at least 1.  For the canonical worst-case pair every
    query contributes two cells, one +1 and one -1: a demographic change
    moves two cells of one histogram, a location change moves one cell in
    each of two geounits.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        for rho_star, cells in self.entries:
            if not (rho_star > 0 and math.isfinite(rho_star)):
                raise ValueError("rho_star entries must be finite and positive")
            if isinstance(cells, bool) or not isinstance(cells, int) or cells < 1:
                raise ValueError("each entry's cell count must be an int, at least 1")


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

    def manifest(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "allocation_digest": self.allocation_digest,
            "shards": N_SHARDS,
        }


def _sample_calls(
    n_samples: int, cells: int, rngs: list[np.random.Generator]
) -> tuple[list[tuple[int, int, int, int, int]], list[list[tuple[np.random.Generator, int]]]]:
    """The `sample` calls that draw one rho*'s `cells` cells, in stream
    order, as (first shard, shards, shard size, first arm, arms), and the
    chunks of uniforms that they read, in the same order, each as its
    (generator, count) pieces; the stream of shard s and arm a is
    rngs[2 s + a].  A call covers a run of whole shards of one size (the
    `base + 1` shards, then the `base` shards), both arms of each, in at
    most SAMPLE_CHUNK draws, and is one chunk.  Where one shard's two arms
    exceed that, each arm of each shard is a call of its own, and its count
    is cut into chunks at SAMPLE_CHUNK, where `sample` cuts it."""
    base, extra = divmod(n_samples, N_SHARDS)
    calls, chunks = [], []
    for first, end, size in ((0, extra, base + 1), (extra, N_SHARDS, base)):
        per_call, count = SAMPLE_CHUNK // (2 * cells * size), cells * size
        if per_call:
            for shard in range(first, end, per_call):
                k = min(per_call, end - shard)
                calls.append((shard, k, size, 0, 2))
                chunks.append([(rng, count) for rng in rngs[2 * shard : 2 * (shard + k)]])
        else:
            for j in range(2 * first, 2 * end):
                calls.append((j // 2, 1, size, j % 2, 1))
                chunks += [
                    [(rngs[j], min(SAMPLE_CHUNK, count - at))]
                    for at in range(0, count, SAMPLE_CHUNK)
                ]
    return calls, chunks


class _Ahead:
    """Uniforms drawn a few chunks ahead on a helper thread.

    `chunks` lists, in the order the caller's `random(n)` calls consume
    them, the (generator, count) pieces of each chunk, at most SAMPLE_CHUNK
    doubles in all.  Each `random` hands the helper the chunk
    AHEAD_BUFFERS - 1 further on, with the ring buffer that the caller's
    previous result lives in, and returns the next chunk's doubles, a view
    valid until the next `random`; a request whose n is not that chunk's
    size, or that comes past the last chunk, raises `ValueError`.  k PCG64
    doubles followed by m doubles are the k + m doubles of one draw, so
    these are the bytes that drawing each count from its generator in turn
    gives.  The helper calls nothing but `Generator.random`.  Entering
    starts the helper; leaving stops and joins it.  An exception raised
    while drawing is raised again by `random`.
    """

    def __init__(self, chunks: list[list[tuple[np.random.Generator, int]]]):
        self._chunks = chunks
        self._ring = [np.empty(SAMPLE_CHUNK) for _ in range(AHEAD_BUFFERS)]
        self._next = 0
        self._todo: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._draw, name="dpsem-mc-uniforms")

    def __enter__(self) -> _Ahead:
        self._thread.start()
        for i in range(AHEAD_BUFFERS - 1):
            self._hand(i)
        return self

    def __exit__(self, *exc_info) -> None:
        self._todo.put(None)
        self._thread.join()

    def _hand(self, i: int) -> None:
        if i < len(self._chunks):
            self._todo.put((self._chunks[i], self._ring[i % AHEAD_BUFFERS]))

    def _draw(self) -> None:
        while (task := self._todo.get()) is not None:
            pieces, buf = task
            try:
                filled = 0
                for rng, count in pieces:
                    rng.random(out=buf[filled : filled + count])
                    filled += count
                self._done.put(buf[:filled])
            except Exception as exc:  # raised again on the calling thread
                self._done.put(exc)

    def random(self, n: int) -> np.ndarray:
        i = self._next
        if i == len(self._chunks):
            raise ValueError(f"{n} uniforms requested past the last chunk")
        self._next = i + 1
        self._hand(i + AHEAD_BUFFERS - 1)
        item = self._done.get()
        if isinstance(item, Exception):
            raise item
        if item.size != n:
            raise ValueError(f"{n} uniforms requested where the chunk holds {item.size}")
        return item


def mc_roc(queries: AffectedQuerySet, n_samples: int, seed: int) -> EmpiricalRoc:
    """Monte Carlo level/power curve of the exact likelihood-ratio test.

    A cell with budget rho* and shift s contributes rho* (1/2 - x s) to the
    LLR.  Under the null x is symmetric noise k, under the alternative
    x = k + s, so with half = sum of rho*/2 over all cells the release LLR
    is +half (null) or -half (alternative) plus the sum of rho* k over the
    cells.  Each shard of each arm has its own independently seeded
    stream, so the result depends only on (queries, n_samples, seed).
    The loop runs rho* by rho*: it builds one sampler per rho* and draws
    all cells of that rho* in the few calls `_sample_calls` lists, each
    over a run of whole shards and both their arms, or over one shard's
    arm where a shard's two arms exceed SAMPLE_CHUNK draws.  Each stream
    still consumes its uniforms, and each sample adds its terms, in the
    rho* order of a loop over shards, so the grouping moves no byte.  A
    helper thread draws the chunks of uniforms that `_sample_calls` lists,
    a few ahead, as the sampler's `random` calls hand them over.
    """
    _check_int("n_samples", n_samples)
    _check_int("seed", seed)
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cells_of: dict[float, int] = {}
    for rho_star, cells in queries.entries:
        cells_of[rho_star] = cells_of.get(rho_star, 0) + cells
    half = 0.5 * sum(rho_star * cells for rho_star, cells in cells_of.items())
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2 * N_SHARDS)]
    arms = np.empty((2, n_samples))
    arms[0], arms[1] = half, -half
    base, extra = divmod(n_samples, N_SHARDS)
    calls = {cells: _sample_calls(n_samples, cells, rngs) for cells in set(cells_of.values())}
    chunks = [chunk for cells in cells_of.values() for chunk in calls[cells][1]]
    with _Ahead(chunks) as uniforms:
        for rho_star, cells in cells_of.items():
            sampler = DiscreteGaussianSampler(DiscreteGaussParams(1.0 / rho_star))
            for shard, k, size, arm, n_arms in calls[cells][0]:
                lo = shard * base + min(shard, extra)
                total = arms[arm : arm + n_arms, lo : lo + k * size].reshape(n_arms, k, size)
                shape = (k, n_arms, cells, size)
                total += rho_star * sampler.sample(uniforms, shape).sum(axis=2).swapaxes(0, 1)
    null_llr, alt_llr = arms
    null_llr.sort()
    alt_llr.sort()
    digest = hashlib.sha256(
        json.dumps(queries.entries, sort_keys=True).encode()
    ).hexdigest()[:16]
    return EmpiricalRoc(null_llr, alt_llr, n_samples, seed, digest)
