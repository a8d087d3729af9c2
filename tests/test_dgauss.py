import hashlib
import itertools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpsemantics import (
    AffectedQuerySet,
    DiscreteGaussParams,
    affected_queries_from_table,
    builtin_scenario,
    dgauss_pmf,
    gaussian_exact_power,
    mc_roc,
    zcdp_power_bound,
)
from dpsemantics.dgauss import (
    GUIDE_RATIO,
    N_SHARDS,
    SAMPLE_CHUNK,
    TRUNCATION_SIGMAS,
    DiscreteGaussianSampler,
    EmpiricalRoc,
    _Ahead,
    _table,
)

GRID_LEVELS = np.arange(0.01, 1.00, 0.01)


def series_oracle(sigma2: float, moment: int = 0, span: int = 400) -> float:
    """Independent pmf oracle: plain fsum over a wide fixed window."""
    ks = range(-span, span + 1)
    z = math.fsum(math.exp(-k * k / (2 * sigma2)) for k in ks)
    if moment == 0:
        return 1.0 / z
    return math.fsum(k**moment * math.exp(-k * k / (2 * sigma2)) for k in ks) / z


# --- pmf ------------------------------------------------------------------------

def test_pmf_symmetry():
    params = DiscreteGaussParams(2.7)
    for k in range(0, 12):
        assert dgauss_pmf(k, params) == dgauss_pmf(-k, params)


def test_pmf_normalization():
    for sigma2 in (0.5, 1.0, 4.0, 25.0):
        params = DiscreteGaussParams(sigma2)
        span = int(math.ceil(14 * math.sqrt(sigma2)))
        total = math.fsum(dgauss_pmf(k, params) for k in range(-span, span + 1))
        assert abs(total - 1.0) < 1e-12


def test_pmf_against_series_oracle():
    params = DiscreteGaussParams(1.0)
    assert math.isclose(dgauss_pmf(0, params), series_oracle(1.0), rel_tol=1e-12)
    for k in (1, 2, 5):
        want = math.exp(-k * k / 2.0) * series_oracle(1.0)
        assert math.isclose(dgauss_pmf(k, params), want, rel_tol=1e-12)


# sigma^2 from tiny to wide; 7951.5 is 1/rho* of production's smallest rho*
TABLE_SIGMA2S = (0.05, 1.0, 7951.5, 1e5)


@pytest.mark.parametrize("sigma2", TABLE_SIGMA2S)
def test_table_leaves_out_less_than_1e_30_of_the_mass(sigma2):
    kmax, _ = _table(sigma2)
    with mpmath.workdps(50):
        s2 = mpmath.mpf(sigma2)

        def weights(ks):
            return mpmath.fsum(mpmath.exp(-mpmath.mpf(k) ** 2 / (2 * s2)) for k in ks)

        inside = 1 + 2 * weights(range(1, kmax + 1))
        # past 20 sigma the terms are below e^-200 of the total
        outside = 2 * weights(range(kmax + 1, kmax + int(8 * math.sqrt(sigma2)) + 10))
        assert outside / (inside + outside) < 1e-30


@pytest.mark.parametrize("sigma2", TABLE_SIGMA2S)
def test_pmf_and_sampler_read_one_table(sigma2):
    params = DiscreteGaussParams(sigma2)
    kmax, _ = _table(sigma2)
    pmf = [dgauss_pmf(k, params) for k in range(-kmax, kmax + 1)]
    assert abs(math.fsum(pmf) - 1.0) <= 1e-15
    cdf = DiscreteGaussianSampler(params)._cdf
    assert np.max(np.abs(np.cumsum(pmf) - cdf)[:-1]) <= 1e-15


def test_pmf_is_a_python_float_and_zero_outside_the_table():
    params = DiscreteGaussParams(1.0)
    kmax, _ = _table(1.0)
    assert kmax == 12
    for k in (kmax + 1, -kmax - 1, 10**30):
        assert dgauss_pmf(k, params) == 0.0
    assert dgauss_pmf(kmax, params) > 0.0
    assert type(dgauss_pmf(0, params)) is float
    assert type(dgauss_pmf(kmax + 1, params)) is float


def test_pmf_rejects_bad_scale():
    with pytest.raises(ValueError):
        DiscreteGaussParams(0.0)
    with pytest.raises(ValueError):
        DiscreteGaussParams(-1.0)


# --- sampler ---------------------------------------------------------------------

def test_sampler_moments(rng):
    params = DiscreteGaussParams(4.0)
    draws = DiscreteGaussianSampler(params).sample(rng, 1_000_000)
    assert abs(draws.mean()) < 0.01
    analytic_var = series_oracle(4.0, moment=2)
    assert abs(draws.var() - analytic_var) / analytic_var < 0.02


def test_sampler_chi_square_goodness_of_fit(rng):
    sigma2 = 2.0
    params = DiscreteGaussParams(sigma2)
    n = 1_000_000
    draws = DiscreteGaussianSampler(params).sample(rng, n)
    edge = 10
    clipped = np.clip(draws, -edge, edge)
    observed = np.bincount(clipped + edge, minlength=2 * edge + 1)
    expected = np.array(
        [dgauss_pmf(k, params) for k in range(-edge, edge + 1)], dtype=float
    )
    # fold everything past the edges into the edge bins
    tail = (1.0 - expected.sum()) / 2.0
    expected[0] += tail
    expected[-1] += tail
    keep = expected * n >= 5
    result = stats.chisquare(observed[keep], expected[keep] / expected[keep].sum() * observed[keep].sum())
    assert result.pvalue > 0.001


def test_sampler_deterministic_given_seed():
    params = DiscreteGaussParams(3.0)
    a = DiscreteGaussianSampler(params).sample(np.random.default_rng(5), 1000)
    b = DiscreteGaussianSampler(params).sample(np.random.default_rng(5), 1000)
    assert np.array_equal(a, b)


class ReplayRng:
    """Stands in for a generator: hands out the given uniforms in order,
    in whatever batch sizes `random` is asked for."""

    def __init__(self, u: np.ndarray):
        self.u = u
        self.used = 0

    def random(self, size: int) -> np.ndarray:
        out = self.u[self.used : self.used + size]
        self.used += size
        return out


def inversion_table(sigma2: float) -> tuple[int, np.ndarray]:
    """kmax and the cumulative table on [-kmax, kmax], built as the
    binary-search sampler built it, with the last entry raised to 1."""
    kmax = int(math.ceil(TRUNCATION_SIGMAS * math.sqrt(sigma2)))
    support = np.arange(-kmax, kmax + 1)
    weights = np.exp(-support.astype(float) ** 2 / (2.0 * sigma2))
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = max(cdf[-1], 1.0)
    return kmax, cdf


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1e5))
def test_sampler_is_inversion_by_binary_search(sigma2):
    kmax, cdf = inversion_table(sigma2)
    sampler = DiscreteGaussianSampler(DiscreteGaussParams(sigma2))
    # the edges j/M of M buckets include the edges of every power-of-two
    # bucket count up to M, and M is twice the sampler's bucket count
    m = 1 << (2 * GUIDE_RATIO * cdf.size - 1).bit_length()
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        np.arange(m) / m,
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
    ])
    u = u[u < 1.0]
    rng = ReplayRng(u)
    got = sampler.sample(rng, u.size)
    assert rng.used == u.size
    assert np.array_equal(got, np.searchsorted(cdf, u) - kmax)
    # at most one bucket in GUIDE_RATIO is flagged for the binary search,
    # and the table has at most 2 GUIDE_RATIO entries per cdf entry
    buckets = sampler._draw.size
    assert m == 2 * buckets <= 4 * GUIDE_RATIO * cdf.size
    assert np.count_nonzero(sampler._draw > kmax) * GUIDE_RATIO <= buckets


def test_sampler_stream_matches_one_random_call():
    # the block spans three fill chunks, the last one partial; the draws
    # must still follow one rng.random(shape) call, element for element
    sigma2 = 1.0 / 0.0005282011251546199
    kmax, cdf = inversion_table(sigma2)
    shape = (3, SAMPLE_CHUNK - 1)
    got = DiscreteGaussianSampler(DiscreteGaussParams(sigma2)).sample(
        np.random.default_rng(3), shape
    )
    u = np.random.default_rng(3).random(shape)
    assert got.shape == shape
    assert np.array_equal(got, np.searchsorted(cdf, u) - kmax)


def test_sampler_top_draw_maps_to_kmax():
    # this production table's cumulative sum ends at 1 - 4e-16, below the
    # largest draw 1 - 2^-53
    sigma2 = 1.0 / 0.0005282011251546199
    kmax, _ = inversion_table(sigma2)
    draws = DiscreteGaussianSampler(DiscreteGaussParams(sigma2)).sample(
        ReplayRng(np.array([1.0 - 2.0**-53])), 1
    )
    assert draws.tolist() == [kmax]


# --- llr -------------------------------------------------------------------------

def llr_statistic(observations, queries: AffectedQuerySet) -> float:
    """Brute-force oracle for the LLR that `mc_roc` sums: log-likelihood
    ratio of one release, observations relative to the null answers, as
    the sum of log pmf(obs) - log pmf(obs - shift) over the cells.

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


def test_llr_single_cell_at_zero():
    queries = AffectedQuerySet(((1.0, 1),))
    assert math.isclose(llr_statistic([0], queries), 0.5)


def test_llr_empty_set_is_zero():
    assert llr_statistic([], AffectedQuerySet(())) == 0.0


def test_llr_additive_over_cells():
    single = AffectedQuerySet(((0.7, 1),))
    double = AffectedQuerySet(((0.7, 2),))
    # cells alternate +1/-1 shifts; additivity over independent cells
    got = llr_statistic([3, -2], double)
    want = llr_statistic([3], single) + (0.7 * (0.5 - (-2) * -1))
    assert math.isclose(got, want)
    pair = AffectedQuerySet(((0.7, 1), (0.3, 1)))
    assert math.isclose(
        llr_statistic([1, 4], pair),
        llr_statistic([1], AffectedQuerySet(((0.7, 1),)))
        + llr_statistic([4], AffectedQuerySet(((0.3, 1),))),
    )


def test_llr_length_mismatch_rejected():
    with pytest.raises(ValueError):
        llr_statistic([0, 1], AffectedQuerySet(((1.0, 1),)))


def test_llr_pmf_ratio_agreement():
    # the closed form inside llr_statistic must match literal pmf ratios
    params = DiscreteGaussParams(1.0)
    queries = AffectedQuerySet(((1.0, 1),))
    for obs in (-3, -1, 0, 2, 4):
        want = math.log(dgauss_pmf(obs, params) / dgauss_pmf(obs - 1, params))
        assert math.isclose(llr_statistic([obs], queries), want, rel_tol=1e-12)


# --- affected query sets ------------------------------------------------------------

def test_production_affected_queries(production_table):
    queries = affected_queries_from_table(production_table)
    # 11 person queries x 6 levels minus the zero national total, plus
    # occupancy at 6 levels
    assert len(queries.entries) == 71
    assert all(cells == 2 for _, cells in queries.entries)
    assert math.isclose(sum(rho for rho, _ in queries.entries), 2.63, rel_tol=1e-12)


def test_scenario_a_affected_queries(production_table):
    queries = affected_queries_from_table(production_table, builtin_scenario("A"))
    assert len(queries.entries) == 12
    total = sum(rho for rho, _ in queries.entries)
    assert math.isclose(total, 0.11150074378640834, rel_tol=1e-12)


# --- mc roc ---------------------------------------------------------------------------

def test_mc_roc_rejects_tiny_runs():
    queries = AffectedQuerySet(((1.0, 2),))
    with pytest.raises(ValueError):
        mc_roc(queries, 999, seed=1)


def test_mc_roc_deterministic_given_seed():
    queries = AffectedQuerySet(((0.5, 2), (0.1, 2)))
    a = mc_roc(queries, 5000, seed=42)
    b = mc_roc(queries, 5000, seed=42)
    assert np.array_equal(a.null_llr, b.null_llr)
    assert np.array_equal(a.alt_llr, b.alt_llr)
    c = mc_roc(queries, 5000, seed=43)
    assert not np.array_equal(a.null_llr, c.null_llr)


def test_mc_roc_matches_per_cell_brute_force():
    # a repeated rho* and an odd cell count: the per-rho* batching must
    # give the law of drawing every cell on its own and evaluating the LLR
    queries = AffectedQuerySet(((0.5, 3), (0.2, 2), (0.5, 1)))
    n = 4000
    roc = mc_roc(queries, n, seed=3)
    rng = np.random.default_rng(17)
    cells = [(rho, 1 - 2 * (i % 2)) for rho, count in queries.entries for i in range(count)]
    noise = np.stack([
        DiscreteGaussianSampler(DiscreteGaussParams(1.0 / rho)).sample(rng, (2, n))
        for rho, _ in cells
    ])
    shifts = [shift for _, shift in cells]
    brute_null = [llr_statistic(noise[:, 0, j].tolist(), queries) for j in range(n)]
    brute_alt = [
        llr_statistic([k + s for k, s in zip(noise[:, 1, j].tolist(), shifts)], queries)
        for j in range(n)
    ]
    assert stats.ks_2samp(roc.null_llr, brute_null).pvalue > 0.001
    assert stats.ks_2samp(roc.alt_llr, brute_alt).pvalue > 0.001


def _llr_digest(roc: EmpiricalRoc) -> str:
    return hashlib.sha256(roc.null_llr.tobytes() + roc.alt_llr.tobytes()).hexdigest()


def test_mc_roc_bytes_pinned_with_unequal_shards_and_repeated_rho():
    # 4003 = 16 x 250 + 3: three shards hold one sample more; rho* = 0.5
    # repeats, with odd cell counts.  The digest was recorded before the
    # bucket-exact sampling table and the rho*-major loop, which must not
    # move a single draw.
    queries = AffectedQuerySet(((0.5, 3), (0.2, 2), (0.5, 1)))
    assert _llr_digest(mc_roc(queries, 4003, seed=3)) == (
        "815fd9f818a74c81c0e5410f8d2f487ba6ed437f191cb224dfc1f78329a0b074"
    )


def test_mc_roc_bytes_pinned_scenario_a(production_table):
    # as above, for scenario A's 12 queries (6 distinct rho*) at
    # n = 2011 = 16 x 125 + 11
    queries = affected_queries_from_table(production_table, builtin_scenario("A"))
    assert _llr_digest(mc_roc(queries, 2011, seed=1)) == (
        "f340f2cedba653917d34a8ff6f8f5ab7b2008341832810279c44f3fc1a5dfa04"
    )


def serial_mc_llr(queries: AffectedQuerySet, n: int, seed: int):
    """`mc_roc`'s sorted arms from a plain loop, in which each shard's
    block of each arm is drawn straight from its own generator on this
    thread, one `sample` call per block."""
    cells_of: dict[float, int] = {}
    for rho_star, cells in queries.entries:
        cells_of[rho_star] = cells_of.get(rho_star, 0) + cells
    half = 0.5 * sum(rho_star * cells for rho_star, cells in cells_of.items())
    streams = np.random.SeedSequence(seed).spawn(2 * N_SHARDS)
    arms = (np.full(n, half), np.full(n, -half))
    base, extra = divmod(n, N_SHARDS)
    blocks = []
    start = 0
    for shard in range(N_SHARDS):
        size = base + (shard < extra)
        for arm, stream in zip(arms, streams[2 * shard : 2 * shard + 2]):
            blocks.append((arm[start : start + size], np.random.default_rng(stream)))
        start += size
    for rho_star, cells in cells_of.items():
        sampler = DiscreteGaussianSampler(DiscreteGaussParams(1.0 / rho_star))
        for total, rng in blocks:
            total += rho_star * sampler.sample(rng, (cells, total.size)).sum(axis=0)
    return np.sort(arms[0]), np.sort(arms[1])


def recorded_sample_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every `DiscreteGaussianSampler.sample` call from now
    on, in call order."""
    shapes = []
    real_sample = DiscreteGaussianSampler.sample

    def recording_sample(self, rng, size):
        shapes.append(size)
        return real_sample(self, rng, size)

    monkeypatch.setattr(DiscreteGaussianSampler, "sample", recording_sample)
    return shapes


def test_mc_roc_matches_a_serial_loop_across_uniform_buffers(monkeypatch, production_table):
    # at n = 100 003 = 16 x 6250 + 3 the production rho* reach all three
    # call shapes: several shards per call (2 cells), both shard sizes,
    # and one block per call (10 and 12 cells)
    queries = affected_queries_from_table(production_table)
    shapes = recorded_sample_shapes(monkeypatch)
    roc = mc_roc(queries, 100_003, seed=5)
    monkeypatch.undo()
    null, alt = serial_mc_llr(queries, 100_003, 5)
    assert np.array_equal(roc.null_llr, null)
    assert np.array_equal(roc.alt_llr, alt)
    assert any(shards > 1 and arms == 2 for shards, arms, _, _ in shapes)
    assert {size for *_, size in shapes} == {6251, 6250}
    assert any(shards == arms == 1 for shards, arms, _, _ in shapes)


def implied_sample_calls(cells_of: dict[float, int], n: int) -> int:
    """Calls of whole equal-size shards, both arms each, SAMPLE_CHUNK
    draws at most; two calls per shard where its two arms exceed that."""
    base, extra = divmod(n, N_SHARDS)
    calls = 0
    for cells in cells_of.values():
        for size, shards in ((base + 1, extra), (base, N_SHARDS - extra)):
            per_call = SAMPLE_CHUNK // (2 * cells * size)
            calls += -(-shards // per_call) if per_call else 2 * shards
    return calls


@pytest.mark.parametrize("n", [50_000, 200_003])
def test_mc_roc_sample_calls_follow_the_grouping(monkeypatch, production_table, n):
    queries = affected_queries_from_table(production_table)
    cells_of: dict[float, int] = {}
    for rho_star, cells in queries.entries:
        cells_of[rho_star] = cells_of.get(rho_star, 0) + cells
    shapes = recorded_sample_shapes(monkeypatch)
    mc_roc(queries, n, seed=1)
    draws = [math.prod(shape) for shape in shapes]
    assert all(
        d <= max(SAMPLE_CHUNK, cells * size) for d, (*_, cells, size) in zip(draws, shapes)
    )
    assert sum(draws) == 2 * n * 142
    assert len(shapes) == implied_sample_calls(cells_of, n)


def mc_helpers_alive() -> bool:
    """Whether a Monte Carlo uniform-drawing helper thread is running."""
    return any(t.name == "dpsem-mc-uniforms" for t in threading.enumerate())


def test_a_request_off_the_plan_raises_and_the_helper_is_joined(monkeypatch):
    before = threading.active_count()
    with pytest.raises(ValueError, match="uniforms requested"):
        with _Ahead([[(np.random.default_rng(1), 5)]]) as uniforms:
            uniforms.random(5)
            uniforms.random(5)  # past the end of the plan
    assert threading.active_count() == before
    assert not mc_helpers_alive()
    # a sampler that asks for one uniform where the plan's first chunk holds more
    monkeypatch.setattr(DiscreteGaussianSampler, "sample", lambda self, rng, size: rng.random(1))
    with pytest.raises(ValueError, match="1 uniforms requested"):
        mc_roc(AffectedQuerySet(((0.5, 3), (0.2, 2))), 4003, seed=3)
    assert threading.active_count() == before
    assert not mc_helpers_alive()


def test_concurrent_mc_roc_calls_under_fast_thread_switching():
    # three calls, each with its own helper: six threads on fewer cores,
    # switched every 10 us; each call's uniforms span several buffers
    queries = AffectedQuerySet(((0.5, 3), (0.2, 2), (0.5, 1)))
    null, alt = serial_mc_llr(queries, 20_011, 7)
    results = [None] * 3

    def run(i):
        results[i] = mc_roc(queries, 20_011, seed=7)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for roc in results:
        assert np.array_equal(roc.null_llr, null)
        assert np.array_equal(roc.alt_llr, alt)


def test_mc_roc_joins_its_helper_thread_on_return():
    before = threading.active_count()
    mc_roc(AffectedQuerySet(((0.5, 3), (0.2, 2))), 4003, seed=3)
    assert threading.active_count() == before
    assert not mc_helpers_alive()


def test_mc_roc_raises_an_error_from_drawing_uniforms(monkeypatch):
    # the 40th draw of uniforms fails, after the helper has handed over
    # whole buffers
    real_rng = np.random.default_rng
    draws = itertools.count()

    class FailingGenerator:
        def __init__(self, stream):
            self._rng = real_rng(stream)

        def random(self, out):
            if next(draws) == 40:
                raise MemoryError("no room for uniforms")
            return self._rng.random(out=out)

    before = threading.active_count()
    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    with pytest.raises(MemoryError, match="no room for uniforms"):
        mc_roc(AffectedQuerySet(((0.5, 40), (0.2, 40))), 100_000, seed=3)
    assert threading.active_count() == before
    assert not mc_helpers_alive()


def test_mc_roc_stops_its_helper_on_an_error_in_the_caller(monkeypatch, production_table):
    # the sampler fails at its fifth call; the helper, a few chunks ahead by
    # then, draws the chunks it was handed and stops at the stop marker
    real_sample = DiscreteGaussianSampler.sample
    calls = itertools.count()

    def failing_sample(self, rng, size):
        if next(calls) == 4:
            raise RuntimeError("sampler failed")
        return real_sample(self, rng, size)

    before = threading.active_count()
    monkeypatch.setattr(DiscreteGaussianSampler, "sample", failing_sample)
    with pytest.raises(RuntimeError, match="sampler failed"):
        mc_roc(affected_queries_from_table(production_table), 100_000, seed=3)
    assert threading.active_count() == before
    assert not mc_helpers_alive()


def test_standard_error_floored_at_one_event_in_n():
    n = 1000
    null = np.arange(n, dtype=float)
    for alt, power in ((null - 5 * n, 1.0), (null + 5 * n, 0.0)):
        roc = EmpiricalRoc(null, alt, n, seed=0, allocation_digest="")
        assert roc.power_at(0.5) == power
        assert math.isclose(roc.standard_error(0.5), 1.0 / n, rel_tol=1e-12)


def test_mc_roc_near_diagonal_for_tiny_budget():
    queries = AffectedQuerySet(((1e-6, 2),))
    roc = mc_roc(queries, 50_000, seed=7)
    for level in (0.1, 0.5, 0.9):
        assert abs(roc.power_at(level) - level) < 0.02


def test_mc_roc_symmetry_of_arms(mc_scenario_a):
    # negating the null-arm statistics reproduces the alternative arm
    result = stats.ks_2samp(-mc_scenario_a.null_llr, mc_scenario_a.alt_llr)
    assert result.pvalue > 0.001


def test_mc_roc_dominated_by_zcdp_bound(mc_production):
    rho = 2.63
    for level in GRID_LEVELS:
        level = float(level)
        bound = zcdp_power_bound(rho, level)
        emp = mc_production.power_at(level)
        se = mc_production.standard_error(level)
        assert emp <= bound + 3 * se


def test_mc_roc_close_to_gaussian_production(mc_production):
    mu = math.sqrt(2 * 2.63)
    for level in GRID_LEVELS:
        level = float(level)
        emp = mc_production.power_at(level)
        want = gaussian_exact_power(mu, level)
        tol = max(0.01, 3 * mc_production.standard_error(level))
        assert abs(emp - want) <= tol


def test_mc_roc_close_to_gaussian_scenario_a(mc_scenario_a, production_table):
    from dpsemantics import scenario_rho

    rho = float(scenario_rho(production_table, builtin_scenario("A")))
    mu = math.sqrt(2 * rho)
    for level in GRID_LEVELS:
        level = float(level)
        emp = mc_scenario_a.power_at(level)
        want = gaussian_exact_power(mu, level)
        tol = max(0.01, 3 * mc_scenario_a.standard_error(level))
        assert abs(emp - want) <= tol


def test_mc_roc_curve_monotone(mc_scenario_a):
    powers = [mc_scenario_a.power_at(float(x)) for x in np.linspace(0.0, 1.0, 201)]
    assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))


def test_mc_manifest_contents(mc_scenario_a):
    manifest = mc_scenario_a.manifest()
    assert manifest["n_samples"] == 1_000_000
    assert "allocation_digest" in manifest
