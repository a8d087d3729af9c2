"""The benchmark's three workloads: set-up, ops, and the output checks.

Every op is one ``dpsem`` command run in-process or one public library
call.  A workload hands out its ops in *groups*; the runner only stops
between groups, so every run sees the op kinds of a workload in fixed
proportions and its percentiles stay inside one cost class.

Why these workloads:

* ``mc-production`` -- the discrete-Gaussian sampler does ~95% of the
  work of ``dpsem mc``; it shows sampler-kernel work, batching of cells
  that share one rho*, and that batching's memory cost.
* ``numeric-bounds`` -- runs the three hand-written bisection loops and
  the O(n*m) ``DiscretePlrv.compose``; it bypasses the sampler.
* ``closed-forms`` -- the many short ``curve``/``scenario``/``convert``/
  ``tables`` commands behind every plot: CLI parsing and rendering, the
  scalar normal-CDF calls, SVG; it bypasses the sampler and almost all
  bisection.  Its curves go to standard output, not to ``--out`` files:
  on the 2-vCPU virtual machine this benchmark was written on, small
  file writes at the workload's rate (about 600 a second) made the
  hypervisor steal half a CPU, and the workload's timings then moved by
  up to 25% from run to run.  ``scenario`` keeps ``--out``.

Every output is checked against a reference computed here, not by the
library: scipy.stats.norm for the closed forms (reference.py, run in a
child process), a multinomial closed form for composed PLRVs, an exact
piecewise-linear root for the tight pointwise delta, and published
values for the power tables.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np
from scipy.special import gammaln

from dpsemantics import accountants, bayes, census, cli, plrv, tradeoff

LEVELS = (0.01, 0.05, 0.10)
#: Production power of the discrete Gaussian release at LEVELS.
MC_REFERENCE = (0.49, 0.74, 0.84)
#: Published zCDP moment-bound powers at LEVELS.
ZCDP_REFERENCE = {"production": (0.70, 0.95, 0.96), "A": (0.04, 0.14, 0.24)}
MC_SHARDS = 16
MC_EXPORT_POINTS = 201

#: deltas at which numeric-bounds evaluates the pointwise eps of the zCDP bound
FDP_DELTAS = (0.1, 0.01)

#: 3-outcome pair with incommensurate log-ratios, so k-fold composition
#: keeps every one of the C(k+2, 2) atoms distinct.
COMPOSE_P = (0.5, 0.3, 0.2)
COMPOSE_Q = (0.2, 0.5, 0.3)

CLOSED_KINDS = (
    "adp-gaussian",
    "pbdp-gaussian",
    "zcdp-bound",
    "tradeoff-pure",
    "tradeoff-gaussian",
    "bayes-known-rest",
    "bayes-arbitrary",
)
FORMATS = ("csv", "json", "svg")
#: delta at which ``dpsem convert pbdp-eps`` runs
CONVERT_DELTA = 0.1
#: (start, stop, points) of each curve's grid; the points are the CLI defaults.
CURVE_GRIDS = {
    "adp-gaussian": (0.0, 12.0, 200),
    "pbdp-gaussian": (1e-6, 0.5, 200),
    "zcdp-bound": (0.0, 30.0, 200),
    "tradeoff-pure": (0.0, 1.0, 101),
    "tradeoff-gaussian": (0.0, 1.0, 101),
    "bayes-known-rest": (0.0, 30.0, 200),
    "bayes-arbitrary": (0.0, 30.0, 200),
    "tradeoff-zcdp": (0.0, 1.0, 101),
    "scenario": (1e-6, 0.5, 200),
}


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; FULL is what the benchmark measures."""

    mc_n: int = 50_000
    budgets: int = 9
    grid_points: int | None = None  # None: each curve's own point count
    eps_points: int = 20
    compose_fold: int = 64
    setup_repeats: int = 5


FULL = Sizes()
TINY = Sizes(mc_n=2000, budgets=2, grid_points=5, eps_points=3, compose_fold=6,
             setup_repeats=1)


@dataclass
class Op:
    """One timed call plus the check of what it produced."""

    kind: str
    call: Callable[[], object]
    work: int
    check: Callable[[object, str], None]  # (return value, captured stdout)
    is_cli: bool = True
    outputs: tuple[Path, ...] = field(default=())


def _dpsem(args: list[str]) -> Callable[[], object]:
    def call():
        return cli.main.main(args, standalone_mode=False)

    return call


def _grid(kind: str, sizes: Sizes) -> tuple[str, list[float]]:
    """Grid spec for the CLI and the points the CLI derives from it."""
    start, stop, points = CURVE_GRIDS[kind]
    n = sizes.grid_points or points
    step = (stop - start) / (n - 1)
    return f"{start!r}:{stop!r}:{n}", [start + i * step for i in range(n)]


def _order(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _budgets(table, count: int) -> list[tuple[str, float]]:
    """Production plus scenarios A-H: rho from 0.1115 to 2.63."""
    out = [("production", float(census.total_rho(table)))]
    out += [(s.name, float(census.scenario_rho(table, s))) for s in census.builtin_scenarios()]
    return out[:count]


def _parse_points(fmt: str, text: str) -> list[tuple[float, float]]:
    if fmt == "csv":
        rows = text.splitlines()[1:]
    elif fmt == "json":
        return [(float(x), float(y)) for x, y in json.loads(text)["points"]]
    else:
        body = text.split("<!-- data\n", 1)[1].split("\n-->", 1)[0]
        rows = body.splitlines()
    return [tuple(float(v) for v in row.split(",")) for row in rows]


def _check_xs(points, xs: list[float], what: str) -> np.ndarray:
    _require(len(points) == len(xs), f"{what}: {len(points)} points, expected {len(xs)}")
    got = np.array([p[0] for p in points])
    _require(np.array_equal(got, np.array(xs)), f"{what}: grid differs")
    return np.array([p[1] for p in points])


def _close(got, ref, what: str, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    ok = np.isclose(got, ref, rtol=rtol, atol=atol)
    if not ok.all():
        i = int(np.argmin(ok))
        raise CheckFailed(f"{what}: value {got.flat[i]!r} vs reference {ref.flat[i]!r}")


class References:
    """Values of the scipy.stats.norm formulas in reference.py, computed in
    one child process, so that the measuring process never loads
    scipy.stats: its peak RSS is a metric."""

    def __init__(self, requests: list[tuple]) -> None:
        self._values: dict[tuple, np.ndarray] = {}
        if not requests:
            return
        script = Path(__file__).with_name("reference.py")
        done = subprocess.run([sys.executable, str(script)], input=json.dumps(requests),
                              capture_output=True, text=True, check=True, timeout=120)
        for request, values in zip(requests, json.loads(done.stdout), strict=True):
            self._values[_request_key(request)] = np.array(values, dtype=float)

    def __call__(self, formula: str, *args) -> np.ndarray:
        """Values of ``formula`` at ``args``, the last of which is a sequence
        of points; the request must have been made when computing."""
        return self._values[_request_key((formula, *args))]


def _request_key(request) -> tuple:
    return tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in request)


def tight_pbdp_delta(p1, p2, eps: float) -> float:
    """Tight pointwise delta of a finite pair, without bisection.

    The exact trade-off T is piecewise linear and concave, so
    h(d) = T(e^-eps d) - d is concave with h(1) <= 0 and the feasible set
    {h <= 0} is [d*, 1], d* the largest root of h: solve h = 0 on every
    segment of T in closed form and keep the largest valid root.
    """

    def direction(a, b) -> float:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        keep = (a > 0) | (b > 0)
        a, b = a[keep], b[keep]
        with np.errstate(divide="ignore"):
            ratio = np.where(a > 0, b / np.where(a > 0, a, 1.0), np.inf)
        order = np.argsort(-ratio, kind="stable")
        x = np.concatenate([[0.0], np.cumsum(a[order])])
        y = np.concatenate([[0.0], np.cumsum(b[order])])
        s = math.exp(-eps)
        x0, x1, y0, y1 = x[:-1], x[1:], y[:-1], y[1:]
        wide = x1 > x0
        slope = np.where(wide, (y1 - y0) / np.where(wide, x1 - x0, 1.0), 0.0)
        denom = 1.0 - slope * s
        ok = wide & (denom != 0.0)
        d = np.where(ok, (y0 - slope * x0) / np.where(ok, denom, 1.0), -1.0)
        tol = 1e-12
        valid = ok & (s * d >= x0 - tol) & (s * d <= x1 + tol) & (d >= 0.0) & (d <= 1.0 + tol)
        return float(d[valid].max()) if valid.any() else 0.0

    return max(direction(p1, p2), direction(p2, p1))


def composed_delta_reference(p, q, fold: int, eps_list) -> tuple[int, list[float]]:
    """Atoms and tight deltas of the fold-fold composition, from the
    multinomial distribution of the outcome counts."""
    v = np.log(np.asarray(p) / np.asarray(q))
    a, b = np.meshgrid(np.arange(fold + 1), np.arange(fold + 1), indexing="ij")
    mask = a + b <= fold
    a, b = a[mask].astype(float), b[mask].astype(float)
    c = fold - a - b
    values = a * v[0] + b * v[1] + c * v[2]
    logcoef = gammaln(fold + 1) - gammaln(a + 1) - gammaln(b + 1) - gammaln(c + 1)
    pp = np.exp(logcoef + a * math.log(p[0]) + b * math.log(p[1]) + c * math.log(p[2]))
    qq = np.exp(logcoef + a * math.log(q[0]) + b * math.log(q[1]) + c * math.log(q[2]))
    deltas = []
    for eps in eps_list:
        hit = values >= eps - plrv.ATOM_MERGE_TOL
        raw = math.fsum(pp[hit]) - math.exp(eps) * math.fsum(qq[hit])
        deltas.append(min(1.0, max(0.0, raw)))
    return int(mask.sum()), deltas


def roc_point_se(power_se: float, level: float, n: int) -> float:
    """Standard error of one empirical ROC point.

    The exported se covers the binomial error of the power alone; the
    threshold is itself estimated from n null samples, and that error in
    the level passes to the power multiplied by the ROC slope, taken here
    from the Gaussian ROC of the production budget (mu^2 = 2 * 2.63).
    """
    unit = NormalDist()
    z = unit.inv_cdf(1.0 - level)
    slope = unit.pdf(z - math.sqrt(2.0 * 2.63)) / unit.pdf(z)
    level_se = math.sqrt(level * (1.0 - level) / n)
    return math.hypot(power_se, slope * level_se)


class Workload:
    """Set-up and op groups of one workload."""

    name = ""
    work_unit = ""

    def __init__(self, sizes: Sizes, out_dir: Path) -> None:
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def group(self, seed: int, k: int) -> list[Op]:
        raise NotImplementedError

    @property
    def cycle(self) -> int:
        """Groups that together run every op kind at every input once.  A
        run stops only at the end of a cycle, so that every run sees the
        same mix whatever its seed and the speed of the host."""
        return 1

    def after(self, seed: int) -> list[Op]:
        """Ops run once after timing, checked but not timed."""
        return []

    def reference_requests(self) -> list[tuple]:
        """The ``(formula, *params, xs)`` requests to reference.py that the
        checks look up."""
        return []

    def load_references(self) -> None:
        """Compute the checks' reference values; after set-up, untimed."""
        self.refs = References(self.reference_requests())

    def _silent(self, call: Callable[[], object]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            call()


class McProduction(Workload):
    name = "mc-production"
    work_unit = "release samples per arm"

    def setup(self) -> None:
        table = census.production_table()
        # cells derived from the allocation itself: two per positive rho*
        rhos = [
            table.rho_star(q, level) for q in census.QueryKind for level in census.GeoLevel
        ]
        positive = [r for r in rhos if r > 0]
        self.cells = 2 * len(positive)
        self.distinct_rho = len(set(positive))
        warm = self.out_dir / "warmup-roc.csv"
        self._silent(_dpsem(["mc", "production", "--n", "1000", "--seed", "0", "--out", str(warm)]))

    def _op(self, seed: int, out: Path) -> Op:
        n = self.sizes.mc_n
        args = ["mc", "production", "--n", str(n), "--seed", str(seed), "--out", str(out)]
        manifest = Path(str(out) + ".manifest.json")

        def check(_result, _stdout) -> None:
            rows = out.read_text(encoding="utf-8").splitlines()
            _require(rows[0] == "level,power,se", "mc: bad header")
            table = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
            _require(len(table) == MC_EXPORT_POINTS, "mc: wrong number of levels")
            for level, ref in zip(LEVELS, MC_REFERENCE):
                got_level, power, se = min(table, key=lambda r: abs(r[0] - level))
                _require(abs(got_level - level) < 1e-9, f"mc: level {level} missing")
                # 5 standard errors: ten runs of every workload make thousands of these checks
                tol = 0.005 + 5.0 * roc_point_se(se, level, n)
                _require(abs(power - ref) <= tol, f"mc: power {power} at level {level}, reference {ref}")
            got = json.loads(manifest.read_text(encoding="utf-8"))
            want = {"n_samples": n, "seed": seed, "shards": MC_SHARDS}
            _require({k: got.get(k) for k in want} == want, f"mc: manifest {got}")

        return Op("mc", _dpsem(args), n, check, outputs=(out, manifest))

    def group(self, seed: int, k: int) -> list[Op]:
        out = self.out_dir / ("roc-first.csv" if k == 0 else "roc.csv")
        return [self._op(seed + k, out)]

    def after(self, seed: int) -> list[Op]:
        """Regenerate the first op; its files must be byte-identical."""
        first = self.out_dir / "roc-first.csv"
        again = self.out_dir / "roc-again.csv"
        op = self._op(seed, again)
        inner = op.check

        def check(result, stdout) -> None:
            inner(result, stdout)
            for a, b in ((first, again), (Path(f"{first}.manifest.json"), Path(f"{again}.manifest.json"))):
                _require(a.read_bytes() == b.read_bytes(), f"mc: {b.name} differs from {a.name}")

        op.check = check
        return [op]


class NumericBounds(Workload):
    name = "numeric-bounds"
    work_unit = "evaluated points"

    def setup(self) -> None:
        table = census.production_table()
        self.budgets = _budgets(table, self.sizes.budgets)
        _prior, mech, _omega = bayes.wrong_prior_discretized()
        self.pbdp_pair = mech.pair("rest", "target-positive", "target-negative")
        pair = plrv.FiniteMechanismPair(("a", "b", "c"), COMPOSE_P, COMPOSE_Q)
        self.fwd = plrv.plrv_of_finite_pair(pair)
        self.rev = plrv.plrv_of_finite_pair(pair.reversed())
        n = self.sizes.eps_points
        self.pbdp_eps = [float(e) for e in np.linspace(0.1, 3.0, n)]
        self.compose_eps = [float(e) for e in np.linspace(0.5, 25.0, n)]
        # warm-up on small inputs: no op here runs at full size
        warm = self.out_dir / "warmup-zcdp.csv"
        self._silent(_dpsem(["curve", "tradeoff-zcdp", "--rho", "1.0", "--grid", "0:1:3", "--out", str(warm)]))
        small = plrv.FiniteMechanismPair(("1", "0"), (0.75, 0.25), (0.25, 0.75))
        accountants.pbdp_delta_finite(small, 0.5)
        plrv.approx_dp_delta(plrv.compose(self.fwd, self.fwd), plrv.compose(self.rev, self.rev), 1.0)

    def _zcdp_curve(self, label: str, rho: float) -> Op:
        spec, xs = _grid("tradeoff-zcdp", self.sizes)
        out = self.out_dir / "tradeoff-zcdp.csv"
        args = ["curve", "tradeoff-zcdp", "--rho", repr(rho), "--grid", spec, "--out", str(out)]
        mu = math.sqrt(2.0 * rho)

        def check(_result, _stdout) -> None:
            ys = _check_xs(_parse_points("csv", out.read_text(encoding="utf-8")), xs, "tradeoff-zcdp")
            x = np.array(xs)
            _require(np.all(ys <= 1.0) and np.all(ys >= x - 1e-12), "tradeoff-zcdp: outside [level, 1]")
            _require(np.all(np.diff(ys) >= -1e-6), "tradeoff-zcdp: not monotone")
            # rho-zCDP holds for the Gaussian mechanism at mu = sqrt(2 rho)
            gaussian = self.refs("power", mu, xs)
            _require(np.all(ys >= gaussian - 1e-6), "tradeoff-zcdp: below Gaussian power")
            for level, ref in zip(LEVELS, ZCDP_REFERENCE.get(label, ())):
                hit = np.isclose(x, level, rtol=0, atol=1e-12)
                if hit.any():
                    _require(abs(ys[hit][0] - ref) <= 0.01, f"tradeoff-zcdp: {label} at {level}")

        return Op("tradeoff-zcdp", _dpsem(args), len(xs), check, outputs=(out,))

    def _fdp(self, rho: float, delta: float) -> Op:
        def call():
            return accountants.fdp_to_epsdelta(tradeoff.ZcdpNumericBoundCurve(rho), delta)

        def check(eps, _stdout) -> None:
            lower = float(self.refs("pbdp_eps", math.sqrt(2.0 * rho), [delta])[0])
            upper = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
            _require(lower - 1e-6 <= eps <= upper + 1e-9, f"fdp_to_epsdelta: {eps} not in [{lower}, {upper}]")

        return Op("fdp-to-epsdelta", call, 1, check, is_cli=False)

    def reference_requests(self) -> list[tuple]:
        _spec, xs = _grid("tradeoff-zcdp", self.sizes)
        out = []
        for _label, rho in self.budgets:
            mu = math.sqrt(2.0 * rho)
            out.append(("power", mu, xs))
            out += [("pbdp_eps", mu, [delta]) for delta in FDP_DELTAS]
        return out

    @functools.cached_property
    def pbdp_ref(self) -> list[float]:
        return [tight_pbdp_delta(self.pbdp_pair.p1, self.pbdp_pair.p2, e) for e in self.pbdp_eps]

    @functools.cached_property
    def compose_ref(self) -> tuple[int, list[float]]:
        return composed_delta_reference(COMPOSE_P, COMPOSE_Q, self.sizes.compose_fold, self.compose_eps)

    def _pbdp(self) -> Op:
        pair = self.pbdp_pair

        def call():
            return [accountants.pbdp_delta_finite(pair, e) for e in self.pbdp_eps]

        def check(deltas, _stdout) -> None:
            _close(deltas, self.pbdp_ref, "pbdp_delta_finite", rtol=0, atol=1e-9)

        return Op("pbdp-delta-finite", call, len(self.pbdp_eps), check, is_cli=False)

    def _compose(self) -> Op:
        fold = self.sizes.compose_fold

        def call():
            fwd, rev = self.fwd, self.rev
            for _ in range(fold - 1):
                fwd = plrv.compose(fwd, self.fwd)
                rev = plrv.compose(rev, self.rev)
            return fwd, rev, [plrv.approx_dp_delta(fwd, rev, e) for e in self.compose_eps]

        def check(result, _stdout) -> None:
            fwd, rev, deltas = result
            n_atoms, ref = self.compose_ref
            _require(len(fwd.atoms) == n_atoms == len(rev.atoms), "compose: atom count")
            _close(deltas, ref, "compose/approx_dp_delta", rtol=0, atol=1e-9)

        return Op("compose-delta", call, len(self.compose_eps), check, is_cli=False)

    @property
    def cycle(self) -> int:
        return len(self.budgets)

    def group(self, seed: int, k: int) -> list[Op]:
        cycle, slot = divmod(k, len(self.budgets))
        budgets = list(self.budgets)
        _order(seed, -1 - cycle).shuffle(budgets)
        label, rho = budgets[slot]
        # five ops per group: the median then falls inside one op kind
        # (fdp-to-epsdelta), not on the boundary between two kinds
        ops = [self._zcdp_curve(label, rho), self._pbdp(), self._compose()]
        ops += [self._fdp(rho, delta) for delta in FDP_DELTAS]
        _order(seed, k).shuffle(ops)
        return ops


class ClosedForms(Workload):
    name = "closed-forms"
    work_unit = "curve points"

    def setup(self) -> None:
        self.table = census.production_table()
        self.budgets = _budgets(self.table, self.sizes.budgets)
        self.scenarios = [
            (s.name, float(census.scenario_rho(self.table, s))) for s in census.builtin_scenarios()
        ]
        warm = Sizes(grid_points=3)
        for kind in CLOSED_KINDS:
            for fmt in FORMATS:
                self._silent(self._curve(kind, fmt, 1.0, warm).call)
        self._silent(self._scenario("A", self.scenarios[0][1], warm).call)
        for op in self._converts(1.0):
            self._silent(op.call)

    def reference_requests(self) -> list[tuple]:
        out = []
        for _label, rho in self.budgets:
            out += [("curve", kind, rho, _grid(kind, self.sizes)[1]) for kind in CLOSED_KINDS]
            out.append(("pbdp_eps", math.sqrt(2.0 * rho), [CONVERT_DELTA]))
        scenario_xs = _grid("scenario", self.sizes)[1]
        for _name, rho in [self.budgets[0], *self.scenarios]:
            mu = math.sqrt(2.0 * rho)
            out += [("power", mu, list(LEVELS)), ("pbdp_eps", mu, scenario_xs)]
        return out

    def _curve(self, kind: str, fmt: str, rho: float, sizes: Sizes | None = None) -> Op:
        """One ``dpsem curve``, written to standard output: a file per op
        made the hypervisor steal CPU time (see the module docstring)."""
        spec, xs = _grid(kind, sizes or self.sizes)
        if kind == "tradeoff-pure":
            param = ["--eps", repr(math.sqrt(2.0 * rho))]
        else:
            param = ["--rho", repr(rho)]
        args = ["curve", kind, *param, "--grid", spec, "--format", fmt]

        def check(_result, stdout: str) -> None:
            ys = _check_xs(_parse_points(fmt, stdout), xs, kind)
            _close(ys, self.refs("curve", kind, rho, xs), f"{kind} ({fmt})")

        return Op(f"curve-{fmt}", _dpsem(args), len(xs), check)

    def _scenario(self, name: str, rho: float, sizes: Sizes | None = None) -> Op:
        spec, xs = _grid("scenario", sizes or self.sizes)
        out = self.out_dir / f"scenario-{name}.csv"
        args = ["scenario", name, "--grid", spec, "--out", str(out)]
        mu = math.sqrt(2.0 * rho)

        def check(_result, stdout: str) -> None:
            lines = stdout.splitlines()
            _require(lines[0] == f"scenario {name}: rho = {rho:.6g}", f"scenario {name}: {lines[0]!r}")
            for line, ref in zip(lines[1:], self.refs("power", mu, list(LEVELS))):
                power = float(line.rsplit(":", 1)[1])
                _require(abs(power - ref) <= 6e-5, f"scenario {name}: {line!r}")
            ys = _check_xs(_parse_points("csv", out.read_text(encoding="utf-8")), xs, f"scenario {name}")
            _close(ys, self.refs("pbdp_eps", mu, xs), f"scenario {name}")

        return Op("scenario", _dpsem(args), len(xs) + len(LEVELS), check, outputs=(out,))

    def _converts(self, rho: float) -> list[Op]:
        eps = 2.0 * rho + 1.0
        delta = CONVERT_DELTA

        def check_zcdp(_result, stdout: str) -> None:
            _close(float(stdout), math.exp(-((eps - rho) ** 2) / (4.0 * rho)), "convert zcdp-delta")

        def check_pbdp(_result, stdout: str) -> None:
            _close(float(stdout), self.refs("pbdp_eps", math.sqrt(2.0 * rho), [delta])[0], "convert pbdp-eps")

        return [
            Op("convert", _dpsem(["convert", "zcdp-delta", "--rho", repr(rho), "--eps", repr(eps)]), 1, check_zcdp),
            Op("convert", _dpsem(["convert", "pbdp-eps", "--rho", repr(rho), "--delta", repr(delta)]), 1, check_pbdp),
        ]

    def _tables(self) -> Op:
        scenario_row = re.compile(
            r"^([A-H]): rho = ([0-9.]+)  power = ([0-9.]+) / ([0-9.]+) / ([0-9.]+)"
        )
        scenarios = dict(self.scenarios)
        production_mu = math.sqrt(2.0 * float(census.total_rho(self.table)))

        def check(_result, stdout: str) -> None:
            lines = stdout.splitlines()
            pure = [ln.split() for ln in lines[2:5]]
            for row in pure:
                level = float(row[0])
                ref = [min(1.0, math.exp(e) * level, 1.0 - math.exp(-e) * (1.0 - level))
                       for e in (0.1, 0.5, 1.0, 2.0, 4.0)]
                _close([float(v) for v in row[1:]], ref, "tables: pure-DP row", rtol=0, atol=5.1e-4)
            i = lines.index("level    gaussian   zcdp-bound")
            gaussian = self.refs("power", production_mu, list(LEVELS))
            for line, gref, zref in zip(lines[i + 1:i + 4], gaussian, ZCDP_REFERENCE["production"]):
                _level, g, z = (float(v) for v in line.split())
                _require(abs(g - gref) <= 0.0051, f"tables: {line!r}")
                _require(abs(z - zref) <= 0.01, f"tables: {line!r}")
            rows = [m for m in map(scenario_row.match, lines) if m]
            _require(len(rows) == len(scenarios), "tables: scenario rows")
            for m in rows:
                rho = scenarios[m.group(1)]
                _require(abs(float(m.group(2)) - rho) <= 5.1e-5, f"tables: rho of {m.group(1)}")
                ref = self.refs("power", math.sqrt(2.0 * rho), list(LEVELS))
                _close([float(m.group(j)) for j in (3, 4, 5)], ref, "tables: scenario power", rtol=0, atol=0.0051)

        return Op("tables", _dpsem(["tables"]), 5 * 3 + 3 * 2 + 8 * 3, check)

    def group(self, seed: int, k: int) -> list[Op]:
        ops = [
            self._curve(kind, fmt, rho)
            for _label, rho in self.budgets
            for kind in CLOSED_KINDS
            for fmt in FORMATS
        ]
        ops += [self._scenario(name, rho) for name, rho in self.scenarios]
        ops += [op for _label, rho in self.budgets for op in self._converts(rho)]
        ops.append(self._tables())
        _order(seed, k).shuffle(ops)
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (McProduction, NumericBounds, ClosedForms)
}
