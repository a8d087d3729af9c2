"""Command-line interface.

Emits every table and curve the library computes as CSV, JSON, or SVG.
Relative --out paths resolve against $DPSEM_OUT_DIR when it is set.
Exit codes: 0 ok, 2 usage error (also a non-finite or rejected number),
3 I/O failure, 4 internal invariant violation.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterator

import click

from . import accountants, bayes, census, dgauss, svg
from .tradeoff import (
    gaussian_exact_power,
    pure_dp_power_bound,
    zcdp_power_bound,
)

LEVELS_TABLE = (0.01, 0.05, 0.10)


class FiniteFloat(click.types.FloatParamType):
    """A float option that rejects nan and +-inf."""

    def convert(self, value, param, ctx) -> float:
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail("must be a finite number", param, ctx)
        return x


FINITE = FiniteFloat()


class Grid(click.ParamType):
    """A start:stop:points sampling grid with finite endpoints."""

    name = "grid"

    def convert(self, value, param, ctx) -> list[float]:
        try:
            start, stop, points = value.split(":")
            n = int(points)
        except ValueError:
            self.fail(f"grid must be start:stop:points, got {value!r}", param, ctx)
        start_f, stop_f = FINITE.convert(start, param, ctx), FINITE.convert(stop, param, ctx)
        if n < 2:
            self.fail("grid needs at least 2 points", param, ctx)
        step = (stop_f - start_f) / (n - 1)
        if not math.isfinite(step):
            self.fail(f"grid {value!r} spans more than a float can hold", param, ctx)
        return [start_f + i * step for i in range(n)]


GRID = Grid()


def _mu_from(mu: float | None, rho: float | None) -> float:
    if (mu is None) == (rho is None):
        raise click.BadParameter("provide exactly one of --mu or --rho")
    if mu is not None:
        return mu
    if rho < 0:
        raise click.BadParameter("rho must be nonnegative")
    # 2 rho overflows above about 9e307, where sqrt(2 rho) is still finite
    return math.sqrt(2.0 * rho) if 2.0 * rho < math.inf else math.sqrt(2.0) * math.sqrt(rho)


def _scenario_from(name_or_file: str) -> census.Scenario:
    """A builtin scenario (A-H) by name, else a scenario file by path."""
    try:
        return census.builtin_scenario(name_or_file)
    except KeyError:
        pass
    path = Path(name_or_file)
    if not path.exists():
        raise click.UsageError(f"{name_or_file!r} is neither a builtin scenario nor a file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    return census.parse_scenario(text)


def _resolve_out(path: str) -> Path:
    base = os.environ.get("DPSEM_OUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _write_text(path: str | None, text: str, *more: tuple[str, str]) -> None:
    """Write text to the --out path, or to standard output without one, and
    each (path, text) of `more` beside it.

    Every file is written whole to a fresh hidden temp file in its target's
    directory; only once all are written is each swapped in: the old file is
    unlinked and the temp renamed into the freed name.  Truncating the old
    file, or renaming over it, makes ext4 flush the new bytes to disk, tens
    of ms; a new name costs nothing.  A failed write leaves every old file
    as it was.  A target that exists but is not a regular file (a FIFO,
    /dev/stdout) is written straight through.
    """
    if path is None:
        click.echo(text, nl=False)
        return
    swaps: list[tuple[str, str]] = []  # (temp file, target)
    swapped = 0
    name = path
    try:
        for name, body in ((path, text), *more):
            _stage(str(_resolve_out(name)), body.encode("utf-8"), swaps)
        for tmp, name in swaps:
            with suppress(FileNotFoundError):  # a concurrent writer unlinked it first
                os.unlink(name)
            os.rename(tmp, name)
            swapped += 1
    except OSError as exc:
        click.echo(f"error: cannot write {name}: {exc}", err=True)
        sys.exit(3)
    finally:
        for tmp, _ in swaps[swapped:]:
            with suppress(OSError):
                os.unlink(tmp)


def _stage(target: str, data: bytes, swaps: list[tuple[str, str]]) -> None:
    """Write data straight into a target that exists and is not a regular
    file; else into a new temp file beside the target (beside the file a
    symlink points at), created as a plain new file is and given the old
    file's permission bits, and queue (temp, target) on `swaps`."""
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(target, "wb") as fh:
            fh.write(data)
        return
    target = os.path.realpath(target)
    tmp = os.path.join(os.path.dirname(target), f".dpsem-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    swaps.append((tmp, target))
    try:
        if old is not None:
            os.fchmod(fd, stat.S_IMODE(old.st_mode))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _render_points(
    points: list[tuple[float, float]],
    header: tuple[str, str],
    fmt: str,
    kind: str,
) -> str:
    if fmt == "csv":
        lines = [f"{header[0]},{header[1]}"]
        lines.extend(f"{x!r},{y!r}" for x, y in points)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # the text of json.dumps({"kind": ..., "columns": ..., "points": ...},
        # sort_keys=True, indent=2), written directly: that call's indenting
        # encoder is pure Python and took about 40% of a JSON curve
        columns = ",\n".join(f"    {json.dumps(name)}" for name in header)
        rows = ",\n".join(
            f"    [\n      {_json_number(x)},\n      {_json_number(y)}\n    ]" for x, y in points
        )
        listed = f"[\n{rows}\n  ]" if points else "[]"
        return (
            f'{{\n  "columns": [\n{columns}\n  ],\n  "kind": {json.dumps(kind)},\n'
            f'  "points": {listed}\n}}\n'
        )
    return svg.line_chart(points, kind, header[0], header[1])


def _json_number(x: float) -> str:
    """A float as json.dumps writes it: NaN, Infinity and -Infinity for the
    non-finite values."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


EPS_DELTA, DELTA_EPS, LEVEL_POWER = ("eps", "delta"), ("delta", "eps"), ("level", "power")

#: kind -> (parameter, default grid, header, parameter -> (x -> y)).  A "mu"
#: parameter comes from --mu, or from --rho as mu = sqrt(2 rho).
CURVES = {
    "adp-gaussian":
        ("mu", "0:12:200", EPS_DELTA, lambda m: accountants.adp_gaussian_curve(m).delta),
    "pbdp-gaussian":
        ("mu", "1e-6:0.5:200", DELTA_EPS, lambda m: partial(accountants.gaussian_pbdp_epsilon, m)),
    "zcdp-bound":
        ("rho", "0:30:200", EPS_DELTA, lambda r: partial(accountants.zcdp_to_delta, r)),
    "tradeoff-pure":
        ("eps", "0:1:101", LEVEL_POWER, lambda e: partial(pure_dp_power_bound, e)),
    "tradeoff-gaussian":
        ("mu", "0:1:101", LEVEL_POWER, lambda m: partial(gaussian_exact_power, m)),
    "tradeoff-zcdp":
        ("rho", "0:1:101", LEVEL_POWER, lambda r: partial(zcdp_power_bound, r)),
    "bayes-known-rest": ("rho", "0:30:200", EPS_DELTA, lambda r: partial(
        bayes.bayes_known_rest_delta, accountants.ZcdpProfile(r))),
}
# labels on the frequentist curves the paper's Bayesian theorems equate
# them with (see the bayes module docstring)
CURVES["bayes-arbitrary"] = CURVES["zcdp-bound"]
CURVES["bayes-pbdp"] = CURVES["pbdp-gaussian"]


class _Main(click.Group):
    """Reports a ValueError from the library as a usage error (exit 2):
    every such error is a parameter or an input file the library rejects."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group(cls=_Main)
def main() -> None:
    """Differential-privacy semantics toolkit."""


@main.command()
@click.argument("kind", type=click.Choice(list(CURVES)))
@click.option("--mu", type=FINITE, default=None, help="Gaussian separation parameter.")
@click.option("--rho", type=FINITE, default=None, help="zCDP budget; mu = sqrt(2 rho).")
@click.option("--eps", type=FINITE, default=None, help="pure-DP bound parameter.")
@click.option("--grid", type=GRID, default=None, help="start:stop:points sampling grid.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "svg"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def curve(kind, mu, rho, eps, grid, fmt, out) -> None:
    """Sample one semantic curve onto a grid and serialize it."""
    param, default_grid, header, point_fn = CURVES[kind]
    for name, given in (("mu", mu), ("rho", rho), ("eps", eps)):
        if given is not None and name not in (param, "rho" if param == "mu" else param):
            raise click.UsageError(f"{kind} does not read --{name}")
    value = _mu_from(mu, rho) if param == "mu" else {"rho": rho, "eps": eps}[param]
    if value is None:
        raise click.BadParameter(f"{kind} needs --{param}")
    if param == "rho" and not value > 0:
        raise ValueError("rho must be positive")
    fn = point_fn(value)
    points = [(x, fn(x)) for x in grid or GRID.convert(default_grid, None, None)]
    _write_text(out, _render_points(points, header, fmt, kind))


@main.command()
def tables() -> None:
    """Print the reference power tables with provenance notes."""
    eps_grid = (0.1, 0.5, 1.0, 2.0, 4.0)
    click.echo("maximum power under pure eps-DP")
    click.echo("level    " + "  ".join(f"eps={e:<5g}" for e in eps_grid))
    for level in LEVELS_TABLE:
        row = "  ".join(f"{pure_dp_power_bound(e, level):<9.3f}" for e in eps_grid)
        click.echo(f"{level:<9.2f}{row}")
    click.echo(
        "note: widely circulated copies of this table print 0.820 at "
        "(eps=0.5, level=0.05) and 0.550 at (eps=4, level=0.01); the bound "
        "evaluates to 0.082 and 0.546."
    )
    click.echo("")

    table = census.production_table()
    rho = float(census.total_rho(table))
    click.echo(f"production release, rho = {rho:g}")
    click.echo("level    gaussian   zcdp-bound")
    mu = _mu_from(None, rho)
    for level in LEVELS_TABLE:
        click.echo(
            f"{level:<9.2f}{gaussian_exact_power(mu, level):<11.2f}"
            f"{zcdp_power_bound(rho, level):<10.2f}"
        )
    click.echo("")

    click.echo("scenario rho and power at levels 0.01 / 0.05 / 0.10")
    for s in census.builtin_scenarios():
        r = float(census.scenario_rho(table, s))
        mu = _mu_from(None, r)
        powers = " / ".join(f"{gaussian_exact_power(mu, lv):.2f}" for lv in LEVELS_TABLE)
        click.echo(f"{s.name}: rho = {r:.4f}  power = {powers}  ({s.narrative})")


@main.command()
@click.argument("name_or_file")
@click.option("--grid", type=GRID, default="1e-6:0.5:200", help="delta grid for the eps curve.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "svg"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def scenario(name_or_file, grid, fmt, out) -> None:
    """Summarize one builtin (A-H) or file-defined scenario."""
    table = census.production_table()
    sc = _scenario_from(name_or_file)
    rho = float(census.scenario_rho(table, sc))
    click.echo(f"scenario {sc.name}: rho = {rho:.6g}")
    if rho > 0:
        mu = _mu_from(None, rho)
        for level in LEVELS_TABLE:
            click.echo(f"power at level {level:.2f}: {gaussian_exact_power(mu, level):.4f}")
        points = [(d, accountants.gaussian_pbdp_epsilon(mu, d)) for d in grid]
        if out is not None:
            _write_text(out, _render_points(points, ("delta", "eps"), fmt, f"scenario-{sc.name}"))
    else:
        click.echo("empty selection: non-informative release, power equals level")


@main.command()
@click.argument("allocation")
@click.option("--n", "n_samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid", type=GRID, default="0:1:201", help="level grid for the ROC export.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def mc(allocation, n_samples, seed, grid, out) -> None:
    """Monte Carlo ROC of the discrete Gaussian release.

    ALLOCATION is `production`, `scenario:A`..`scenario:H`, or `file:PATH`
    pointing at a scenario file; either prefix takes a builtin name or a
    path, as `dpsem scenario` does.
    """
    table = census.production_table()
    prefix, _, name_or_file = allocation.partition(":")
    if allocation == "production":
        sc = None
    elif prefix in ("scenario", "file") and name_or_file:
        sc = _scenario_from(name_or_file)
    else:
        raise click.UsageError(f"unknown allocation {allocation!r}")
    queries = dgauss.affected_queries_from_table(table, sc)
    try:
        roc = dgauss.mc_roc(queries, n_samples, seed)
    except MemoryError as exc:
        raise click.UsageError(f"--n {n_samples}: the samples do not fit in memory") from exc
    lines = ["level,power,se"]
    for level in grid:
        power = roc.power_at(level)
        lines.append(f"{level!r},{power!r},{roc.standard_error_of_power(power)!r}")
    manifest = json.dumps(roc.manifest(), sort_keys=True, indent=2) + "\n"
    # both files are written before either is swapped in, so a failure
    # leaves the previous ROC and manifest in place as a pair
    _write_text(out, "\n".join(lines) + "\n", (out + ".manifest.json", manifest))
    click.echo(f"wrote {out} ({n_samples} samples, seed {seed})")


@main.command()
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def allocation(out) -> None:
    """Emit the production allocation table: an audit copy that
    census.parse_allocation reads back."""
    _write_text(out, census.emit_allocation(census.production_table()))


@main.group()
def odometer() -> None:
    """Budget odometer over a text ledger file.

    Commands that change a ledger hold an exclusive lock on the sidecar
    file LEDGER.lock for the whole read-modify-write, and replace the
    ledger whole, so concurrent registrations never lose a spend and a
    reader never sees half a ledger.
    """


@contextmanager
def _ledger_lock(path: str) -> Iterator[None]:
    try:
        fh = open(path + ".lock", "a")
    except OSError as exc:
        click.echo(f"error: cannot lock {path}: {exc}", err=True)
        sys.exit(3)
    with fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def _write_ledger(path: str, text: str) -> None:
    # ledger paths are state files, used verbatim on read and write alike,
    # so the $DPSEM_OUT_DIR convention does not apply; the caller holds
    # the ledger lock, which makes the temp file name its own
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.unlink(tmp)
        click.echo(f"error: cannot write {path}: {exc}", err=True)
        sys.exit(3)
    # the rename survives a crash only once the directory is on disk; past
    # the rename the ledger holds the change, so the error must not invite
    # a retry that would charge a spend twice
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        click.echo(
            f"error: cannot sync the directory of {path}: {exc}; "
            "the ledger already holds this change, so do not repeat it",
            err=True,
        )
        sys.exit(3)


@odometer.command("init")
@click.option("--cap", required=True)
@click.option("--ledger", type=click.Path(dir_okay=False), required=True)
def odometer_init(cap, ledger) -> None:
    try:
        odo = accountants.Odometer(Fraction(cap))
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"bad cap {cap!r}", param_hint="'--cap'")
    with _ledger_lock(ledger):
        if os.path.exists(ledger):
            try:
                text = Path(ledger).read_text(encoding="utf-8")
                held = accountants.Odometer.from_ledger_text(text)
            except ValueError as exc:
                raise click.UsageError(f"{ledger} is not a ledger, so init leaves it: {exc}")
            if held.entries:
                raise click.UsageError(f"{ledger} holds registered spends, so init leaves it")
        _write_ledger(ledger, odo.to_ledger_text())


@odometer.command("register")
@click.argument("label")
@click.argument("rho")
@click.option("--ledger", type=click.Path(dir_okay=False, exists=True), required=True)
def odometer_register(label, rho, ledger) -> None:
    with _ledger_lock(ledger):
        odo = accountants.Odometer.from_ledger_text(Path(ledger).read_text(encoding="utf-8"))
        try:
            spend = Fraction(rho)
        except (ValueError, ZeroDivisionError):
            raise click.BadParameter(f"bad rho {rho!r}", param_hint="'RHO'")
        try:
            remaining = odo.register(label, spend)
        except accountants.BudgetExceededError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(2)
        _write_ledger(ledger, odo.to_ledger_text())
    click.echo(f"registered {label}: remaining budget {float(remaining):g}")


@odometer.command("show")
@click.option("--ledger", type=click.Path(dir_okay=False, exists=True), required=True)
def odometer_show(ledger) -> None:
    odo = accountants.Odometer.from_ledger_text(Path(ledger).read_text(encoding="utf-8"))
    click.echo(odo.to_ledger_text(), nl=False)
    click.echo(f"# spent {float(odo.spent):g}, remaining {float(odo.remaining):g}")


@main.group()
def convert() -> None:
    """Ad-hoc conversions between accounting frameworks."""


@convert.command("zcdp-delta")
@click.option("--rho", type=FINITE, required=True)
@click.option("--eps", type=FINITE, required=True)
def convert_zcdp_delta(rho, eps) -> None:
    click.echo(repr(accountants.zcdp_to_delta(rho, eps)))


@convert.command("pbdp-eps")
@click.option("--mu", type=FINITE, default=None)
@click.option("--rho", type=FINITE, default=None)
@click.option("--delta", type=FINITE, required=True)
def convert_pbdp_eps(mu, rho, delta) -> None:
    click.echo(repr(accountants.gaussian_pbdp_epsilon(_mu_from(mu, rho), delta)))


def run() -> None:
    """Entry point with the documented exit-code contract."""
    try:
        main.main(standalone_mode=True)
    except OSError as exc:  # pragma: no cover - exercised via _write_text
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(3)
    except AssertionError as exc:  # pragma: no cover
        click.echo(f"internal invariant violated: {exc}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    run()
