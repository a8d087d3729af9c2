#!/usr/bin/env python3
"""The closed forms behind the checked outputs, through scipy.stats.norm.

Runs as a child process of the benchmark: it reads a JSON list of
requests ``[formula, *params, xs]`` from standard input and writes the
JSON list of their values to standard output.  scipy.stats is loaded
only here, never in the measuring process, whose peak RSS is a metric.

    echo '[["power", 2.0, [0.01, 0.05]]]' | python3 bench/reference.py
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.stats import norm


def gaussian_power(mu: float, level):
    level = np.asarray(level, dtype=float)
    inner = 1.0 - norm.cdf(norm.ppf(1.0 - level) - mu)
    return np.where(level == 0.0, 0.0, np.where(level == 1.0, 1.0, inner))


def gaussian_pbdp_eps(mu: float, delta):
    delta = np.asarray(delta, dtype=float)
    denom = norm.cdf(norm.ppf(delta) - mu)
    with np.errstate(divide="ignore"):
        return np.where(denom == 0.0, np.inf, np.log(delta / denom))


def closed_form_curve(kind: str, rho: float, xs) -> np.ndarray:
    """The formula behind each closed-form ``dpsem curve`` kind."""
    x = np.asarray(xs, dtype=float)
    mu = math.sqrt(2.0 * rho)
    with np.errstate(over="ignore"):
        if kind == "adp-gaussian":
            raw = norm.cdf(-x / mu + mu / 2.0) - np.exp(x) * norm.cdf(-x / mu - mu / 2.0)
            return np.clip(raw, 0.0, 1.0)
        if kind == "pbdp-gaussian":
            return gaussian_pbdp_eps(mu, x)
        if kind in ("zcdp-bound", "bayes-arbitrary"):
            return np.where(x <= rho, 1.0, np.exp(-((x - rho) ** 2) / (4.0 * rho)))
        if kind == "bayes-known-rest":
            return np.where(x <= rho, 1.0, np.minimum(1.0, np.exp(-((x + rho) ** 2) / (4.0 * rho))))
        if kind == "tradeoff-pure":
            eps = mu
            return np.minimum(1.0, np.minimum(math.exp(eps) * x, 1.0 - math.exp(-eps) * (1.0 - x)))
        if kind == "tradeoff-gaussian":
            return gaussian_power(mu, x)
    raise ValueError(f"no reference for {kind}")


FORMULAS = {"power": gaussian_power, "pbdp_eps": gaussian_pbdp_eps, "curve": closed_form_curve}


def main() -> int:
    requests = json.load(sys.stdin)
    json.dump([np.asarray(FORMULAS[f](*args), dtype=float).tolist() for f, *args in requests],
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
