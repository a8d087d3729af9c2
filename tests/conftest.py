import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from dpsemantics import FiniteMechanismPair, census, dgauss
from dpsemantics.dgauss import EmpiricalRoc

MC_SEED = 20210812
MC_SAMPLES = 1_000_000


class TimedRoc(NamedTuple):
    roc: EmpiricalRoc
    seconds: float


def _timed_roc(queries) -> TimedRoc:
    start = time.perf_counter()
    roc = dgauss.mc_roc(queries, MC_SAMPLES, MC_SEED)
    return TimedRoc(roc, time.perf_counter() - start)


@pytest.fixture(scope="session")
def production_table():
    return census.production_table()


@pytest.fixture(scope="session")
def mc_production_timed(production_table) -> TimedRoc:
    return _timed_roc(dgauss.affected_queries_from_table(production_table))


@pytest.fixture(scope="session")
def mc_scenario_a_timed(production_table) -> TimedRoc:
    scenario = census.builtin_scenario("A")
    return _timed_roc(dgauss.affected_queries_from_table(production_table, scenario))


@pytest.fixture(scope="session")
def mc_production(mc_production_timed) -> EmpiricalRoc:
    return mc_production_timed.roc


@pytest.fixture(scope="session")
def mc_scenario_a(mc_scenario_a_timed) -> EmpiricalRoc:
    return mc_scenario_a_timed.roc


@pytest.fixture(scope="session")
def geometric_pair():
    """Factory: eps -> (pair, truncated mass) for a two-sided-geometric
    noisy count on a change-one query.

    The pmf (1-a)/(1+a) a^|k| with a = e^-eps, and its shift by one for the
    neighbor, are both evaluated on k in [-K, K+1] with a^(K+1) < 1e-13;
    the truncated mass is what that window drops from the first neighbor.
    """

    def make(eps: float) -> tuple[FiniteMechanismPair, float]:
        a = math.exp(-eps)
        k_max = math.ceil(30.0 / eps)
        ks = range(-k_max, k_max + 2)
        norm = (1.0 - a) / (1.0 + a)
        p1 = tuple(norm * a ** abs(k) for k in ks)
        p2 = tuple(norm * a ** abs(k - 1) for k in ks)
        pair = FiniteMechanismPair(tuple(str(k) for k in ks), p1, p2)
        return pair, 1.0 - math.fsum(p1)

    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)
