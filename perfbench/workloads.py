"""Workload definitions and the seeded test-parameter stream.

A workload fixes a problem family, its resolution and tolerances (as
overrides of ``ctrlrom.experiment.default_config``) and the number of test
parameters answered per round.  The seed only drives the test stream: the
training grid is the family's tensor grid and does not depend on it.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    overrides: dict = field(default_factory=dict)
    test_count: int = 5


WORKLOADS = {
    # paper scale; sweep-bound: training-set operator images dominate the greedy
    "heat-paper": Workload(
        name="heat-paper",
        family="heat",
        overrides=dict(n_y=100, T=0.1, steps_per_point=30, train_grid=(8, 8),
                       tolerance=1e-6, cg_tol=1e-12),
        test_count=5,
    ),
    # reduced resolution; CG-bound: 290-700 iterations per exact solve
    "wave-cg": Workload(
        name="wave-cg",
        family="wave",
        # greedy tolerance 1e-2 converted into the weighted norm: 1e-2 / sqrt(h)
        overrides=dict(n_y=40, T=1.0, steps_per_point=10, train_grid=(25,),
                       tolerance=1e-2 * math.sqrt(41), cg_tol=1e-9, cg_max_iter=8000),
        test_count=7,
    ),
}


def tiny(workload):
    """The same workload at n_y=8 with cheap surrogate fits, for the self-test."""
    n_y = 8
    overrides = dict(workload.overrides, n_y=n_y, mlp_restarts=1, gpr_restarts=2)
    if workload.family == "wave":
        overrides.update(train_grid=(9,), tolerance=1e-2 * math.sqrt(n_y + 1))
    else:
        # a looser tolerance keeps the basis below the state dimension
        overrides.update(train_grid=(5, 5), tolerance=1e-4)
    return replace(workload, name=workload.name + "-tiny", overrides=overrides, test_count=2)


def config_for(workload):
    from ctrlrom import experiment

    return replace(experiment.default_config(workload.family), **workload.overrides).validate()


def test_parameters(domain, count, seed):
    """Latin-hypercube test parameters: one per stratum along every axis.

    Each axis of the parameter box is cut into ``count`` equal strata; every
    stratum holds exactly one test parameter, jittered uniformly inside it,
    and the strata are paired across axes by a seeded permutation.  The
    points are continuous draws, so none coincides with a training-grid
    node.
    """
    rng = np.random.default_rng(seed)
    lows, highs = np.asarray(domain.lows), np.asarray(domain.highs)
    points = np.empty((count, lows.shape[0]))
    for axis in range(lows.shape[0]):
        strata = rng.permutation(count) if axis else np.arange(count)
        points[:, axis] = (strata + rng.uniform(size=count)) / count
    return [lows + (highs - lows) * p for p in points]
