"""Shared fixtures.

Fast unit tests use the tiny task; the empirical acceptance checks share one
session-scoped bundle of fully trained teachers and students (three seeds)
so the expensive runs happen exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import pytest

from distilab.cli import _fix_malloc_thresholds
from distilab.data import Dataset, make_mixture
from distilab.distill import DistillConfig, train_student
from distilab.nets import MLP, ModelSpec, average_rank_one
from distilab.optim import OptimConfig, steps_per_epoch, train_teachers

DEFAULT_TASK = dict(num_classes=3, dim=2, n_per_class=500, spread=0.6, seed=7)
ACCEPT_SEEDS = (0, 1, 2)


@pytest.fixture(scope="session", autouse=True)
def malloc_thresholds():
    """The heap settings ``cli.main`` makes, so training called from the tests
    reuses its freed temporaries instead of page-faulting them in again."""
    _fix_malloc_thresholds()


@pytest.fixture(scope="session")
def default_task():
    return make_mixture(**DEFAULT_TASK)


@pytest.fixture(scope="session")
def tiny_task():
    return make_mixture(3, 2, 60, 0.6, seed=5)


@pytest.fixture(scope="session")
def tiny_spec():
    return ModelSpec(2, 3, (16, 16))


@pytest.fixture(scope="session")
def tiny_optim():
    return OptimConfig(epochs=8, warmup_epochs=2, batch_size=32, seed=0)


@pytest.fixture(scope="session")
def tiny_teachers(tiny_task, tiny_spec, tiny_optim):
    train, _, _ = tiny_task
    return train_teachers(tiny_spec, train, 2, tiny_optim)


@dataclass
class SeedRun:
    teachers: MLP
    be_student: MLP
    latent_avg_none: MLP
    latent_be_none: MLP
    latent_avg_tdiv: MLP
    latent_be_tdiv: MLP
    mid_snapshot: MLP


@dataclass
class Bundle:
    train: Dataset
    val: Dataset
    test: Dataset
    spec: ModelSpec
    runs: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def bundle(default_task) -> Bundle:
    """Teachers plus all three student variants, trained at the default
    desk-scale settings for each acceptance seed."""
    train, val, test = default_task
    spec = ModelSpec(2, 3, (64, 64))
    out = Bundle(train, val, test, spec)
    for seed in ACCEPT_SEEDS:
        optim = OptimConfig(seed=seed)
        cfg = DistillConfig(num_teachers=2, method="latentbe", optim=optim)
        teachers = train_teachers(spec, train, 2, optim)

        be_student = train_student(teachers, spec, train, replace(cfg, method="be"))

        lbe_none = train_student(teachers, spec, train, cfg)

        snap: dict = {}
        half = cfg.optim.epochs * steps_per_epoch(len(train), cfg.optim.batch_size) // 2

        def hook(step, student, _snap=snap, _half=half):
            if step == _half:
                _snap["model"] = student[range(len(student))]

        cfg_tdiv = replace(cfg, perturbation="tdiv_sdiv")
        lbe_tdiv = train_student(teachers, spec, train, cfg_tdiv, step_hook=hook)
        avg_none, avg_tdiv = average_rank_one(lbe_none), average_rank_one(lbe_tdiv)
        out.runs[seed] = SeedRun(teachers, be_student, avg_none, lbe_none,
                                 avg_tdiv, lbe_tdiv, snap["model"])
    return out
