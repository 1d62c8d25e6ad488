import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.register_assert_rewrite("compare_cli")

import compare_cli
from s4bell import OrbitPair, standard_context, tables

SRC = Path(__file__).resolve().parent.parent / "src"
DIMS = [tables.COMPONENT_DIMS[label] for label in tables.COMPONENT_ORDER]


@pytest.fixture(scope="session")
def ctx():
    return standard_context()


@pytest.fixture(scope="session")
def group(ctx):
    return ctx.group


@pytest.fixture(scope="session")
def rep(ctx):
    return ctx.rep


@pytest.fixture(scope="session")
def product(ctx):
    return ctx.product


@pytest.fixture(scope="session")
def projectors(ctx):
    return ctx.projectors


@pytest.fixture(scope="session")
def orbit(ctx):
    return ctx.orbit


@pytest.fixture(scope="session")
def case_pairs():
    return {
        name: tuple(OrbitPair(*p) for p in tables.CASE_PAIRS[name])
        for name in tables.CASE_NAMES
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def row_of(group, images):
    """Row of the one-line images `images` in a group array."""
    return group.tolist().index(list(images))


def spectrum_of_components(values):
    """Component eigenvalues in tables.COMPONENT_ORDER, each repeated by its dimension, sorted
    descending: the spectrum of an operator that is one scalar on each component."""
    return np.sort(np.repeat(values, DIMS))[::-1]


def random_unit(rng, dim=3):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def fresh_python(args, run=subprocess.run, **kwargs):
    """`run` (subprocess.run or Popen) of this Python on `args`, importing s4bell from this tree."""
    return run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs)


def run_cli(argv):
    """(exit code, stdout) of `cli.main(argv)` in this process."""
    return compare_cli.run(argv)[:2]
