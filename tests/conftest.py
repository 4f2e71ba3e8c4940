"""Shared fixtures: the two exact toy datasets and a seeded random deck."""

import os
from pathlib import Path

import numpy as np
import pytest

from moransar.spatial_data import RawSizeVector
from moransar.verification import random_instance

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# pytest puts src/ on this process's path (pyproject's pythonpath); the
# CLI tests' subprocesses need it in their environment as well
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH")))
)

# two sites at distance 2, sizes 1 and 3: I = -1, rho = -2, R2 = 1
TWO_SITE_SIZES = [1.0, 3.0]
TWO_SITE_DIST = [[0.0, 2.0], [2.0, 0.0]]

# three sites on a line, unit spacing, sizes 1, 2, 3: I = -0.3, rho = -10
CHAIN_SIZES = [1.0, 2.0, 3.0]
CHAIN_DIST = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


@pytest.fixture
def two_site():
    return RawSizeVector.from_values(TWO_SITE_SIZES), np.array(TWO_SITE_DIST)


@pytest.fixture
def chain():
    return RawSizeVector.from_values(CHAIN_SIZES), np.array(CHAIN_DIST)


@pytest.fixture
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def deck():
    """First 30 instances of the seed-0 random deck, precomputed."""
    return [random_instance(0, k) for k in range(30)]


@pytest.fixture
def far_clusters():
    """Eight sites in two 4-site clusters, in-cluster distances U(0.5, 3)
    and every cross distance 1e170: W's cross weights are ~1e-170, so the
    squares of a Householder column of them underflow to zero."""
    rng = np.random.default_rng(170)
    dist = np.full((8, 8), 1e170)
    for block in (slice(0, 4), slice(4, 8)):
        inner = np.triu(rng.uniform(0.5, 3.0, size=(4, 4)), k=1)
        dist[block, block] = inner + inner.T
    return RawSizeVector.from_values(rng.uniform(1.0, 10.0, size=8)), dist
