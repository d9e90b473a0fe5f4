import os
import subprocess
import sys

import numpy as np
import pytest

import sgsim
from sgsim import Apparatus, GaussianPacket


@pytest.fixture
def default_apparatus() -> Apparatus:
    """Geometry with kick strength kappa = 10: a clean two-humped split."""
    return Apparatus(y_a=0.0, y_b=5.0, y_c=6.0, y_d=26.0, grad_Bz=100.0)


@pytest.fixture
def impulsive_apparatus() -> Apparatus:
    """Short interaction region (0.5% of the flight time), moderate kick."""
    return Apparatus(y_a=0.0, y_b=4.975, y_c=5.025, y_d=10.0, grad_Bz=200.0)


@pytest.fixture
def default_packet() -> GaussianPacket:
    return GaussianPacket()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this sgsim; return
    its stdout."""
    src = os.path.dirname(os.path.dirname(sgsim.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(source: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", source], env=env, capture_output=True, text=True,
            check=True,
        ).stdout

    return run
