import numpy as np
import pytest

from lqbundle.frequency import QuadraticFormTriple
from lqbundle.spectral import make_spectral_model
from lqbundle.spatial import Driver, SAConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def s1():
    """The scalar closed-form instance A=-2, B=1, F1=-1, F2=0, F3=1."""
    a = np.array([[-2.0]])
    b = np.array([[1.0]])
    form = QuadraticFormTriple(f1=[[-1.0]], f2=[[0.0]], f3=[[1.0]])
    return a, b, form


@pytest.fixture(scope="session")
def sa_standard():
    """lambda_j = j^2, Lambda = delta = 1, k = 3, N = 2 at truncation 8."""
    model = make_spectral_model([float(j * j) for j in range(1, 9)])
    return SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)


@pytest.fixture(scope="session")
def sa_driver(sa_standard):
    """a(t) = 1.5 + 0.5 sin t."""
    driver = Driver(c0=1.5, amplitudes=np.array([0.5]), omegas=np.array([1.0]))
    sa_standard.check_driver(driver)
    return driver
