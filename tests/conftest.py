import pytest
from hypothesis import settings

from twoslab.basis import build_basis
from twoslab.core import Material, SlabSystem, uniform_grid

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def sys_cm():
    """Copper (left) / molybdenum (right) reference system."""
    return SlabSystem(
        b=5.0,
        a=3.0,
        mat_b=Material(K=3.42, kappa=0.838),
        mat_a=Material(K=1.05, kappa=0.339),
    )


@pytest.fixture(scope="session")
def sys_explicit():
    """Unit-parameter system; frequencies are exactly k*pi/(a+b)."""
    return SlabSystem(
        b=5.0,
        a=3.0,
        mat_b=Material(K=1.0, kappa=1.0),
        mat_a=Material(K=1.0, kappa=1.0),
    )


@pytest.fixture(scope="session")
def sys_stiff():
    """Admissible but stiff: rho = 1.4e-6, roots as close as 0.017 at 400 modes."""
    return SlabSystem(
        b=1.0,
        a=7.0,
        mat_b=Material(K=100.0, kappa=0.01),
        mat_a=Material(K=0.01, kappa=50.0),
    )


@pytest.fixture(scope="session")
def sys_2d():
    """Unit square plates, same materials as the reference system."""
    return SlabSystem(
        b=1.0,
        a=1.0,
        c=1.0,
        mat_b=Material(K=3.42, kappa=0.838),
        mat_a=Material(K=1.05, kappa=0.339),
    )


@pytest.fixture(scope="session")
def basis_cm(sys_cm):
    return build_basis(sys_cm, 8)


@pytest.fixture(scope="session")
def basis_cm_20(sys_cm):
    return build_basis(sys_cm, 20)


@pytest.fixture(scope="session")
def basis_explicit(sys_explicit):
    return build_basis(sys_explicit, 12)


@pytest.fixture(scope="session")
def grid_cm(sys_cm):
    return uniform_grid(sys_cm, 40)


@pytest.fixture
def solved_plates():
    """The spectra ``find_modes_2d`` keeps, emptied before and after the test.

    A test that counts or spies on the solve needs its call to solve, and a
    spectrum solved under one test's monkeypatch must not reach the next.
    """
    from twoslab.bilayer2d import _solved

    _solved.clear()
    yield _solved
    _solved.clear()
