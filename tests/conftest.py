"""Shared fixtures: the three bundled expert relations."""
import pytest

from shared import M1_ROWS, M2_ROWS, M3_ROWS, build


@pytest.fixture(scope="session")
def m1():
    return build(M1_ROWS)


@pytest.fixture(scope="session")
def m2():
    return build(M2_ROWS)


@pytest.fixture(scope="session")
def m3():
    return build(M3_ROWS)


@pytest.fixture(scope="session")
def experts(m1, m2, m3):
    return (m1, m2, m3)
