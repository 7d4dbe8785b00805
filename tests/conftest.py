"""Shared fixtures: the three bundled expert relations."""
import warnings

import pytest

# On a failing example, hypothesis' pytest plugin imports this module to
# suggest a patch. Its libcst import warns DeprecationWarning from
# mypy_extensions, which the error filters would turn into an
# INTERNALERROR that ends the session and loses the falsifying example.
# Import it once here with that third-party warning silenced; the filters
# on everything else stay as they are.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional
        pass

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
