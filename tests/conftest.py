import numpy as np
import pytest

from bifrb.model import make_model


def stiffness_matrix(m):
    """Dense P1 stiffness matrix int phi_i' phi_j' dx on m interior nodes, the
    reference X of tests that check the banded products and solves."""
    h = 1.0 / (m + 1)
    return (np.diag(np.full(m, 2.0 / h))
            + np.diag(np.full(m - 1, -1.0 / h), 1)
            + np.diag(np.full(m - 1, -1.0 / h), -1))


@pytest.fixture(scope="session")
def bratu():
    return make_model("bratu", mesh_size=101)


@pytest.fixture(scope="session")
def chafee():
    return make_model("chafee", mesh_size=101)


@pytest.fixture(scope="session")
def bratu_fine():
    return make_model("bratu", mesh_size=201)


@pytest.fixture(scope="session")
def chafee_fine():
    return make_model("chafee", mesh_size=201)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion verdict lines after the run so they survive
    output capture."""
    import sys

    module = sys.modules.get("tests.test_acceptance") \
        or sys.modules.get("test_acceptance")
    if module is None:
        return
    lines = getattr(module, "VERDICTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
