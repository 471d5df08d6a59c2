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


@pytest.fixture(autouse=True)
def session_models_stay_clean(request):
    """Fail a test that leaves a new instance attribute on a session model it
    used (`monkeypatch.setattr` on an instance restores a method as one), and
    remove the attribute, so that no later test sees it."""
    names = [n for n in ("bratu", "chafee", "bratu_fine", "chafee_fine")
             if n in request.fixturenames]
    before = {n: set(vars(request.getfixturevalue(n))) for n in names}
    yield
    for n in names:
        model = request.getfixturevalue(n)
        if left := set(vars(model)) - before[n]:
            for attr in left:
                delattr(model, attr)
            pytest.fail(f"test left {sorted(left)} on the session model {n!r}")


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
