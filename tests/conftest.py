import sys

import numpy as np
import pytest
import scipy.linalg

from quadshape.geometry import Curve, MetricParams
from quadshape.potential import Disk, SourceTerm
from quadshape.shape import solve_state

TWO_PI = 2.0 * np.pi


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion whenever that module ran."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(k for k in results if isinstance(k, int)):
        entry = results[num]
        status = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(
            f"criterion {num} [{status}] {entry['label']}: {entry['detail']}")


@pytest.fixture(scope="session")
def centered_source():
    """Mass 2*pi*k*R with k = R = 1: the unit disk is critical for it."""
    return SourceTerm((Disk(0.0, 0.0, 0.1, TWO_PI),))


@pytest.fixture(scope="session")
def critical_state(centered_source):
    return solve_state(Curve.circle(1.0, n=256), centered_source, 1.0)


@pytest.fixture(scope="session")
def ellipse_state(centered_source):
    return solve_state(Curve.ellipse(1.2, 0.8, n=128), centered_source, 1.0)


@pytest.fixture(scope="session")
def unit_params():
    return MetricParams(A=1.0, k=1.0)


@pytest.fixture
def dense_solve_orders(monkeypatch):
    """Orders of the matrices given to the dense ``scipy.linalg.eigh``
    during the test, in call order."""
    orders = []
    eigh = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        orders.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    return orders
