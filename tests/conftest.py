"""Suite-wide setup: every test runs on one BLAS thread, as each experiment
run does."""

import pytest

from fermiflow import experiments


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Pin the scipy-openblas that numpy loaded to one thread for the whole
    session, and restore the count at its end. After a threaded product an
    OpenBLAS worker busy-waits, so a suite on the default count burns a
    second core, and no test operand runs faster on two threads. Tests that
    set their own count restore this one."""
    with experiments._one_blas_thread():
        yield
