"""Fixtures shared across the test modules."""

import multiprocessing
import multiprocessing.forkserver

import pytest


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request):
    """Run the test's pools under each start method, then restore the default.

    A method the platform lacks is skipped.  Under ``forkserver`` the
    server is started here, before the test sets any chaos variable, so
    its workers can only learn about chaos from the job payload, never
    from an environment inherited at server start.
    """
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    if method == "forkserver":
        multiprocessing.forkserver.ensure_running()
    try:
        yield method
    finally:
        multiprocessing.set_start_method(previous, force=True)
