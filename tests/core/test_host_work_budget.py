"""Host-work ceiling of the request path: Python calls per remote request.

Events per request are pinned in ``test_event_budget.py``; this caps the
host work around them.  It counts every Python frame the program enters
(a call, or a generator resumed) whose code lives in the ``repro``
package, comprehensions excluded, over steady-state remote Sobel requests
on an idle board.  The count is deterministic, so the ceiling has no
slack: a change that adds a hop on the request path fails it.

Re-pinning: a change that cuts the count lowers ``SOBEL_REQUEST_CALLS``
to the new count (print ``sobel_request_calls()``); one that must raise it
sets it to the count the failure reports and gives the reason in its
notes.  The count depends on the interpreter's frame events, so the test
runs only on CPython 3.11, the interpreter CI uses.
"""

import os
import platform
import sys

import pytest

import repro
from repro.cluster import build_testbed
from repro.core.remote_lib import remote_platform
from repro.serverless import SobelApp
from repro.sim import Environment

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != (3, 11),
    reason="the call count is pinned for CPython 3.11, CI's interpreter",
)

#: Python calls into ``repro`` code per full-HD remote Sobel request
#: (write, kernel, blocking read over shared memory).
SOBEL_REQUEST_CALLS = 409

#: Steady-state requests counted after a warm-up request.
REQUESTS = 3

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def count_calls(run) -> int:
    """Python frames entered in ``repro`` code while ``run()`` runs."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and code.co_name not in _COMPREHENSIONS):
                calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def sobel_request_calls():
    """Calls of each of ``REQUESTS`` remote Sobel requests, after one
    warm-up request."""
    env = Environment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    app = SobelApp()

    def setup():
        platform = yield from remote_platform(
            env, "fn-1", testbed.network.host("B"), testbed.managers["dm-B"],
            testbed.network, testbed.library,
        )
        yield from app.setup(env, platform, None)

    env.run(until=env.process(setup()))
    env.run()

    def request():
        env.process(app.handle(None))
        env.run()

    request()
    return [count_calls(request) for _ in range(REQUESTS)]


def test_remote_sobel_request_host_work():
    calls = sobel_request_calls()
    assert calls == [calls[0]] * REQUESTS  # steady state, deterministic
    assert calls[0] <= SOBEL_REQUEST_CALLS
