"""Shared settings for the service test modules.

``REPRO_SERVICE_BACKEND=serial|process|fleet`` pins the backend that the
parametrized service tests run on (the CI matrix runs one backend per
job; ``fleet`` also needs ``REPRO_FLEET_WORKERS``); unset, they cover
serial and process.  Modules import the tuple with ``from conftest
import BACKENDS_UNDER_TEST``.
"""

import os

ALL_BACKENDS = ("serial", "process")
_PINNED = os.environ.get("REPRO_SERVICE_BACKEND")
BACKENDS_UNDER_TEST = (_PINNED,) if _PINNED else ALL_BACKENDS
