"""Subprocess helpers for loopback fleets (tests, benchmarks, examples).

A launched worker is a real ``repro worker`` daemon in its own process —
the SIGKILL-able kind the chaos tests need — bound to an ephemeral
loopback port it announces on stdout.
"""

from __future__ import annotations

import os
import re
import selectors
import subprocess
import sys
import time

from repro.utils.errors import ConfigurationError

_ANNOUNCE = re.compile(r"repro worker listening on (\S+:\d+)")


def launch_worker(*, listen: str = "127.0.0.1:0", env: dict | None = None,
                  timeout: float = 30.0) -> tuple[subprocess.Popen, str]:
    """Start one daemon; returns ``(process, "host:port")`` once it's up."""
    cmd = [sys.executable, "-m", "repro", "worker", "--listen", listen]
    run_env = dict(os.environ if env is None else env)
    # The daemon needs the same import path as its launcher.
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = run_env.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        run_env["PYTHONPATH"] = f"{src}{os.pathsep}{path}" if path else src
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=run_env)
    # Wait on the pipe, never in a blocking read: a daemon that prints
    # nothing must not hold the launcher past ``timeout``.
    deadline = time.monotonic() + timeout
    output = ""
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break  # the daemon exited
            output += chunk.decode(errors="replace")
            match = _ANNOUNCE.search(output)
            if match:
                return proc, match.group(1)
    proc.kill()
    proc.wait()
    proc.stdout.close()
    last = output.strip().splitlines()[-1:] or [""]
    raise ConfigurationError(
        f"worker daemon did not announce its address within {timeout} s "
        f"(last output: {last[0]!r})")


def stop_worker(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a launched daemon, escalating to SIGKILL if it lingers."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
