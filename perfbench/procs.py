"""Subprocess helpers shared by run.py, worker.py and the cli-cache workload."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def child_env() -> dict:
    """Environment for every child: the checkout's ``src`` first on the path
    and a fixed hash seed, so that set iteration order is the same in every
    run."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run(argv: list[str], timeout: float, env: dict | None = None) -> tuple[int, str, str]:
    """Run to completion in its own process group; on timeout the whole group
    (pool workers included) is killed and reaped.  Returns (code, out, err)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env or child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, f"timed out after {timeout:.0f} s\n{err}"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err
