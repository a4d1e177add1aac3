"""What every workload shares: the checkout layout, the environment
fingerprint, the host-speed probe, process clean-up and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The benchmark runs from the root of a checkout; the program is its
#: ``src/`` tree.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space of one run, inside the checkout (removed at exit).
WORK_PARENT = ROOT / ".repobench_work"


#: Every process of a run (this one, the plan children, the service and
#: its workers) runs its BLAS on one thread. The matrices here are small;
#: on a shared 2-CPU host, threads that spin-wait on one another made a
#: cold plan 2.3x slower and its time scatter by a quarter from run to run.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_blas_threads():
    """Set :data:`BLAS_THREADS` in the environment; call before numpy is
    imported. Subprocesses inherit it."""
    os.environ.update(BLAS_THREADS)


class CheckoutError(RuntimeError):
    """The working directory is not a checkout of the program."""


def check_checkout():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"{SRC / 'repro'} not found: run from the root of a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra):
    """Environment for subprocesses: the checkout's ``src`` and root first
    on ``PYTHONPATH`` (the benchmark package lives at the root)."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.update(extra)
    return env


def make_workdir(name):
    path = WORK_PARENT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_PARENT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# ---------------------------------------------------------------------- #
# Environment fingerprint
# ---------------------------------------------------------------------- #
def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs so far, from ``/proc/stat``
    (``None`` where it cannot be read)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    ticks = [int(field) for field in fields]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings, in %."""
    if before is None or after is None or after[1] <= before[1]:
        return "unknown"
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def host_probe_ms():
    """Fixed pure-Python work (no numpy, no I/O), best of three, in ms:
    a slow reading flags a run made while the shared host was slow."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint():
    """``{field: value}`` describing the host and toolchain of this run."""
    import numpy as np
    import scipy

    try:
        loadavg = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        loadavg = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg": loadavg,
        "host_probe_ms": round(host_probe_ms(), 2),
    }


def info(label, **fields):
    """One informational report line (never the result line)."""
    rendered = " ".join(f"{key}={value}" for key, value in fields.items())
    print(f"# {label}: {rendered}", flush=True)


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(process, timeout=30.0):
    """Stop a process started with ``start_new_session=True`` and every
    process of its session, and wait until they have ended.

    SIGINT goes to the leader only (``repro serve`` drains and joins its
    own workers); whatever is still alive after ``timeout`` (leader) or two
    more seconds (other members) is killed."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + 2.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        if process.poll() is None:
            break
        time.sleep(0.02)
    if _group_alive(process.pid):
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()
    deadline = time.monotonic() + 10.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        time.sleep(0.02)


def peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------- #
# The result line
# ---------------------------------------------------------------------- #
class GateFailure(RuntimeError):
    """The program's outputs failed a correctness check."""


def result_line(correct, attempted, failed, metrics):
    """The last line of standard output. ``metrics`` maps a name to
    ``(value, unit)``; a run that failed its gate carries none."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)
