"""Plumbing shared by the workloads: environment, run directories,
child processes, statistics and the result line."""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

#: one BLAS thread per process: with OpenBLAS's default (one thread per
#: core) the daemon's start-up spread over 2.67-3.42 s on a 2-core
#: machine, with one thread over 1.78-1.94 s
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: one string-hash seed for every program process: with a random one,
#: five scans of one chip, each in a new process, spread their re-scan
#: medians over 541-626 ms; with a fixed one over 505-561 ms
HASH_ENV = {"PYTHONHASHSEED": "0"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-run temporary roots live here and are removed when the run ends
RUNS_DIR = ROOT / ".perfbench-runs"
#: Chrome trace files of traced runs (kept for inspection)
TRACE_DIR = ROOT / ".perfbench-traces"

#: the console-script entry point of the program (``repro = repro.cli:main``)
REPRO_MAIN = "import sys; from repro.cli import main; sys.exit(main())"


def pin_blas_threads() -> None:
    """Apply :data:`BLAS_ENV` to this process; call before NumPy loads
    (child processes get it through :meth:`RunDir.env`)."""
    os.environ.update(BLAS_ENV)


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (not a failed operation)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compile_source() -> None:
    """Byte-compile the program once per checkout, so that no run pays
    for compilation inside its set-up time (a no-op when up to date)."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stderr.strip()}")


class RunDir:
    """One run: a fresh temporary root for all on-disk state (the
    program's cache ``REPRO_CACHE_DIR``, checkpoints, scan state, model
    files, logs) and the program processes started in it.  Closing it
    kills and reaps every process still running, then removes the
    root."""

    def __init__(self) -> None:
        RUNS_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
        (self.path / "tmp").mkdir()
        self._children: list[Child] = []

    def sub(self, name: str) -> Path:
        return self.path / name

    def env(self) -> dict:
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONPATH"
        }
        env.update(BLAS_ENV)
        env.update(HASH_ENV)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_CACHE_DIR"] = str(self.path / "cache")
        env["TMPDIR"] = str(self.path / "tmp")
        return env

    def spawn(self, argv: list[str], log: str) -> "Child":
        """Start a program process with :meth:`env`, logging to ``log``
        in the run root."""
        child = Child(argv, self.env(), self.path / log)
        self._children.append(child)
        return child

    def close(self) -> None:
        for child in self._children:
            if child.returncode is None:
                child.signal(signal.SIGKILL)
                try:
                    child.wait(10.0)
                except BenchError:
                    pass
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Child:
    """One program process.

    Its output is copied line by line, with arrival times, into a log
    file by a reader thread that reads until end of file: the pipe is
    never closed under a live process (a daemon whose stdout pipe closes
    ends its SIGTERM drain in ``BrokenPipeError``).  Readiness is taken
    from a printed line, never from polling a port.  The exit status and
    peak RSS come from ``wait4``.
    """

    def __init__(self, argv: list[str], env: dict, log: Path) -> None:
        self.log_path = log
        #: (arrival time, CPU seconds used by then, line)
        self.lines: list[tuple[float, float | None, str]] = []
        self._cond = threading.Condition()
        self._eof = False
        self.returncode: int | None = None
        self.ended: float | None = None
        self.maxrss_mb: float | None = None
        self.cpu_total: float | None = None
        self._log = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, env=env, cwd=str(ROOT), text=True,
            bufsize=1,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def cpu_seconds(self) -> float | None:
        """CPU time (user + system, all threads) the process has used."""
        return process_cpu(self.proc.pid)

    def _read(self) -> None:
        for line in self.proc.stdout:
            now = time.perf_counter()
            cpu = self.cpu_seconds()
            self._log.write(line)
            with self._cond:
                self.lines.append((now, cpu, line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def wait_line(self, prefix: str,
                  timeout: float) -> tuple[float, float, str]:
        """``(arrival time, CPU seconds used by then, line)`` of the
        first line starting with ``prefix``; raises :class:`BenchError`
        if the process ends or ``timeout`` passes first."""
        deadline = time.perf_counter() + timeout
        seen = 0
        with self._cond:
            while True:
                for entry in self.lines[seen:]:
                    if entry[2].startswith(prefix):
                        return entry
                seen = len(self.lines)
                if self._eof:
                    raise BenchError(
                        f"process ended before printing {prefix!r}; "
                        f"see {self.log_path.name}: {self.tail()}"
                    )
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise BenchError(f"no {prefix!r} line in {timeout}s")
                self._cond.wait(left)

    def tail(self, n: int = 5) -> str:
        with self._cond:
            return " | ".join(entry[2] for entry in self.lines[-n:])

    def signal(self, sig: int) -> None:
        if self.returncode is None:
            try:
                self.proc.send_signal(sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout: float) -> int:
        """Reap the process (``wait4``: exit code and peak RSS)."""
        if self.returncode is not None:
            return self.returncode
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                raise BenchError(
                    f"process {self.proc.pid} did not exit in {timeout}s"
                )
            time.sleep(0.005)
        self.ended = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux: KiB
        self.cpu_total = usage.ru_utime + usage.ru_stime
        self._reader.join(timeout=10.0)
        self._log.close()
        return self.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, then SIGKILL if it does not exit in ``timeout``."""
        self.signal(signal.SIGTERM)
        try:
            return self.wait(timeout)
        except BenchError:
            self.signal(signal.SIGKILL)
            return self.wait(10.0)


def process_cpu(pid: int) -> float | None:
    """CPU seconds (user + system, all threads, exited ones included) of
    a live process, read from its process CPU clock (Linux encodes it as
    ``((~pid) << 3) | 2``; nanosecond resolution).  Unlike wall time it
    leaves out the time the host steals from this virtual machine."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return None


def host_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(since: tuple[int, int]) -> float:
    steal, total = host_steal()
    return (steal - since[0]) / max(total - since[1], 1)


def free_port() -> int:
    """A port that is free now (``repro serve`` rejects ``--port 0``)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-c", REPRO_MAIN, *args]


def launch_argv(trace_out: Path, run_id: str, *args: str) -> list[str]:
    """The program's entry point run under the span wrappers."""
    return [
        sys.executable, str(BENCH_DIR / "launch.py"),
        "--trace-out", str(trace_out), "--run-id", run_id, "--", *args,
    ]


# ----------------------------------------------------------------------
# rounds and statistics
# ----------------------------------------------------------------------
def keep_going(rounds: int, elapsed: float, seconds: float,
               min_rounds: int = 1) -> bool:
    """Start another whole round while one more fits in ``seconds``
    (judged by the mean round so far), and until ``min_rounds``."""
    if rounds < min_rounds:
        return True
    return elapsed + elapsed / rounds <= seconds


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than ten samples
    lie beyond it (a tail needs a tail)."""
    values = sorted(values)
    if len(values) * (1.0 - q / 100.0) < 10:
        return None
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Checks:
    """Named output checks; a failure is reported and makes the run
    incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def require(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", flush=True)
        return bool(ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
