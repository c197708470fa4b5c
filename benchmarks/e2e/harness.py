"""Measurement plumbing shared by the workloads: timing samples, summary
statistics, result digests, goldens and the run envelope.

Nothing here knows a workload by name; ``workloads.py`` holds those.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
GOLDENS = HERE / "goldens"
DEFAULT_SEED = 1


class Samples:
    """What one measured window observed: a latency per operation, keyed by
    statement shape, a wall time per sweep, and the failure count.

    A failed operation (an exception from flock, a refused or timed-out
    request, a wrong answer) is counted against ``attempted`` and
    contributes no latency, so it misses every latency figure.
    """

    def __init__(self) -> None:
        self.by_shape: dict[str, list[float]] = {}
        self.sweeps: list[tuple[float, int]] = []  # (wall seconds, ops ok)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Rows returned by SELECTs, and bytes of user data written: the
        #: denominators of the traced run's per-row and per-byte ratios.
        self.result_rows = 0
        self.user_bytes = 0
        #: The traced run's tracer, told which operation is running.
        self.tracer = None
        self._ok = 0

    def timed(self, shape: str, operation, *args):
        """Run ``operation(*args)`` as one attempted operation of *shape*;
        returns its result, or None when it failed."""
        from flock.errors import FlockError

        self.attempted += 1
        if self.tracer is not None:
            self.tracer.statement = self.attempted
        start = time.perf_counter()
        try:
            result = operation(*args)
        except (FlockError, TimeoutError) as exc:
            self.fail(f"{shape}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.statement = None
        self.record(shape, time.perf_counter() - start)
        if getattr(result, "batch", None) is not None:
            self.result_rows += result.row_count
        return result

    def record(self, shape: str, seconds: float) -> None:
        self.by_shape.setdefault(shape, []).append(seconds)
        self._ok += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def wrong(self, shape: str, message: str) -> None:
        """A completed operation whose answer failed a check: it becomes a
        failure and its latency is withdrawn."""
        self.by_shape[shape].pop()
        self._ok -= 1
        self.fail(f"{shape}: {message}")

    @contextmanager
    def sweep(self):
        """Times one pass over a workload's fixed operation sequence. The
        pass ends at ``stop()`` (or at exit), so answers checked after
        ``stop()`` cost the pass no time but still count against it."""
        self._ok = 0
        lap = _Lap()
        yield lap
        lap.stop()
        self.sweeps.append((lap.seconds, self._ok))


class _Lap:
    def __init__(self) -> None:
        self._start = time.perf_counter()
        self.seconds: float | None = None

    def stop(self) -> None:
        if self.seconds is None:
            self.seconds = time.perf_counter() - self._start


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def supported_percentiles(seconds: list[float]) -> dict:
    """Median plus each higher percentile that has at least ten samples
    beyond it, in milliseconds, with the sample count."""
    ordered = sorted(seconds)
    n = len(ordered)
    out = {"n": n, "p50_ms": statistics.median(ordered) * 1e3}
    for label, q in (("p90_ms", 0.90), ("p99_ms", 0.99), ("p99.9_ms", 0.999)):
        if n * (1.0 - q) >= 10:
            out[label] = ordered[min(n - 1, int(q * n))] * 1e3
    return out


def shape_medians(samples: Samples) -> list[float]:
    return [statistics.median(v) for v in samples.by_shape.values() if v]


def geomean_ms(samples: Samples) -> float:
    return geomean(shape_medians(samples)) * 1e3


def end_to_end(samples: Samples, setup_seconds: list[float]) -> dict:
    """The end-to-end metrics of BENCHMARK.json from one window."""
    everything = [x for v in samples.by_shape.values() for x in v]
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": statistics.median(
            ok / wall for wall, ok in samples.sweeps
        ),
        "geomean_ms": geomean_ms(samples),
        "p50_ms": statistics.median(everything) * 1e3,
        "slowest_ms": max(shape_medians(samples)) * 1e3,
    }


# ----------------------------------------------------------------------
# Result digests and goldens
# ----------------------------------------------------------------------
def digest(result) -> dict:
    """Row count plus one checksum per column: float columns sum to six
    significant digits (so a change in summation order still matches),
    every other column hashes its values in row order."""
    columns = []
    for name, values in result.to_dict().items():
        if any(isinstance(v, float) for v in values):
            total = math.fsum(v for v in values if v is not None)
            columns.append(f"{name}~{total:.6g}")
        else:
            columns.append(f"{name}#{zlib.crc32(repr(values).encode()):08x}")
    return {"rows": result.row_count, "columns": columns}


def size_key(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def load_goldens(name: str, seed: int, smoke: bool) -> dict | None:
    """Stored digests for *name*, or None when this seed and size have
    none (the caller says so loudly: goldens exist for one seed only)."""
    path = GOLDENS / f"{name}.json"
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    if stored["seed"] != seed:
        return None
    return stored.get(size_key(smoke))


def write_goldens(name: str, seed: int, smoke: bool, digests: dict) -> None:
    path = GOLDENS / f"{name}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if stored.get("seed") != seed:
        stored = {"seed": seed}
    stored[size_key(smoke)] = digests
    GOLDENS.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
def cpu_count() -> int:
    """CPUs this process may run on. Recorded, never used to scale load."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def filesystem_type(path: Path) -> str:
    """Filesystem holding *path*, from the longest matching mount point."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    resolved, best, fstype = str(path.resolve()), "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        if resolved.startswith(point) and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines() -> int:
    """Lines under src/flock — the ROADMAP code-diet scoreboard."""
    return sum(
        len(p.read_text().splitlines())
        for p in (ROOT / "src" / "flock").rglob("*.py")
    )


def envelope(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "cpu_count": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "data_dir_filesystem": filesystem_type(RESULTS.parent),
        "src_lines": src_lines(),
    }
