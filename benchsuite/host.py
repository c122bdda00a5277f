"""Host-speed correction, CPU pinning and the host fingerprint.

The benchmark host is a small VM whose two vCPUs change speed by about a
third within tens of seconds, and at the same moment can run the same
code up to 35% apart (a pure-Python loop read 16.1 ms on one vCPU and
12.0 ms on the other).  Raw wall clock therefore does not repeat: on
identical code, medians of earlier benchmarks moved by 17-28%, and
over five runs the raw cold ``run-all`` of this benchmark ranged over
55% (6.4-9.9 s) on a 2-vCPU Xeon VM.  These measures make the timings
repeat:

* **Pinning** (:func:`pin_to_one_cpu`).  The benchmark process pins
  itself to one CPU before it starts anything; every child inherits the
  mask, so the program, the load generator and the reference loop share
  one CPU.  A warm ``run-all`` pass spread 12.5% host-corrected without
  pinning and 3.7% with it.
* **A reference loop** (:func:`reference_loop`), a fixed pure-Python
  loop of about :data:`NOMINAL_REF_MS`.  A timing is reported as
  ``raw x nominal / median`` of the references of the same stretch
  (:func:`correct`, :func:`median_within`); the raw value is recorded
  beside it.  Where the references come from depends on the call:

  - short calls (warm passes, single operations, requests): the loop
    runs on the thread that makes them, between them, whenever
    :data:`REF_SPACING_S` has passed since the last one
    (:class:`ReferenceTrack`), and each call is corrected by the
    references within a quarter second of it - the host's slow spells
    last a few hundred milliseconds;
  - launches: references on either side of each launch, taken while
    nothing else runs;
  - long calls (a cold ``run-all`` or ``campaign run`` of seconds):
    a reference taken only before and after does not follow the host
    through the call (pinned cold ``run-all``: 12.1% raw, 13.0%
    corrected).  A thread of the benchmark process, pinned to the same
    CPU, runs the loop every :data:`SAMPLER_SPACING_S` during the call
    and reads its own thread CPU time (:class:`CpuTimeSampler`).  The
    slowdowns on this host are not steal time - thread CPU time slows
    exactly as wall time does - so the loop's CPU time tracks host speed
    although it shares the CPU with the program, and waiting for the
    CPU does not count against it.  The sampler takes a few percent of
    the CPU, the same on every run.

The run's reference median is recorded so that host drift shows in the
history.  A loop that also walked a 2 MB table tracked the program
worse than this arithmetic loop (single-operation medians spread 19.7%
against 6.4% over eight sessions).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Nominal duration of one reference loop; corrected timings are
#: expressed on a host where the loop takes exactly this long.
NOMINAL_REF_MS = 15.0

#: Iterations of the reference loop (about 15 ms on the benchmark host).
REF_ITERATIONS = 85_000

#: Minimum spacing between references taken between short calls.
REF_SPACING_S = 0.05

#: Period of the CPU-time sampler during long calls.
SAMPLER_SPACING_S = 0.2


def reference_loop() -> int:
    """The fixed pure-Python workload whose duration measures host speed."""
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return acc


def reference_ms() -> float:
    """Wall time of one reference loop on the calling thread, in ms."""
    started = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - started) * 1000.0


def correct(raw: float, reference_median_ms: float) -> float:
    """A raw timing expressed on a host of nominal reference speed."""
    if reference_median_ms <= 0.0:
        raise ValueError(
            f"reference median must be positive, got {reference_median_ms!r}"
        )
    return raw * NOMINAL_REF_MS / reference_median_ms


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to one CPU.

    The highest-numbered CPU of the current mask is chosen, so the
    choice is the same on every run of one host.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median_within(
    samples: Sequence[Tuple[float, float]], t_start: float, t_end: float
) -> float:
    """Median of the references started inside ``[t_start, t_end]``.

    ``samples`` are ``(start time, ms)`` pairs.  When fewer than two lie
    inside (a stretch shorter than the reference spacing), the two
    nearest to the stretch's midpoint are used.
    """
    inside = [ms for t, ms in samples if t_start <= t <= t_end]
    if len(inside) < 2:
        middle = 0.5 * (t_start + t_end)
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
        inside = [ms for _, ms in nearest[:2]]
    if not inside:
        raise ValueError("no reference was taken")
    return statistics.median(inside)


class ReferenceTrack:
    """References taken between short calls on the measuring thread.

    :meth:`between` takes a reference when :data:`REF_SPACING_S` has
    passed since the last one, so references sample a stretch of calls
    uniformly in time; :meth:`take` takes one unconditionally (at the
    edges of a stretch).
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def take(self) -> float:
        """Take one reference now; returns its duration in ms."""
        started = time.perf_counter()
        ms = reference_ms()
        self.samples.append((started, ms))
        self._last = time.perf_counter()
        return ms

    def between(self) -> None:
        """Take a reference if the last one is older than the spacing."""
        if time.perf_counter() - self._last >= REF_SPACING_S:
            self.take()


class CpuTimeSampler:
    """Reference loops timed in thread CPU time while long calls run.

    Used as a context manager around calls of seconds that cannot be
    interleaved with references (launches, a cold ``run-all`` or
    ``campaign run`` in a child process).  The process must already be
    pinned to the CPU the measured program runs on.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._stop.is_set():
            started = time.perf_counter()
            cpu_started = time.thread_time()
            reference_loop()
            cpu_ms = (time.thread_time() - cpu_started) * 1000.0
            self.samples.append((started, cpu_ms))
            self._stop.wait(SAMPLER_SPACING_S)

    def __enter__(self) -> "CpuTimeSampler":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="bench-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> Optional[str]:
    try:
        imported = __import__(module)
    except ImportError:
        return None
    return str(getattr(imported, "__version__", "unknown"))


def fingerprint(root: Path, pinned_cpu: int) -> Dict[str, object]:
    """What a reader needs to tell two hosts or two programs apart.

    z3 is recorded because its presence changes the work of the
    ``verify`` artefact; the default backend because it selects the
    simulator kernel.  The checkout is not a git repository, so the
    program is identified by :func:`source_digest`.
    """
    from repro import backends  # imported here: needs the program on sys.path

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "z3": _version("z3") is not None,
        "default_backend": backends.default_backend_name(),
        "source_sha256": source_digest(root),
    }
