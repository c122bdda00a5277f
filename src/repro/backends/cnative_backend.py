"""Build and load the compiled replay of the numpy simulator kernel.

The numpy kernel's events also exist as C (``repro_numpy_chunk``, a
bit-for-bit replay of the loop in
:mod:`repro.backends.numpy_backend`), compiled on demand with the
system C compiler and loaded through :mod:`ctypes` - no build-time
artefacts ship with the package and no Python dependency beyond numpy
is required.

The shared object is cached in a per-user directory keyed by the
SHA-256 of the C source plus the compiler command line, so the compiler
runs once per source revision per machine; each build deletes the
objects of other revisions.  The directory is created ``0700`` and
refused when it is a symlink, owned by another user or
group/world-writable, since whatever object sits under the expected
name is loaded into the process.  When no compiler is present, the
cache is refused or the build fails, :func:`load_kernels` raises with
the reason and the numpy kernel runs its loop instead.  The loader only
picks between two bit-identical paths; it never decides a value.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import BackendError

__all__ = ["LazyKernels", "load_kernels"]

#: Override the shared-object cache directory (e.g. for hermetic CI).
ENV_CACHE_DIR = "REPRO_CNATIVE_CACHE"
#: Override the compiler executable (default: ``cc`` then ``gcc``).
ENV_CC = "REPRO_CC"

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

/* ---------------------------------------------------------------------
 * The numpy kernel's loop (numpy_backend._sim_loop) replayed bit for
 * bit: the same events in the same order, the same float64 products of
 * the caller's uniform blocks on the fast path, and the same
 * Generator.integers draws on the tail, taken from the Generator's own
 * bit generator through numpy's ctypes interface.
 * ------------------------------------------------------------------- */
typedef uint32_t (*repro_next_uint32)(void *);

/* Generator.integers(0, bound) for 1 <= bound < 2**32: numpy's unmasked
 * Lemire rule (random_bounded_uint64 on its 32-bit path); bound == 1
 * returns 0 without consuming the stream. */
static inline int64_t lemire_below(
    repro_next_uint32 next_uint32, void *bitgen, int64_t bound)
{
    if (bound == 1) return 0;
    uint32_t excl = (uint32_t)bound;
    uint64_t m = (uint64_t)next_uint32(bitgen) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - (excl - 1)) % excl;
        while (leftover < threshold) {
            m = (uint64_t)next_uint32(bitgen) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* Smallest counter of one lane; *ready gets how many nodes hold it. */
static inline int64_t lane_min(const int64_t *cnt, int64_t n, int64_t *ready)
{
    int64_t low = cnt[0], count = 1;
    for (int64_t i = 1; i < n; i++) {
        if (cnt[i] < low) { low = cnt[i]; count = 1; }
        else if (cnt[i] == low) count++;
    }
    *ready = count;
    return low;
}

/* One busy slot of one lane after `low` idle slots: the `ready` nodes
 * whose counter equals `low` transmit (a success iff ready == 1) and
 * redraw - from the uniform block when `block` is set (the loop's fast
 * path), else from the bit generator (its tail) - and every other
 * counter drops by low + 1. */
static inline void replay_busy_slot(
    const int64_t *W, int64_t n, int64_t max_stage,
    int64_t low, int64_t ready,
    int64_t *stg, int64_t *cnt, int64_t *att, int64_t *suc,
    const double *block, int64_t *pos,
    repro_next_uint32 next_uint32, void *bitgen)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t c = cnt[i];
        if (c != low) { cnt[i] = c - low - 1; continue; }
        int64_t st = 0;
        att[i] += 1;
        if (ready == 1) suc[i] += 1;
        else if ((st = stg[i] + 1) > max_stage) st = max_stage;
        stg[i] = st;
        int64_t bound = W[i] << st;
        cnt[i] = block
            ? (int64_t)(block[(*pos)++] * (double)bound)
            : lemire_below(next_uint32, bitgen, bound);
    }
}

/* Advance every lane to `target` slots.  Returns 1 when the fast path
 * needs more uniforms than remain in `block`: the caller draws a fresh
 * block, as the loop does at that point, and calls again (each call
 * starts at block[0]).  Returns 0 once every lane is done.  `lanes` is
 * 2 * batch int64 of scratch. */
int repro_numpy_chunk(
    const int64_t *windows, int64_t batch, int64_t n,
    int64_t max_stage, int64_t target,
    int64_t *stage, int64_t *counter,
    int64_t *attempts, int64_t *successes,
    int64_t *busy_count, int64_t *slots_done,
    const double *block, int64_t block_size, int64_t *lanes,
    void *bitgen, repro_next_uint32 next_uint32)
{
    int64_t *low = lanes, *ready = lanes + batch;
    int64_t pos = 0;
    /* Fast path: one event in every lane per round, until some lane's
     * next event would pass the target. */
    for (;;) {
        int64_t lane, k = 0;
        for (lane = 0; lane < batch; lane++) {
            low[lane] = lane_min(counter + lane * n, n, ready + lane);
            if (low[lane] >= target - slots_done[lane]) break;
            k += ready[lane];
        }
        if (lane < batch) break;
        if (pos + k > block_size) return 1;
        for (lane = 0; lane < batch; lane++) {
            int64_t o = lane * n;
            replay_busy_slot(
                windows + o, n, max_stage, low[lane], ready[lane],
                stage + o, counter + o, attempts + o, successes + o,
                block, &pos, NULL, NULL);
            slots_done[lane] += low[lane] + 1;
            busy_count[lane] += 1;
        }
    }
    /* Tail path: each round visits the unfinished lanes in order, one
     * event (or the idle run to the target) each. */
    for (int active = 1; active;) {
        active = 0;
        for (int64_t lane = 0; lane < batch; lane++) {
            int64_t left = target - slots_done[lane];
            if (left <= 0) continue;
            active = 1;
            int64_t o = lane * n, r;
            int64_t jump = lane_min(counter + o, n, &r);
            if (jump >= left) {
                for (int64_t i = 0; i < n; i++) counter[o + i] -= left;
                slots_done[lane] = target;
                continue;
            }
            replay_busy_slot(
                windows + o, n, max_stage, jump, r,
                stage + o, counter + o, attempts + o, successes + o,
                NULL, &pos, next_uint32, bitgen);
            slots_done[lane] += jump + 1;
            busy_count[lane] += 1;
        }
    }
    return 0;
}
"""


def _find_compiler() -> Optional[str]:
    override = os.environ.get(ENV_CC)
    if override:
        return override if shutil.which(override) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    """The shared-object cache: created ``0700``, refused unless ours alone.

    Raises
    ------
    BackendError
        If the directory cannot be created, is a symlink, is owned by
        another user or is group- or world-writable - anyone who can
        write there could plant the object this process loads.
    """
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        cache = Path(override)
    else:
        try:
            user = getpass.getuser()
        except (KeyError, OSError):  # pragma: no cover - no passwd entry
            user = str(os.getuid())
        cache = Path(tempfile.gettempdir()) / f"repro-cnative-{user}"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = cache.lstat()
    except OSError as error:
        raise BackendError(f"unusable compile cache {cache}: {error}") from error
    if stat.S_ISLNK(info.st_mode):
        problem = "is a symlink"
    elif info.st_uid != os.getuid():
        problem = f"is owned by uid {info.st_uid}, not {os.getuid()}"
    elif info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        problem = "is group- or world-writable"
    else:
        return cache
    raise BackendError(f"unsafe compile cache {cache}: it {problem}")


def _build_library(compiler: str) -> Path:
    """Compile (or reuse) the shared object; returns its path."""
    flags = ["-O3", "-fPIC", "-shared"]
    key = hashlib.sha256(
        ("\x00".join([compiler, *flags, _C_SOURCE])).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    library = cache / f"repro_kernels_{key}.so"
    if library.exists():
        return library
    # Build in a private scratch directory, then atomically rename, so
    # concurrent builders never share a source file and no process
    # ever loads a half-written object.
    with tempfile.TemporaryDirectory(prefix=".build-", dir=cache) as scratch:
        source = Path(scratch) / "repro_kernels.c"
        built = Path(scratch) / "repro_kernels.so"
        source.write_text(_C_SOURCE)
        command = [compiler, str(source), "-o", str(built), *flags]
        try:
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            raise BackendError(
                f"cnative build failed to run: {error}"
            ) from error
        if completed.returncode != 0:
            raise BackendError(
                "cnative build failed:\n"
                f"$ {' '.join(command)}\n{completed.stderr.strip()}"
            )
        os.replace(built, library)
    _prune_cache(cache, keep=library)
    return library


def _prune_cache(cache: Path, *, keep: Path) -> None:
    """Delete other source revisions' objects and sources, best effort.

    Runs only after a build, never on a plain load, so checkouts that
    share a cache rebuild at most once after switching.  ``.build-*``
    directories are left alone: they may be another process's build in
    flight.  A process that already loaded a pruned object keeps its
    mapping.
    """
    for stale in cache.glob("repro_kernels_*"):
        if stale != keep and stale.suffix in (".so", ".c"):
            try:
                stale.unlink()
            except OSError:
                pass


def load_kernels() -> ctypes.CDLL:
    """Build (once per machine) and load the compiled replay.

    Every call returns a fresh handle with the argument types of
    ``repro_numpy_chunk`` declared; callers keep the one they get.

    Raises
    ------
    BackendError
        Naming why not: no C compiler, an unsafe or unusable cache
        directory, or a failed build or load.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise BackendError("no C compiler found (cc/gcc/clang)")
    try:
        library = ctypes.CDLL(str(_build_library(compiler)))
    except OSError as error:
        raise BackendError(f"cnative build unusable: {error}") from error
    # ndpointer rejects arrays of another dtype or layout at the call;
    # the last two arguments are numpy's bit_generator.ctypes
    # state_address and next_uint32.
    int64s = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    library.repro_numpy_chunk.restype = ctypes.c_int
    library.repro_numpy_chunk.argtypes = [
        int64s, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        int64s, int64s, int64s, int64s, int64s, int64s,
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        ctypes.c_int64, int64s,
        ctypes.c_void_p, ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p),
    ]
    return library


class LazyKernels:
    """The compiled replay, loaded on first use.

    Remembers the failure too, so an unusable toolchain costs one
    attempt per instance; :attr:`error` says why.
    """

    def __init__(self) -> None:
        self._library: Optional[ctypes.CDLL] = None
        self.error: Optional[str] = None

    def get(self) -> Optional[ctypes.CDLL]:
        """The loaded library, or ``None`` when it cannot be had."""
        if self._library is None and self.error is None:
            try:
                self._library = load_kernels()
            except BackendError as error:
                self.error = str(error)
        return self._library

