"""Self-compiled C backend for the two hot kernels (``cnative``).

A transliteration of :mod:`repro.backends.calendar_kernels` to C,
compiled on demand with the system C compiler and loaded through
:mod:`ctypes` - no build-time artefacts ship with the package and no
new Python dependency is required, which is what makes this backend
usable in containers where ``numba`` cannot be installed.  The same
shared object carries the numpy backend's compiled replay
(``repro_numpy_chunk``, driven by
:class:`~repro.backends.numpy_backend.NumpyBackend`), so both backends
go through the one build and loader here, :func:`load_kernels`.

The shared object is cached in a per-user directory keyed by the
SHA-256 of the C source plus the compiler command line, so the compiler
runs once per source revision per machine; each build deletes the
objects of other revisions.  The directory is created ``0700`` and
refused when it is a symlink, owned by another user or
group/world-writable, since whatever object sits under the expected
name is loaded into the process.  When no compiler is present, the
cache is refused or the build fails, the backend reports itself
unavailable (with the reason) and
:func:`repro.backends.resolve_backend` falls back to numpy.

Bit-compatibility: the C kernels consume the *same* per-lane splitmix64
streams as the interpreted/JIT calendar kernels (same constants, same
``floor(u53 * bound)`` draw, same bucket iteration order), so
``cnative`` and ``python`` produce identical counters for matched seeds
- the cross-backend tests pin exactly that, which is how the C code is
validated without numba in the container.
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
from typing import Optional, Tuple

import numpy as np

from repro.typealiases import BoolArray, FloatArray, IntArray
from repro.errors import BackendError
from repro.backends.base import ComputeBackend, SimChunkState
from repro.backends.calendar_kernels import ring_size_for

__all__ = ["CNativeBackend", "LazyKernels", "load_kernels"]

#: Override the shared-object cache directory (e.g. for hermetic CI).
ENV_CACHE_DIR = "REPRO_CNATIVE_CACHE"
#: Override the compiler executable (default: ``cc`` then ``gcc``).
ENV_CC = "REPRO_CC"

_P_MAX = 1.0 - 1e-15
_TAU_MIN = 1e-12
_TAU_MAX = 1.0 - 1e-12
_DAMPING = 0.5

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* splitmix64 (public domain, Vigna); must match calendar_kernels.py. */
static inline uint64_t sm64_next(uint64_t *state) {
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* floor(u53 * bound): identical construction (and bias) to the python
 * kernels and the numpy backend's uniform blocks. */
static inline int64_t draw_below(uint64_t *state, int64_t bound) {
    double u = (double)(sm64_next(state) >> 11) * (1.0 / 9007199254740992.0);
    return (int64_t)(u * (double)bound);
}

/* Calendar-queue DCF chunk; see calendar_kernels.sim_chunk_kernel for
 * the algorithm notes.  Returns 0, or 1 if an allocation failed (the
 * caller detects unfinished lanes via slots_done). */
int repro_sim_chunk(
    const int64_t *windows, int64_t batch, int64_t n,
    int64_t max_stage, int64_t target, int64_t ring_size,
    int64_t *stage, int64_t *counter,
    int64_t *attempts, int64_t *successes,
    int64_t *busy_count, int64_t *slots_done,
    uint64_t *rng_state)
{
    int failed = 0;
    int64_t lane;
#if defined(_OPENMP)
#pragma omp parallel for schedule(dynamic)
#endif
    for (lane = 0; lane < batch; lane++) {
        int64_t t = slots_done[lane];
        if (t >= target) continue;
        uint64_t s = rng_state[lane];
        const int64_t *W = windows + lane * n;
        int64_t *stg = stage + lane * n;
        int64_t *cnt = counter + lane * n;
        int64_t *att = attempts + lane * n;
        int64_t *suc = successes + lane * n;
        int64_t *head = (int64_t *)malloc(sizeof(int64_t) * (size_t)ring_size);
        int64_t *nxt = (int64_t *)malloc(sizeof(int64_t) * (size_t)n);
        int64_t *deadline = (int64_t *)malloc(sizeof(int64_t) * (size_t)n);
        int64_t *due = (int64_t *)malloc(sizeof(int64_t) * (size_t)n);
        if (!head || !nxt || !deadline || !due) {
            free(head); free(nxt); free(deadline); free(due);
            failed = 1;
            continue;
        }
        for (int64_t b = 0; b < ring_size; b++) head[b] = -1;
        for (int64_t i = 0; i < n; i++) {
            int64_t c = cnt[i];
            if (c < 0) c = draw_below(&s, W[i]);
            deadline[i] = t + c;
            int64_t b = deadline[i] % ring_size;
            nxt[i] = head[b];
            head[b] = i;
        }
        int64_t bucket = t % ring_size;
        int64_t busy = busy_count[lane];
        while (t < target) {
            int64_t i = head[bucket];
            if (i < 0) {
                t++;
                if (++bucket == ring_size) bucket = 0;
                continue;
            }
            /* Collect transmitters, then process in ascending node
             * order: chain order is push-order LIFO and depends on
             * where chunk boundaries fell, so a canonical order keeps
             * differently-chunked runs (and the python/numba kernels)
             * bit-identical. */
            int64_t k = 0;
            for (int64_t j = i; j >= 0; j = nxt[j]) due[k++] = j;
            for (int64_t a = 1; a < k; a++) {
                int64_t v = due[a];
                int64_t b = a - 1;
                while (b >= 0 && due[b] > v) { due[b + 1] = due[b]; b--; }
                due[b + 1] = v;
            }
            int success = (k == 1);
            head[bucket] = -1;
            for (int64_t a = 0; a < k; a++) {
                int64_t j = due[a];
                att[j] += 1;
                if (success) {
                    suc[j] += 1;
                    stg[j] = 0;
                } else {
                    int64_t st = stg[j] + 1;
                    if (st > max_stage) st = max_stage;
                    stg[j] = st;
                }
                int64_t bound = W[j] << stg[j];
                int64_t d = draw_below(&s, bound);
                deadline[j] = t + 1 + d;
                int64_t nb = deadline[j] % ring_size;
                nxt[j] = head[nb];
                head[nb] = j;
            }
            busy++;
            t++;
            if (++bucket == ring_size) bucket = 0;
        }
        busy_count[lane] = busy;
        slots_done[lane] = t;
        for (int64_t i = 0; i < n; i++) cnt[i] = deadline[i] - t;
        rng_state[lane] = s;
        free(head); free(nxt); free(deadline); free(due);
    }
    return failed;
}

/* Per-lane damped Bianchi fixed point; see
 * calendar_kernels.fixed_point_kernel. */
int repro_fixed_point(
    const double *windows, int64_t batch, int64_t n,
    int64_t max_stage, double tol, int64_t max_iterations,
    double damping, double p_max, double tau_min, double tau_max,
    double *tau, int64_t *iterations, int64_t *converged)
{
    int failed = 0;
    int64_t lane;
#if defined(_OPENMP)
#pragma omp parallel for schedule(dynamic)
#endif
    for (lane = 0; lane < batch; lane++) {
        const double *W = windows + lane * n;
        double *x = tau + lane * n;
        double *x_next = (double *)malloc(sizeof(double) * (size_t)n);
        if (!x_next) { failed = 1; continue; }
        int done = 0;
        int64_t it = 0;
        while (it < max_iterations && !done) {
            it++;
            double total = 0.0;
            for (int64_t i = 0; i < n; i++) total += log1p(-x[i]);
            double delta = 0.0;
            for (int64_t i = 0; i < n; i++) {
                double p = 1.0 - exp(total - log1p(-x[i]));
                if (p > p_max) p = p_max;
                if (p < 0.0) p = 0.0;
                double series = 0.0;
                double power = 1.0;
                for (int64_t j = 0; j < max_stage; j++) {
                    series += power;
                    power *= 2.0 * p;
                }
                double fp = 2.0 / (1.0 + W[i] + p * W[i] * series);
                double nx = x[i] + damping * (fp - x[i]);
                if (nx < tau_min) nx = tau_min;
                if (nx > tau_max) nx = tau_max;
                double d = fabs(nx - x[i]);
                if (d > delta) delta = d;
                x_next[i] = nx;
            }
            for (int64_t i = 0; i < n; i++) x[i] = x_next[i];
            if (delta < tol) done = 1;
        }
        iterations[lane] = it;
        converged[lane] = done;
        free(x_next);
    }
    return failed;
}

/* ---------------------------------------------------------------------
 * The numpy backend's loop (numpy_backend.NumpyBackend) replayed bit for
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

_I64 = ctypes.POINTER(ctypes.c_int64)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_F64 = ctypes.POINTER(ctypes.c_double)


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
    flags = ["-O3", "-fPIC", "-shared", "-lm"]
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
    """Build (once per machine) and load the shared object of C kernels.

    Every call returns a fresh handle with the argument types of all
    three kernels declared; callers keep the one they get.

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
    library.repro_sim_chunk.restype = ctypes.c_int
    library.repro_sim_chunk.argtypes = [
        _I64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _I64, _I64, _I64, _I64, _U64,
    ]
    library.repro_fixed_point.restype = ctypes.c_int
    library.repro_fixed_point.argtypes = [
        _F64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, _F64, _I64, _I64,
    ]
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
    """The C kernels of one backend, loaded on first use.

    Remembers the failure too, so an unusable toolchain costs one
    attempt per backend instance; :attr:`error` says why.
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


class CNativeBackend(ComputeBackend):
    """C calendar-queue kernels compiled on demand via the system cc."""

    name = "cnative"
    deterministic = True
    matches_numpy = False
    supports_fixed_point = True

    def __init__(self) -> None:
        self._kernels = LazyKernels()

    def available(self) -> bool:
        return self._kernels.get() is not None

    def availability_note(self) -> str:
        if self.available():
            return "C kernels built via the system compiler"
        return self._kernels.error or "unavailable"

    def _load(self) -> ctypes.CDLL:
        library = self._kernels.get()
        if library is None:
            raise BackendError(
                f"the cnative backend is unavailable: {self._kernels.error}"
            )
        return library

    def sim_chunk(
        self,
        windows: IntArray,
        max_stage: int,
        target_slots: int,
        state: SimChunkState,
    ) -> None:
        library = self._load()
        rng_state = np.ascontiguousarray(state.rng, dtype=np.uint64)
        state.rng = rng_state
        batch, n_nodes = windows.shape
        status = library.repro_sim_chunk(
            np.ascontiguousarray(windows).ctypes.data_as(_I64),
            batch,
            n_nodes,
            max_stage,
            target_slots,
            ring_size_for(windows, max_stage),
            state.stage.ctypes.data_as(_I64),
            state.counter.ctypes.data_as(_I64),
            state.attempts.ctypes.data_as(_I64),
            state.successes.ctypes.data_as(_I64),
            state.busy_count.ctypes.data_as(_I64),
            state.slots_done.ctypes.data_as(_I64),
            rng_state.ctypes.data_as(_U64),
        )
        if status != 0:  # pragma: no cover - malloc failure
            raise BackendError("cnative sim kernel ran out of memory")

    def solve_batch(
        self,
        windows: FloatArray,
        max_stage: int,
        *,
        tol: float,
        max_iterations: int,
        initial_tau: Optional[FloatArray] = None,
    ) -> Tuple[FloatArray, IntArray, BoolArray]:
        library = self._load()
        w = np.ascontiguousarray(windows, dtype=np.float64)
        batch, n_nodes = w.shape
        if initial_tau is not None:
            tau = np.ascontiguousarray(
                np.broadcast_to(
                    np.asarray(initial_tau, dtype=np.float64), w.shape
                ).copy()
            )
            np.clip(tau, _TAU_MIN, _TAU_MAX, out=tau)
        else:
            tau = np.full_like(w, 0.1)
        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=np.int64)
        status = library.repro_fixed_point(
            w.ctypes.data_as(_F64),
            batch,
            n_nodes,
            max_stage,
            tol,
            max_iterations,
            _DAMPING,
            _P_MAX,
            _TAU_MIN,
            _TAU_MAX,
            tau.ctypes.data_as(_F64),
            iterations.ctypes.data_as(_I64),
            converged.ctypes.data_as(_I64),
        )
        if status != 0:  # pragma: no cover - malloc failure
            raise BackendError("cnative fixed point ran out of memory")
        return tau, iterations, converged.astype(bool)
