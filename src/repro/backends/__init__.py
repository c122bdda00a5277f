"""Pluggable compute backends for the two hot kernels.

The vectorized DCF simulator (:func:`repro.sim.vectorized.run_batch`)
and the batched Bianchi solver
(:func:`repro.bianchi.batched.solve_heterogeneous_batch`) dispatch their
inner loops through a small registry of :class:`ComputeBackend`
implementations:

``numpy``
    The always-available reference (the original vectorized kernel,
    relocated).  Bit-identical to pre-backend releases for matched
    seeds.  Where a C compiler is available its events run in a
    compiled replay of the same loop, bit for bit; the loop runs
    otherwise.
``numba``
    JIT-compiled calendar-queue kernels, ``prange``-parallel over batch
    lanes.  Optional dependency (``pip install repro[backends]``);
    reports unavailable when numba is missing.
``cnative``
    The same calendar-queue kernels transliterated to C, compiled on
    demand with the system compiler and loaded via ctypes.  No Python
    dependency at all - available wherever a C compiler is.
``python``
    The calendar-queue kernels interpreted.  A debugging reference and
    the bit-compatibility anchor for ``numba``/``cnative``; slow.

Selection precedence (lowest to highest): built-in default (numpy), the
``REPRO_BACKEND`` environment variable, the CLI ``--backend`` flag, a
campaign spec's ``backend`` field.  Each layer simply overrides the
previous one; :func:`resolve_backend` then maps the final name to an
instance, falling back to numpy with a warning when the requested
backend is unavailable in this environment (``fallback=False`` turns
that into a :class:`~repro.errors.BackendError` instead).

The backend name never enters results-store digests: like the worker
count, it is a *speed* knob - every backend is pinned to the numpy
reference by equivalence tests, so results are interchangeable.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.errors import BackendError
from repro.backends.array_api import get_namespace
from repro.backends.base import (
    COUNTER_UNSET,
    ComputeBackend,
    SimChunkState,
    lane_seeds,
)
from repro.backends.cnative_backend import CNativeBackend
from repro.backends.numba_backend import NumbaBackend, PurePythonBackend
from repro.backends.numpy_backend import NumpyBackend

__all__ = [
    "COUNTER_UNSET",
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "SimChunkState",
    "available_backends",
    "backend_names",
    "default_backend_name",
    "describe_backends",
    "get_backend",
    "get_namespace",
    "lane_seeds",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Environment variable consulted by :func:`default_backend_name`.
ENV_BACKEND = "REPRO_BACKEND"
#: The built-in default when nothing overrides it.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, ComputeBackend] = {}
#: Process-wide override installed by :func:`set_default_backend` (the
#: CLI flag lands here); ``None`` defers to the environment variable.
_DEFAULT_OVERRIDE: Optional[str] = None


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add ``backend`` to the registry (last registration wins).

    Third-party array libraries (a CuPy backend, say) register here and
    immediately become selectable by name through the environment
    variable, the CLI flag and campaign specs.
    """
    if not backend.name or backend.name == "abstract":
        raise BackendError("backends must define a non-default name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """All registered backend names, registration order."""
    return list(_REGISTRY)


def available_backends() -> List[str]:
    """Names of the registered backends usable in this environment."""
    return [
        name
        for name, backend in _REGISTRY.items()
        if backend.available()
    ]


def describe_backends() -> Dict[str, str]:
    """Name -> human-readable availability note, for diagnostics."""
    return {
        name: backend.availability_note()
        for name, backend in _REGISTRY.items()
    }


def get_backend(name: str) -> ComputeBackend:
    """Return the registered backend called ``name`` (may be unavailable).

    Raises
    ------
    BackendError
        If no backend with that name is registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendError(
            f"unknown compute backend {name!r}; registered: {known}"
        ) from None


def default_backend_name() -> str:
    """The effective default backend name for this process.

    A :func:`set_default_backend` override wins, then the
    ``REPRO_BACKEND`` environment variable, then :data:`DEFAULT_BACKEND`.
    """
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND


def set_default_backend(name: Optional[str]) -> None:
    """Install (or with ``None`` clear) a process-wide default override.

    The name is validated against the registry immediately so typos fail
    at configuration time, not mid-campaign.
    """
    global _DEFAULT_OVERRIDE
    if name is not None:
        get_backend(name)
    _DEFAULT_OVERRIDE = name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Scoped :func:`set_default_backend`; restores the prior override."""
    previous = _DEFAULT_OVERRIDE
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def resolve_backend(
    name: Optional[str] = None, *, fallback: bool = True
) -> ComputeBackend:
    """Map a backend name (or the configured default) to an instance.

    An unknown name always raises - silently computing on the wrong
    backend is never acceptable.  A *known but unavailable* backend
    falls back to numpy with a warning when ``fallback`` is true (the
    graceful-degradation path for optional dependencies), and raises
    otherwise.
    """
    effective = (name or "").strip() or default_backend_name()
    backend = get_backend(effective)
    if backend.available():
        return backend
    if not fallback:
        raise BackendError(
            f"backend {effective!r} is unavailable: "
            f"{backend.availability_note()}"
        )
    warnings.warn(
        f"compute backend {effective!r} is unavailable "
        f"({backend.availability_note()}); falling back to numpy",
        RuntimeWarning,
        stacklevel=2,
    )
    return get_backend(DEFAULT_BACKEND)


register_backend(NumpyBackend())
register_backend(NumbaBackend())
register_backend(CNativeBackend())
register_backend(PurePythonBackend())
