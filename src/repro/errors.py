"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch one base class.  Specific subclasses signal the
layer that failed: model configuration, numerical solving, game definition,
simulation, or the distributed search protocol.
"""

from __future__ import annotations

__all__ = [
    "BackendError",
    "CampaignError",
    "ContractError",
    "ConvergenceError",
    "GameDefinitionError",
    "InsufficientDataError",
    "IntegrityError",
    "LintError",
    "ParameterError",
    "ProtocolError",
    "ReproError",
    "ServeError",
    "SimulationError",
    "StoreError",
    "StrategyError",
    "TopologyError",
    "VerificationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A PHY/MAC or model parameter is out of its valid domain."""


class ContractError(ParameterError):
    """A validated invariant of :mod:`repro.contracts` was violated.

    Subclasses :class:`ParameterError` so boundary callers that catch the
    generic domain error keep working when a check is expressed as a
    contract instead of an inline ``if``/``raise``.
    """


class InsufficientDataError(ParameterError):
    """An estimator was asked for a result before observing any data.

    Raised by :mod:`repro.detect` when an observation window contains
    zero slots or zero attempts - the division that would otherwise
    produce ``nan``/``inf`` estimates and leak into hypothesis tests.
    Subclasses :class:`ParameterError` so callers catching the generic
    domain error keep working.
    """


class ConvergenceError(ReproError, RuntimeError):
    """A numerical fixed point or root search failed to converge."""


class GameDefinitionError(ReproError, ValueError):
    """A game was constructed with an inconsistent specification."""


class StrategyError(ReproError, RuntimeError):
    """A strategy was driven outside its contract (e.g. missing history)."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class ProtocolError(ReproError, RuntimeError):
    """The distributed NE-search protocol violated its message contract."""


class TopologyError(ReproError, ValueError):
    """A multi-hop topology is invalid for the requested operation."""


class StoreError(ReproError, RuntimeError):
    """The content-addressed results store is missing or inconsistent."""


class IntegrityError(StoreError):
    """A stored artefact failed integrity verification on read.

    Raised when a result payload's recorded SHA-256 no longer matches the
    bytes on disk, or a manifest is malformed - i.e. the store was
    tampered with or truncated, not merely absent.
    """


class CampaignError(ReproError, ValueError):
    """A campaign specification is malformed or inconsistent."""


class BackendError(ReproError, RuntimeError):
    """The simulator kernel's compiled replay cannot be built or run.

    Raised by :mod:`repro.backends` when the C replay cannot be built or
    loaded (the kernel then runs its numpy loop instead) or is handed
    state that does not match its window matrix.
    """


class ServeError(ReproError, RuntimeError):
    """The serving layer received a malformed request or lost a worker.

    Raised by :mod:`repro.serve` for unknown request kinds, invalid
    request documents and solver failures surfaced to waiting clients.
    """


class VerificationError(ReproError, RuntimeError):
    """The machine-checked verification layer could not run a check.

    Raised by :mod:`repro.verify` when a requested checker backend is
    unavailable and was explicitly required (``z3`` missing for an SMT
    check), when a claim/box name is unknown, or when a scenario file is
    malformed.  A claim *failing* is never an exception - failures are
    reported as counterexample verdicts in the certificate.
    """


class LintError(ReproError, ValueError):
    """The static analyzer was misconfigured or fed bad inputs.

    Raised by :mod:`repro.lint` for unknown/duplicate rule codes and
    unreadable baseline files.  Subclasses :class:`ValueError` so
    pre-hierarchy callers catching ``ValueError`` keep working.
    """
