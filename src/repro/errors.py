"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base type. Subclasses mark the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TaxonomyError(ReproError):
    """Raised for invalid taxonomy data or malformed taxonomy files."""


class QueryLogError(ReproError):
    """Raised for malformed query-log records or unusable log files."""


class MiningError(ReproError):
    """Raised when head-modifier pair mining receives unusable input."""


class ModelError(ReproError):
    """Raised for model (de)serialization and fitting problems."""


class NotFittedError(ModelError):
    """Raised when a component is used before it has been fitted/trained."""


class EvaluationError(ReproError):
    """Raised for malformed evaluation datasets or metric misuse."""


class ServingError(ReproError):
    """Raised by the online serving layer (:mod:`repro.serving`)."""


class ServerOverloadedError(ServingError):
    """Raised when the router sheds a request: it is at its
    ``max_inflight`` admission limit, or no replica is live to answer.
    Deterministic backpressure — callers should shed load or retry with
    backoff, never queue unboundedly."""


class ServerClosedError(ServingError):
    """Raised when a request arrives after the server began shutdown."""


class ReplicaProtocolError(ServingError):
    """Raised when the router↔replica socket protocol is violated: an
    oversized or malformed frame, an unknown op, or a response that
    cannot be matched to a pending request. Deterministic like the rest
    of the serving errors — a protocol violation closes the connection
    instead of leaving a reader wedged."""


class ReplicaUnavailableError(ServingError):
    """Raised when a request cannot reach its replica: the replica is
    down, draining, or its connection died mid-request. The router maps
    it to re-routing (another replica on the hash ring) or, when no
    replica is up, to the same 503 surface as
    :class:`ServerOverloadedError`."""


class AnalysisError(ReproError):
    """Raised by the static-analysis engine (:mod:`repro.analysis`) for
    usage errors: unknown rule ids, unparseable sources, or bad paths.
    The ``repro lint`` CLI maps it to exit 2."""
