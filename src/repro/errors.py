"""Exception hierarchy for the contract-broker library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
downstream application can install a single ``except ReproError`` guard
around broker calls without accidentally swallowing unrelated failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class LTLSyntaxError(ReproError):
    """Raised by the LTL parser on malformed input.

    Attributes:
        text: the full input string being parsed.
        position: character offset at which the error was detected.
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at offset {self.position})"
        return base


class ParseError(LTLSyntaxError):
    """Raised by the LTL parser on input that nests deeper than
    :data:`repro.ltl.parser.MAX_NESTING` (parentheses, unary chains and
    binary chains all count), before the recursion could overflow."""


class AutomatonError(ReproError):
    """Raised on structurally invalid automata (e.g. unknown states in a
    transition, a final-state set that is not a subset of the states)."""


class TranslationError(ReproError):
    """Raised when the LTL-to-Büchi translation cannot complete, e.g. when
    a configured state-count budget is exceeded."""


class IndexError_(ReproError):
    """Raised on invalid prefilter-index operations (duplicate contract
    identifiers, lookups on an unbuilt index, bad depth bounds)."""


class ProjectionError(ReproError):
    """Raised on invalid projection-store operations."""


class BudgetExceededError(ReproError):
    """Raised inside a permission check when its execution budget (a
    wall-clock deadline or a search-step cap) is exhausted.

    Attributes:
        reason: ``"deadline"`` or ``"steps"``.
    """

    def __init__(self, message: str, reason: str = "deadline"):
        super().__init__(message)
        self.reason = reason


class BrokerError(ReproError):
    """Raised on invalid broker operations (duplicate registration,
    querying an empty database when configured to reject it, ...)."""


class QueryBudgetError(BrokerError):
    """Raised by a query whose execution budget was exhausted while its
    degradation policy is :attr:`repro.broker.options.Degradation.FAIL`
    (callers that prefer an exception over a degraded answer)."""


class MonitorError(ReproError):
    """Raised on invalid monitoring operations — e.g. a snapshot citing
    events outside the contract vocabulary while the monitor runs with
    ``MonitorOptions.strict_vocabulary``, or advancing an unknown
    contract in a fleet engine."""


class WorkloadError(ReproError):
    """Raised on invalid workload-generation parameters."""


class DistError(ReproError):
    """Raised on distributed-broker failures: a shard that cannot be
    reached, a cluster topology mismatch, an operation the wire
    protocol cannot carry (e.g. ``explain`` witnesses)."""


class ProtocolError(DistError):
    """Raised on malformed wire traffic between the coordinator and a
    shard server: bad frame length, non-JSON payload, unknown op, or a
    response that does not match the request."""


class RetryableDistError(DistError):
    """A *transient* transport failure on a non-idempotent operation
    (``register``/``deregister``): the coordinator will not retry
    automatically — the op may or may not have been applied on the
    shard — but the caller may safely retry after verifying state
    (e.g. via ``status``; a duplicate ``register`` is rejected by
    name, so a blind retry is detected rather than double-applied)."""


class JournalError(BrokerError):
    """Raised on write-ahead-journal failures that must not be silently
    degraded: an append whose payload cannot be serialized, a journal
    file that cannot be opened or synced.  Torn or corrupt *tail*
    records are not errors — recovery truncates them (see
    :mod:`repro.broker.journal`)."""
