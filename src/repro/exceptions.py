"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to distinguish the finer-grained categories below.
"""


class ReproError(Exception):
    """Base class of every exception raised by this package."""


class CryptoError(ReproError):
    """A cryptographic primitive was misused or an internal check failed."""


class KeyMismatchError(CryptoError):
    """Ciphertexts from different key pairs were combined."""


class EncodingRangeError(CryptoError):
    """A plaintext value does not fit the configured signed-encoding range."""


class DecryptionError(CryptoError):
    """A ciphertext failed to decrypt to a valid plaintext."""


class ProtocolError(ReproError):
    """A two-party sub-protocol received malformed or inconsistent input."""


class TransportError(ProtocolError):
    """The inter-cloud link failed (connect, framing, or lifecycle)."""


class PeerDisconnected(TransportError):
    """The remote endpoint closed the link mid-protocol.

    Raised instead of hanging: a dead peer surfaces as this exception on
    the very next (or in-flight) exchange.
    """


class ShardFanInError(ProtocolError):
    """The sharded scan's fan-in stage received batches that do not tile
    the check window.

    Carries the offending ``shard_id`` (when the contribution could be
    attributed) and the window bounds, so an operator can tell *which*
    worker desynchronized instead of only that one did.
    """

    def __init__(self, text: str, shard_id: int | None = None,
                 window: tuple[int, int] | None = None):
        detail = text
        if shard_id is not None:
            detail += f" (shard {shard_id})"
        if window is not None:
            detail += f" in window [{window[0]}, {window[1]})"
        super().__init__(detail)
        self.shard_id = shard_id
        self.window = window


class RemoteS2Error(TransportError):
    """The S2 service failed to service a request and reported why.

    Carries the remote exception class name in :attr:`kind` so callers
    can distinguish, say, a ``KeyMismatchError`` on the daemon from a
    connection-level failure.
    """

    def __init__(self, kind: str, text: str):
        super().__init__(f"S2 dispatch failed ({kind}): {text}")
        self.kind = kind
        self.text = text


class QueryError(ReproError):
    """A top-k query was malformed (bad attributes, k out of range, ...)."""


class StaleRelationError(QueryError):
    """The relation was mutated after this query/session pinned a version.

    Carries the version the caller expected and the version the server
    is actually serving, so clients can refresh their view (re-open the
    session, re-read ``client.version``) and retry deliberately instead
    of silently querying a relation that no longer exists.
    """

    def __init__(self, expected: int, current: int):
        super().__init__(
            f"relation version {expected} is stale (server now at "
            f"version {current})"
        )
        self.expected = expected
        self.current = current


class MutationError(ReproError):
    """An encrypted-relation mutation was malformed or impossible
    (unknown object id, ragged row, score out of encoding range, ...)."""


class JobError(ReproError):
    """A submitted query job ended without producing a result."""


class JobCancelled(JobError):
    """The job was cancelled (cooperatively, at a round boundary)."""


class JobTimeout(JobError):
    """The job exceeded its per-job deadline and was abandoned at a
    round boundary (or while still queued)."""


class DataError(ReproError):
    """A relation or dataset violates the shape the scheme requires."""
