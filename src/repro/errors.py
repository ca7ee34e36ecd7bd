"""Exception hierarchy for the GhostDB reproduction.

Every error raised by this library derives from :class:`GhostDBError`
so applications can catch library failures with a single clause.
"""

from __future__ import annotations


class GhostDBError(Exception):
    """Base class for all errors raised by this library."""


class FlashError(GhostDBError):
    """Base class for NAND-flash level failures."""


class ProgramError(FlashError):
    """A page was programmed without having been erased first."""


class OutOfSpaceError(FlashError):
    """The flash device has no free blocks left, even after GC."""


class BadAddressError(FlashError):
    """A physical or logical address is out of range or unmapped."""


class PowerLoss(FlashError):
    """The token lost power mid-operation (injected fault).

    Raised by the fault-injection layer at a chosen write ordinal and
    latched by :class:`~repro.flash.nand.NandFlash` until
    ``power_on()`` is called: every flash program/read after the cut
    fails the same way, exactly as a dead token would behave.
    ``partial`` is what of the interrupted page program reached the
    array: ``None`` (nothing), a prefix -- the torn write the per-page
    checksums must detect -- or every byte, a page never mapped.
    """

    def __init__(self, message: str = "power loss", partial: bytes | None = None):
        super().__init__(message)
        self.partial = partial


class FlashCorruption(FlashError):
    """A page read failed its checksum even after retries.

    Transient bit-flips are healed by the NAND-internal read retry
    (modelling the controller's ECC retry path); a *persistent*
    mismatch means a torn write or corrupted image blob and surfaces
    as this error so recovery can quarantine the page instead of
    serving silent garbage.
    """


class RamExhausted(GhostDBError):
    """An operator asked for more secure RAM than is available.

    The whole point of GhostDB's operator design is to avoid this: a
    well-formed plan allocates at most the configured buffer budget.
    """


class ChannelError(GhostDBError):
    """Misuse of the Untrusted<->Secure communication channel."""


class LeakError(ChannelError):
    """An attempt was made to send Hidden data out of the Secure token."""


class SchemaError(GhostDBError):
    """Invalid schema declaration (non-tree shape, bad reference, ...)."""


class SqlError(GhostDBError):
    """Base class for SQL front-end failures."""


class SqlSyntaxError(SqlError):
    """The query text could not be parsed."""


class BindError(SqlError):
    """The query references unknown tables/columns or illegal joins."""


class PlanError(GhostDBError):
    """No valid query execution plan could be produced."""


class CompactionError(GhostDBError):
    """Incremental compaction could not run or was interrupted."""


class CompactionDeclined(CompactionError):
    """The compaction advisor refused to start (or continue) a job.

    Raised *before* any shadow structure is written when the priced
    flash headroom is below the requirement, so callers never see a
    half-folded table die on :class:`OutOfSpaceError` mid-step.  The
    message carries the advisor's verdict and pricing breakdown.
    """


class PersistError(GhostDBError):
    """Snapshot or restore of the durable token image failed or was
    refused (e.g. a snapshot requested mid-compaction)."""


class ImageError(PersistError):
    """The durable image file is unreadable: wrong magic/version, torn
    or truncated write, or a checksum mismatch."""


class ShardDown(GhostDBError):
    """A fleet token crashed or was killed (injected fault).

    Raised by the fleet fault injector when a statement touches a
    shard scheduled to die; :class:`~repro.shard.fleet.ShardedGhostDB`
    converts it into :class:`ShardUnavailable` and marks the shard
    down.
    """


class ShardUnavailable(GhostDBError):
    """A statement needed a shard that is marked down.

    The fleet fails the statement cleanly (naming the dead shard)
    instead of hanging, and leaves every live shard at its
    pre-statement generations.
    """


class StorageError(GhostDBError):
    """Record/heap level failure (bad row width, unknown file, ...)."""


class IndexError_(GhostDBError):
    """Index construction or lookup failure."""
