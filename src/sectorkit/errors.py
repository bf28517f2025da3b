"""Exception types shared across the toolkit, and the one byte budget.

The CLI maps the exceptions onto its exit-code contract (usage error 2,
resource cap 3, consistency failure 4).

Every computation whose memory grows with its input estimates its peak
bytes from the sizes alone and passes the estimate to check_bytes before
allocating; one BYTES_CAP bounds them all. The caps on report records,
printed digits, dense block work and the tensor dimension are not byte
estimates and stay with the computations they bound.
"""

BYTES_CAP = 256 * 2**20


class DomainError(ValueError):
    """Input is outside an operation's stated domain."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured dense-matrix cap."""


class ConsistencyError(RuntimeError):
    """An internal counting or residual identity failed; indicates a bug."""


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse `what`, estimated at nbytes, with ResourceLimitError over BYTES_CAP."""
    if nbytes > BYTES_CAP:
        raise ResourceLimitError(
            f"{what} needs ~{nbytes / 2**20:.3g} MiB, cap {BYTES_CAP // 2**20} MiB"
        )
