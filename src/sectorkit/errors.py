"""Exception types shared across the toolkit, and the one byte and work budgets.

The CLI maps the exceptions onto its exit-code contract (usage error 2,
resource cap 3, consistency failure 4).

Every computation whose memory grows with its input estimates its peak
bytes from the sizes alone and passes the estimate to check_bytes before
allocating; one BYTES_CAP bounds them all. Likewise a computation whose
time grows faster than its memory counts its operations and passes the
count to check_work; one WORK_CAP bounds them all. The caps on report
records, printed digits and the tensor dimension are neither and stay
with the computations they bound.
"""

BYTES_CAP = 256 * 2**20
# The sector decomposition counts b^3 per dense b x b weight block: (2, 12)
# needs 1.4e9 and runs in about a second on two cores, (2, 13) and (3, 9)
# need 7.6e9 and are refused. The circle's whole-space gauge pass counts
# n log2 n per length-n FFT: grid 4096 needs 1.0e9 and runs in about 3 s,
# 8192 needs 4.4e9 and is refused.
WORK_CAP = 4 * 10**9


class DomainError(ValueError):
    """Input is outside an operation's stated domain."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured dense-matrix cap."""


class ConsistencyError(RuntimeError):
    """An internal counting or residual identity failed; indicates a bug."""


def _digits(need: float, cap: float) -> int:
    """Significant digits, 3 at least, at which `need` reads larger than `cap`."""
    digits = 3
    while digits < 17 and f"{need:.{digits}g}" == f"{cap:.{digits}g}":
        digits += 1
    return digits


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse `what`, estimated at nbytes, with ResourceLimitError over BYTES_CAP."""
    if nbytes > BYTES_CAP:
        need, cap = nbytes / 2**20, BYTES_CAP / 2**20
        digits = _digits(need, cap)
        raise ResourceLimitError(f"{what} needs ~{need:.{digits}g} MiB, cap {cap:.{digits}g} MiB")


def check_work(work: float, what: str) -> None:
    """Refuse `what`, estimated at `work` operations, with ResourceLimitError over WORK_CAP."""
    if work > WORK_CAP:
        digits = _digits(work, WORK_CAP)
        raise ResourceLimitError(
            f"{what} needs ~{work:.{digits}g} operations, cap {WORK_CAP:.{digits}g}"
        )
