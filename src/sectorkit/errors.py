"""Exception types shared across the toolkit, the one byte and work budgets,
and the frozen value base of every model and report type.

The CLI maps the exceptions onto its exit-code contract (usage error 2,
resource cap 3, consistency failure 4).

Every computation whose memory grows with its input estimates its peak
bytes from the sizes alone and passes the estimate to check_bytes before
allocating; one BYTES_CAP bounds them all. Likewise a computation whose
time grows faster than its memory counts its operations and passes the
count to check_work; one WORK_CAP bounds them all. The caps on report
records, printed digits and the tensor dimension are neither and stay
with the computations they bound.

Value lives here because every sectorkit module imports this leaf before
numpy, the numpy-free ``tableaux`` path included.
"""

BYTES_CAP = 256 * 2**20
# The sector decomposition weighs each gather of its Newton steps as 24
# operations: (2, 17) and (8, 8) run in about 8 s on two cores, (2, 18) and
# (3, 12) are refused. The circle's whole-space gauge pass counts n log2 n
# per length-n FFT: grid 4096 needs 1.0e9 and runs in about 3 s, 8192 needs
# 4.4e9 and is refused. The cover census weighs each step of its vector
# passes as 6 operations; the byte cap refuses every cover before this cap.
WORK_CAP = 4 * 10**9
# Bytes cli._render spends on one entry of a dense list of [re, im] pairs, as
# equiv's r x r intertwiner (highest_weight.certificate_bytes charges it):
# the entry's slot in its row (8), the fresh list _round_floats makes of it
# (80) with its row slot (8), the pure-Python JSON encoder's chunks for it,
# which indent selects over the C encoder (three new strings of 64 bytes and
# five slots of the chunk list as it grows, 90), and the joined report (47):
# 425. Measured: 370-378 traced, about 400 resident, at equiv (9, 3),
# (12, 3) and (35, 2). It holds for _render's encoder settings only.
RENDERED_ENTRY_BYTES = 448


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


class Value:
    """Immutable record over the field names in a subclass's ``_fields``.

    The constructor binds positional and keyword arguments to the fields,
    taking missing ones from ``_defaults``; a missing or unknown argument
    raises TypeError. It then calls ``_validate()``, which may check the
    fields and replace them through ``object.__setattr__``. Equality and
    hash go by type and fields (a subclass declared with ``eq=False``
    compares and hashes by identity instead), the repr reads
    ``Name(field=value)``, assigning or deleting an attribute raises
    AttributeError, and copies and pickles rebuild through the validating
    constructor. Written out instead of ``@dataclass(frozen=True)``, whose
    import loads ``inspect`` and whose decorator compiles code per class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(cls._fields)} arguments, {len(args)} given"
            )
        bound = dict(zip(cls._fields, args))
        for name in kwargs:
            if name in bound or name not in cls._fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected argument {name!r}")
        bound.update(kwargs)
        for name in cls._fields:
            if name in bound:
                value = bound[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self) -> None:
        """Check the bound fields; a subclass raises or normalizes here."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        """The fields by name, in order; containers are shared, not copied."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
