"""One byte and one work budget.

Every byte estimate refuses through errors.check_bytes, every work
estimate through errors.check_work.
"""

import contextlib

import numpy as np
import pytest

from sectorkit import (
    circle_theta, cover_document, cover_quant, errors, highest_weight, linalg, parastat_equiv,
    schur_weyl, tensor_rep,
)
from sectorkit.cover_quant import FiniteGroup, sector_census, symmetric_cover
from sectorkit.errors import ResourceLimitError


class Admitted(Exception):
    """Raised by the stub that stands in for what an admitted estimate allocates."""


def admitted(*args):
    raise Admitted


def cyclic_group(order):
    idx = np.arange(order)
    return FiniteGroup(cayley=(idx[:, None] + idx) % order, labels=tuple(map(str, idx)))


# the phrase each refusal names -> a request every estimate admits at 256 MiB
ESTIMATES = {
    "enumerating": lambda: tensor_rep._check_group_cost(2, 8),
    "commutant basis": lambda: tensor_rep._check_commutant_cost(4, 3),
    "sector decomposition": lambda: schur_weyl._check_sector_cost(8, 8),
    "restricted to two carriers": lambda: parastat_equiv._check_equiv_cost(8, 2),
    "exact equivalence certificate": lambda: highest_weight.check_certificate_cost(13, 3),
    "successive restriction": lambda: linalg.unitary_intertwiner([np.eye(10)], [np.eye(10)]),
    "regular representation": lambda: cover_document._regular_irreps(cyclic_group(128), 0),
    # the census estimate does not grow with the cover; S_6's stacks take ~28 MiB
    "cover census": lambda: sector_census(symmetric_cover(6, 6)),
    "gauge check": lambda: circle_theta.check_gauge_cost(4096),
    "plane-wave eigenvalues": lambda: circle_theta.spectrum_rows(1.0, 4096, 4),
}


@pytest.mark.parametrize("phrase", ESTIMATES)
def test_every_byte_estimate_reads_the_one_cap(phrase, monkeypatch):
    monkeypatch.setattr(cover_quant, "_fiber_blocks", admitted)
    with contextlib.suppress(Admitted):
        ESTIMATES[phrase]()
    monkeypatch.setattr(errors, "BYTES_CAP", 2**20)
    with pytest.raises(ResourceLimitError, match=f"{phrase}.* cap 1 MiB"):
        ESTIMATES[phrase]()


@pytest.mark.parametrize(
    "cap,nbytes,sizes",
    [
        (2**28, 2**28 + 1, "needs ~256.000001 MiB, cap 256 MiB"),
        (2**28, 677 * 2**20, "needs ~677 MiB, cap 256 MiB"),
        (2**19, 2**19 + 1, "needs ~0.500001 MiB, cap 0.5 MiB"),
        (1000, 10**15, "needs ~9.54e+08 MiB, cap 0.000954 MiB"),
    ],
)
def test_a_refused_estimate_reads_larger_than_the_cap(cap, nbytes, sizes, monkeypatch):
    # both sizes to 3 significant digits, or to as many more as it takes
    # for the estimate to read larger; a cap below 1 MiB is not 0
    monkeypatch.setattr(errors, "BYTES_CAP", cap)
    with pytest.raises(ResourceLimitError) as refused:
        errors.check_bytes(nbytes, "x")
    assert str(refused.value) == f"x {sizes}"


@pytest.mark.parametrize(
    "work,sizes",
    [
        (4.001e9, "needs ~4.001e+09 operations, cap 4e+09"),
        (4 * 10**9 + 1, "needs ~4000000001 operations, cap 4000000000"),
        (7.6e9, "needs ~7.6e+09 operations, cap 4e+09"),
    ],
)
def test_a_refused_operation_count_reads_larger_than_the_cap(work, sizes):
    # the same digits rule as the byte refusals, against WORK_CAP = 4e9
    with pytest.raises(ResourceLimitError) as refused:
        errors.check_work(work, "x")
    assert str(refused.value) == f"x {sizes}"


# the phrase each refusal names -> a request every work estimate admits at 4e9
WORK_ESTIMATES = {
    "Newton steps": lambda: schur_weyl._check_sector_cost(3, 11),
    "gauge check": lambda: circle_theta.check_gauge_cost(4096),
}


@pytest.mark.parametrize("phrase", WORK_ESTIMATES)
def test_every_work_estimate_reads_the_one_cap(phrase, monkeypatch):
    WORK_ESTIMATES[phrase]()
    monkeypatch.setattr(errors, "WORK_CAP", 10**8)
    with pytest.raises(ResourceLimitError, match=f"{phrase}.* operations, cap 1e\\+08"):
        WORK_ESTIMATES[phrase]()
