"""Unit tests for the raw NAND array."""

import pytest

from repro.errors import BadAddressError, ProgramError
from repro.flash.constants import FlashParams
from repro.flash.nand import NandFlash


@pytest.fixture
def nand():
    return NandFlash(FlashParams(n_blocks=8, pages_per_block=4))


def test_geometry(nand):
    assert nand.n_pages == 32
    assert nand.block_of(0) == 0
    assert nand.block_of(4) == 1
    assert list(nand.pages_of_block(1)) == [4, 5, 6, 7]


def test_program_and_read(nand):
    nand.program_page(3, b"hello")
    assert nand.read_page(3) == b"hello"


def test_unwritten_page_reads_empty(nand):
    assert nand.read_page(9) == b""


def test_program_twice_without_erase_fails(nand):
    nand.program_page(0, b"a")
    with pytest.raises(ProgramError):
        nand.program_page(0, b"b")


def test_erase_enables_reprogram(nand):
    nand.program_page(0, b"a")
    nand.erase_block(0)
    nand.program_page(0, b"b")
    assert nand.read_page(0) == b"b"


def test_erase_clears_all_pages_of_block(nand):
    for ppn in (4, 5, 6, 7):
        nand.program_page(ppn, bytes([ppn]))
    nand.erase_block(1)
    for ppn in (4, 5, 6, 7):
        assert nand.read_page(ppn) == b""
        nand.program_page(ppn, b"again")      # erased: programmable


def test_erase_count_tracks_wear(nand):
    assert nand.erase_counts[2] == 0
    nand.erase_block(2)
    nand.erase_block(2)
    assert nand.erase_counts[2] == 2


def test_oversized_payload_rejected(nand):
    big = b"x" * (nand.params.page_size + 1)
    with pytest.raises(BadAddressError):
        nand.program_page(0, big)


def test_bad_addresses_rejected(nand):
    with pytest.raises(BadAddressError):
        nand.read_page(32)
    with pytest.raises(BadAddressError):
        nand.program_page(-1, b"")
    with pytest.raises(BadAddressError):
        nand.erase_block(8)
