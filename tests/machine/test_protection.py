"""The hardware protection lattice."""

import pytest

from repro.machine.protection import (
    PROT_NONE,
    PROT_READ,
    PROT_READ_WRITE,
    _ALLOWS,
    _NORMALIZED,
    Protection,
)


class TestProtection:
    def test_none_grants_nothing(self):
        assert not PROT_NONE.readable
        assert not PROT_NONE.writable

    def test_read_grants_reads_only(self):
        assert PROT_READ.readable
        assert not PROT_READ.writable

    def test_read_write_grants_both(self):
        assert PROT_READ_WRITE.readable
        assert PROT_READ_WRITE.writable

    def test_write_implies_read_after_normalization(self):
        """The ACE has no write-only pages."""
        normalized = Protection.WRITE.normalized()
        assert normalized.readable
        assert normalized.writable

    def test_normalize_is_idempotent(self):
        for prot in (PROT_NONE, PROT_READ, PROT_READ_WRITE):
            assert prot.normalized() == prot.normalized().normalized()

    def test_allows_is_the_lattice_order(self):
        assert PROT_READ_WRITE.allows(PROT_READ)
        assert PROT_READ_WRITE.allows(PROT_READ_WRITE)
        assert PROT_READ.allows(PROT_NONE)
        assert not PROT_READ.allows(PROT_READ_WRITE)
        assert not PROT_NONE.allows(PROT_READ)

    def test_everything_allows_none(self):
        for prot in (PROT_NONE, PROT_READ, PROT_READ_WRITE):
            assert prot.allows(PROT_NONE)

    @pytest.mark.parametrize(
        "a, b",
        [
            (PROT_READ, PROT_READ),
            (PROT_READ_WRITE, PROT_READ_WRITE),
        ],
    )
    def test_allows_is_reflexive(self, a, b):
        assert a.allows(b)

    def test_hot_path_tables_are_the_methods(self):
        """The fault path indexes these tables by member; they must say
        what ``normalized`` and ``allows`` say for every pair."""
        members = [Protection(value) for value in range(4)]
        for granted in members:
            assert _NORMALIZED[granted] is granted.normalized()
            for wanted in members:
                assert _ALLOWS[granted][wanted] is granted.allows(wanted)

    def test_flag_composition(self):
        combined = Protection.READ | Protection.WRITE
        assert combined == PROT_READ_WRITE
