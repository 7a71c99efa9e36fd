"""The Rosetta-like MMU: translations, protections, the one-VA rule."""

import pytest

from repro.errors import MappingError
from repro.machine.memory import Frame, FrameKind
from repro.machine.mmu import MMU
from repro.machine.protection import PROT_READ, PROT_READ_WRITE, Protection


@pytest.fixture
def mmu() -> MMU:
    return MMU(cpu=0)


def frame(index: int) -> Frame:
    return Frame(FrameKind.GLOBAL, None, index)


class TestEnter:
    def test_enter_and_translate(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        entry = mmu.translate(10, PROT_READ)
        assert entry is mmu.lookup(10)
        assert (entry.vpage, entry.frame, entry.protection) == (
            10, frame(0), PROT_READ
        )

    def test_missing_translation_faults(self, mmu):
        """A fault is a value: ``None``, not an exception."""
        assert mmu.translate(10, PROT_READ) is None

    def test_insufficient_protection_faults(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        assert mmu.translate(10, PROT_READ_WRITE) is None
        assert mmu.lookup(10).protection == PROT_READ

    def test_write_mapping_allows_reads(self, mmu):
        """WRITE implies READ on the ACE."""
        mmu.enter(10, frame(0), Protection.WRITE)
        assert mmu.translate(10, PROT_READ).frame == frame(0)

    def test_enter_with_no_rights_rejected(self, mmu):
        with pytest.raises(MappingError):
            mmu.enter(10, frame(0), Protection.NONE)

    def test_one_virtual_address_per_frame(self, mmu):
        """Rosetta's restriction (Section 2.1)."""
        mmu.enter(10, frame(0), PROT_READ)
        with pytest.raises(MappingError):
            mmu.enter(11, frame(0), PROT_READ)

    def test_same_frame_same_vpage_updates_protection(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        mmu.enter(10, frame(0), PROT_READ_WRITE)
        assert mmu.translate(10, PROT_READ_WRITE).frame == frame(0)

    def test_replacing_translation_frees_old_frame_slot(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        mmu.enter(10, frame(1), PROT_READ)
        # frame 0 is no longer mapped, so it may appear elsewhere.
        mmu.enter(11, frame(0), PROT_READ)
        assert mmu.translate(11, PROT_READ).frame == frame(0)

    def test_replacing_translation_drops_reverse_entry(self, mmu):
        """The stale frame must not resolve back to the vpage."""
        mmu.enter(10, frame(0), PROT_READ)
        mmu.enter(10, frame(1), PROT_READ)
        assert mmu.vpage_of(frame(0)) is None
        assert mmu.vpage_of(frame(1)) == 10

    def test_one_vpage_per_frame_violation_reports_both_vpages(self, mmu):
        from repro.errors import MappingError

        mmu.enter(10, frame(0), PROT_READ)
        with pytest.raises(MappingError) as excinfo:
            mmu.enter(11, frame(0), PROT_READ)
        message = str(excinfo.value)
        assert "10" in message and "11" in message


class TestRemove:
    def test_remove_returns_entry(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        entry = mmu.remove(10)
        assert entry is not None and entry.frame == frame(0)
        assert mmu.translate(10, PROT_READ) is None

    def test_remove_missing_is_none(self, mmu):
        assert mmu.remove(99) is None

    def test_remove_frame(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        entry = mmu.remove_frame(frame(0))
        assert entry is not None and entry.vpage == 10
        assert len(mmu) == 0

    def test_remove_frame_missing_is_none(self, mmu):
        assert mmu.remove_frame(frame(5)) is None

    def test_remove_drops_reverse_entry(self, mmu):
        """After remove, the frame is free to map at another VA."""
        mmu.enter(10, frame(0), PROT_READ)
        mmu.remove(10)
        assert mmu.vpage_of(frame(0)) is None
        mmu.enter(11, frame(0), PROT_READ)
        assert mmu.translate(11, PROT_READ).frame == frame(0)

    def test_remove_frame_drops_forward_entry(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        mmu.remove_frame(frame(0))
        assert mmu.lookup(10) is None


class TestProtect:
    def test_downgrade_causes_write_fault(self, mmu):
        mmu.enter(10, frame(0), PROT_READ_WRITE)
        mmu.protect(10, PROT_READ)
        assert mmu.translate(10, PROT_READ_WRITE) is None
        assert mmu.translate(10, PROT_READ).frame == frame(0)

    def test_protect_to_none_removes(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        mmu.protect(10, Protection.NONE)
        assert mmu.lookup(10) is None

    def test_protect_missing_mapping_rejected(self, mmu):
        with pytest.raises(MappingError):
            mmu.protect(10, PROT_READ)


class TestIntrospection:
    def test_lookup(self, mmu):
        assert mmu.lookup(10) is None
        mmu.enter(10, frame(0), PROT_READ)
        assert mmu.lookup(10).protection == PROT_READ

    def test_vpage_of(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        assert mmu.vpage_of(frame(0)) == 10
        assert mmu.vpage_of(frame(1)) is None

    def test_entries_and_len(self, mmu):
        mmu.enter(10, frame(0), PROT_READ)
        mmu.enter(11, frame(1), PROT_READ_WRITE)
        assert len(mmu) == 2
        assert {e.vpage for e in mmu.entries()} == {10, 11}
