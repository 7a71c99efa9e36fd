"""Property tests for the MMU and address space."""

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.machine.memory import Frame, FrameKind
from repro.machine.mmu import MMU
from repro.machine.protection import PROT_READ, PROT_READ_WRITE
from repro.vm.address_space import AddressSpace, SegmentationFault
from repro.vm.vm_object import shared_object

#: Op encoding: (action, vpage, frame_index, writable)
mmu_ops = st.lists(
    st.tuples(
        st.sampled_from(["enter", "remove", "protect_down", "remove_frame"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    ),
    max_size=60,
)


class TestMMUModelEquivalence:
    @given(ops=mmu_ops)
    @settings(max_examples=80, deadline=None)
    def test_mmu_matches_a_dictionary_model(self, ops):
        """The MMU behaves like a dict with the one-VA-per-frame rule."""
        mmu = MMU(cpu=0)
        model: Dict[int, tuple] = {}  # vpage -> (frame_index, writable)

        def frame(index):
            return Frame(FrameKind.GLOBAL, None, index)

        for action, vpage, frame_index, writable in ops:
            prot = PROT_READ_WRITE if writable else PROT_READ
            if action == "enter":
                mapped_elsewhere = any(
                    fi == frame_index and vp != vpage
                    for vp, (fi, _) in model.items()
                )
                if mapped_elsewhere:
                    try:
                        mmu.enter(vpage, frame(frame_index), prot)
                        raise AssertionError("one-VA rule not enforced")
                    except MappingError:
                        pass
                else:
                    mmu.enter(vpage, frame(frame_index), prot)
                    model[vpage] = (frame_index, writable)
            elif action == "remove":
                mmu.remove(vpage)
                model.pop(vpage, None)
            elif action == "remove_frame":
                mmu.remove_frame(frame(frame_index))
                model = {
                    vp: entry
                    for vp, entry in model.items()
                    if entry[0] != frame_index
                }
            elif action == "protect_down":
                if vpage in model:
                    mmu.protect(vpage, PROT_READ)
                    model[vpage] = (model[vpage][0], False)

            # The MMU and the model must agree on every address.
            for vp in range(8):
                entry = mmu.lookup(vp)
                if vp in model:
                    expected_frame, expected_writable = model[vp]
                    assert entry is not None
                    assert entry.frame.index == expected_frame
                    assert entry.protection.writable == expected_writable
                else:
                    assert entry is None
            assert len(mmu) == len(model)

    @given(ops=mmu_ops)
    @settings(max_examples=40, deadline=None)
    def test_translate_agrees_with_lookup(self, ops):
        mmu = MMU(cpu=0)
        for action, vpage, frame_index, writable in ops:
            if action != "enter":
                continue
            try:
                mmu.enter(
                    vpage,
                    Frame(FrameKind.GLOBAL, None, frame_index),
                    PROT_READ_WRITE if writable else PROT_READ,
                )
            except MappingError:
                continue
        for vpage in range(8):
            # A fault translates to None, for a missing mapping and for
            # insufficient rights alike; a hit to the live entry itself.
            entry = mmu.lookup(vpage)
            assert mmu.translate(vpage, PROT_READ) is entry
            writable = entry is not None and entry.protection.writable
            assert mmu.translate(vpage, PROT_READ_WRITE) is (
                entry if writable else None
            )


class TestAddressSpaceProperties:
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=16), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sequential_mappings_never_overlap(self, sizes):
        space = AddressSpace()
        regions = [
            space.map_object(shared_object(f"o{i}", size))
            for i, size in enumerate(sizes)
        ]
        for a in regions:
            for b in regions:
                if a is b:
                    continue
                assert (
                    a.end_vpage <= b.start_vpage
                    or b.end_vpage <= a.start_vpage
                )

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=16), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_resolve_partitions_the_space(self, sizes):
        """Every vpage resolves to exactly the region containing it, and
        guard pages fault."""
        space = AddressSpace()
        regions = [
            space.map_object(shared_object(f"o{i}", size))
            for i, size in enumerate(sizes)
        ]
        for region in regions:
            for vpage in region.vpages():
                found, offset = space.resolve(vpage)
                assert found is region
                assert region.vpage_at(offset) == vpage
            try:
                space.resolve(region.end_vpage)
                guarded = False
            except SegmentationFault:
                guarded = True
            # The page after a region is either a guard hole or the next
            # region's start; with sequential mapping it is always a hole.
            assert guarded
