"""Address spaces: region mapping, resolution, faults on holes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine.protection import PROT_READ, PROT_READ_WRITE
from repro.vm.address_space import AddressSpace, SegmentationFault
from repro.vm.vm_object import shared_object, text_object


class TestMapping:
    def test_sequential_mapping_leaves_guard_gaps(self):
        space = AddressSpace()
        a = space.map_object(shared_object("a", 2))
        b = space.map_object(shared_object("b", 2))
        assert b.start_vpage > a.end_vpage  # at least one guard page

    def test_explicit_placement(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 2), at_vpage=0x500)
        assert region.start_vpage == 0x500

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.map_object(shared_object("a", 4), at_vpage=0x500)
        with pytest.raises(ConfigurationError):
            space.map_object(shared_object("b", 4), at_vpage=0x502)

    def test_double_mapping_same_object_rejected(self):
        space = AddressSpace()
        obj = shared_object("a", 1)
        space.map_object(obj)
        with pytest.raises(ConfigurationError):
            space.map_object(obj)

    def test_region_of(self):
        space = AddressSpace()
        obj = shared_object("a", 1)
        region = space.map_object(obj)
        assert space.region_of(obj) is region

    def test_region_of_unmapped_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressSpace().region_of(shared_object("a", 1))

    def test_regions_listing(self):
        space = AddressSpace()
        space.map_object(shared_object("a", 1))
        space.map_object(shared_object("b", 1))
        assert [r.vm_object.name for r in space.regions] == ["a", "b"]


class TestResolution:
    def test_resolve_returns_region_and_offset(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 4))
        found, offset = space.resolve(region.start_vpage + 3)
        assert found is region
        assert offset == 3

    def test_resolve_hole_raises_segfault(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 2))
        with pytest.raises(SegmentationFault):
            space.resolve(region.end_vpage)  # the guard page

    def test_resolve_unmapped_low_memory(self):
        with pytest.raises(SegmentationFault):
            AddressSpace().resolve(0)

    @given(
        placements=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_resolve_is_the_linear_scan(self, placements):
        """The bisected index against its definition: objects mapped in
        any order, explicitly placed (``at_vpage``) or sequential, resolve
        as a scan over the regions would — guard gaps and page 0 fault —
        and an overlapping placement is rejected exactly when a scan
        finds the overlap."""
        space = AddressSpace(first_vpage=20)
        mapped = []
        for index, (at_vpage, n_pages) in enumerate(placements):
            vm_object = shared_object(f"o{index}", n_pages)
            if at_vpage is not None and any(
                at_vpage < region.end_vpage
                and region.start_vpage < at_vpage + n_pages
                for region in mapped
            ):
                with pytest.raises(ConfigurationError):
                    space.map_object(vm_object, at_vpage=at_vpage)
            else:
                mapped.append(space.map_object(vm_object, at_vpage=at_vpage))
        assert space.regions == mapped
        low = min(region.start_vpage for region in mapped)
        high = max(region.end_vpage for region in mapped)
        for vpage in [0, *range(max(0, low - 2), high + 2)]:
            covering = [r for r in mapped if r.contains(vpage)]
            if not covering:
                with pytest.raises(SegmentationFault):
                    space.resolve(vpage)
                continue
            (expected,) = covering
            region, offset = space.resolve(vpage)
            assert region is expected
            assert offset == expected.offset_of(vpage)


class TestVMRegion:
    def test_geometry(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 3), at_vpage=100)
        assert region.n_pages == 3
        assert region.end_vpage == 103
        assert list(region.vpages()) == [100, 101, 102]
        assert region.contains(102) and not region.contains(103)

    def test_vpage_at_and_offset_of_roundtrip(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 3), at_vpage=100)
        for offset in range(3):
            assert region.offset_of(region.vpage_at(offset)) == offset

    def test_vpage_at_out_of_range(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 3))
        with pytest.raises(ConfigurationError):
            region.vpage_at(3)

    def test_offset_of_outside_rejected(self):
        space = AddressSpace()
        region = space.map_object(shared_object("a", 3), at_vpage=100)
        with pytest.raises(ConfigurationError):
            region.offset_of(99)

    def test_max_prot_follows_object_writability(self):
        space = AddressSpace()
        writable = space.map_object(shared_object("a", 1))
        readonly = space.map_object(text_object("b", 1))
        assert writable.max_prot == PROT_READ_WRITE
        assert readonly.max_prot == PROT_READ
