"""Operation value objects."""

import pytest

from repro.sim.ops import Barrier, Compute, FreeObjectPages, MemBlock, Syscall
from repro.vm.vm_object import shared_object


class TestMemBlock:
    def test_valid_block(self):
        block = MemBlock(vpage=10, reads=3, writes=1)
        assert block.reads == 3 and block.writes == 1

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            MemBlock(vpage=10, reads=0, writes=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MemBlock(vpage=10, reads=-1, writes=1)
        with pytest.raises(ValueError):
            MemBlock(vpage=10, reads=1, writes=-1)

    def test_blocks_are_hashable_values(self):
        assert MemBlock(1, 2, 3) == MemBlock(1, 2, 3)
        assert hash(MemBlock(1, 2, 3)) == hash(MemBlock(1, 2, 3))


class TestOtherOps:
    def test_compute(self):
        assert Compute(5.0).us == 5.0
        assert Compute(0).us == 0

    @pytest.mark.parametrize("us", [-1.0, float("nan"), float("inf")])
    def test_compute_rejects_negative_or_non_finite_time(self, us):
        # The engine adds a burst to the CPU clock without a check.
        with pytest.raises(ValueError):
            Compute(us)

    def test_barrier_carries_name(self):
        assert Barrier("phase1").name == "phase1"

    def test_syscall_defaults(self):
        call = Syscall(service_us=10.0)
        assert call.touched == () and call.name == ""

    def test_free_object_pages_holds_object(self):
        obj = shared_object("x", 1)
        assert FreeObjectPages(obj).vm_object is obj
