"""Physical memory: frames, pools, content tokens."""

import copy
import pickle

import pytest

from repro.errors import OutOfMemoryError
from repro.machine.config import MachineConfig
from repro.machine.memory import Frame, FrameKind, PhysicalMemory
from repro.machine.timing import MemoryLocation


@pytest.fixture
def memory() -> PhysicalMemory:
    config = MachineConfig(
        n_processors=2, local_pages_per_cpu=4, global_pages=8
    )
    return PhysicalMemory(config)


class TestFrame:
    def test_local_frame_requires_node(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.LOCAL, None, 0)

    def test_global_frame_forbids_node(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.GLOBAL, 1, 0)

    def test_location_for_owner_is_local(self):
        frame = Frame(FrameKind.LOCAL, 1, 0)
        assert frame.location_for(1) is MemoryLocation.LOCAL

    def test_location_for_other_is_remote(self):
        frame = Frame(FrameKind.LOCAL, 1, 0)
        assert frame.location_for(0) is MemoryLocation.REMOTE

    def test_global_frame_is_global_for_everyone(self):
        frame = Frame(FrameKind.GLOBAL, None, 3)
        assert frame.location_for(0) is MemoryLocation.GLOBAL
        assert frame.location_for(5) is MemoryLocation.GLOBAL

    def test_frames_are_value_objects(self):
        assert Frame(FrameKind.GLOBAL, None, 2) == Frame(FrameKind.GLOBAL, None, 2)
        assert Frame(FrameKind.LOCAL, 0, 2) != Frame(FrameKind.LOCAL, 1, 2)

    def test_str_forms(self):
        assert str(Frame(FrameKind.GLOBAL, None, 2)) == "global[2]"
        assert str(Frame(FrameKind.LOCAL, 1, 3)) == "local[cpu1][3]"


class TestAllocation:
    def test_global_allocation_distinct_frames(self, memory):
        frames = {memory.allocate_global() for _ in range(8)}
        assert len(frames) == 8

    def test_global_pool_exhausts(self, memory):
        for _ in range(8):
            memory.allocate_global()
        with pytest.raises(OutOfMemoryError):
            memory.allocate_global()

    def test_local_pools_are_per_cpu(self, memory):
        for _ in range(4):
            memory.allocate_local(0)
        with pytest.raises(OutOfMemoryError):
            memory.allocate_local(0)
        memory.allocate_local(1)  # cpu 1's pool unaffected

    def test_free_returns_frame_to_pool(self, memory):
        frame = memory.allocate_global()
        assert memory.global_available() == 7
        memory.free(frame)
        assert memory.global_available() == 8

    def test_double_free_rejected(self, memory):
        frame = memory.allocate_global()
        memory.free(frame)
        with pytest.raises(OutOfMemoryError):
            memory.free(frame)

    def test_occupancy_counters(self, memory):
        memory.allocate_local(0)
        memory.allocate_local(0)
        assert memory.local_in_use(0) == 2
        assert memory.local_available(0) == 2
        assert memory.local_in_use(1) == 0

    def test_allocated_frames_iterates_everything(self, memory):
        a = memory.allocate_global()
        b = memory.allocate_local(1)
        assert set(memory.allocated_frames()) == {a, b}


class TestContentTokens:
    def test_fresh_frame_holds_token_zero(self, memory):
        frame = memory.allocate_global()
        assert memory.read_token(frame) == 0

    def test_write_then_read(self, memory):
        frame = memory.allocate_local(0)
        memory.write_token(frame, 42)
        assert memory.read_token(frame) == 42

    def test_copy_moves_token(self, memory):
        src = memory.allocate_local(0)
        dst = memory.allocate_global()
        memory.write_token(src, 7)
        memory.copy(src, dst)
        assert memory.read_token(dst) == 7

    def test_freed_frame_loses_contents(self, memory):
        frame = memory.allocate_global()
        memory.write_token(frame, 9)
        memory.free(frame)
        with pytest.raises(OutOfMemoryError):
            memory.read_token(frame)

    def test_unallocated_access_rejected(self, memory):
        ghost = Frame(FrameKind.GLOBAL, None, 3)
        with pytest.raises(OutOfMemoryError):
            memory.write_token(ghost, 1)

    def test_copy_checks_source_then_destination(self, memory):
        ghost = Frame(FrameKind.GLOBAL, None, 3)
        live = memory.allocate_local(0)
        with pytest.raises(OutOfMemoryError, match="read from unallocated"):
            memory.copy(ghost, live)
        with pytest.raises(OutOfMemoryError, match="write to unallocated"):
            memory.copy(live, ghost)
        with pytest.raises(OutOfMemoryError, match="read from unallocated"):
            memory.copy(ghost, Frame(FrameKind.LOCAL, 1, 2))


class TestInternedFrames:
    """There is one ``Frame`` object per ``(kind, node, index)`` triple,
    so a pool hands the same one out again and again and a hand-built
    frame is that object; nothing about a frame's value or the pool's
    bookkeeping may show it."""

    def test_reallocation_yields_an_equal_zeroed_frame(self, memory):
        first = memory.allocate_local(0)
        memory.write_token(first, 9)
        memory.free(first)
        again = memory.allocate_local(0)
        assert again is first
        assert memory.read_token(again) == 0

    def test_pool_frames_equal_hand_built_ones(self, memory):
        for frame in (memory.allocate_global(), memory.allocate_local(1)):
            built = Frame(frame.kind, frame.node, frame.index)
            assert built is frame
            assert frame == built and hash(frame) == hash(built)
            assert {frame: "token"}[built] == "token"
            assert memory.read_token(built) == 0

    def test_two_machines_share_one_frame_per_triple(self, memory):
        config = MachineConfig(
            n_processors=2, local_pages_per_cpu=4, global_pages=8
        )
        other = PhysicalMemory(config)
        assert other.allocate_local(1) is memory.allocate_local(1)

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda frame: pickle.loads(pickle.dumps(frame)),
        ],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_frame_itself(self, memory, clone):
        for frame in (
            memory.allocate_global(),
            memory.allocate_local(1),
            Frame(FrameKind.SOCKET, 0, 5),
        ):
            assert clone(frame) is frame
        held = {"frames": [Frame(FrameKind.LOCAL, 0, 1)]}
        assert clone(held)["frames"][0] is held["frames"][0]

    @pytest.mark.parametrize(
        "kind, node, message",
        [
            (FrameKind.LOCAL, None, "local frames must name their processor"),
            (FrameKind.SOCKET, None, "socket frames must name their socket"),
            (FrameKind.GLOBAL, 1, "global frames have no owning processor"),
        ],
    )
    def test_each_invalid_triple_is_refused_every_time(
        self, kind, node, message
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Frame(kind, node, 0)

    def test_fields_cannot_be_assigned(self, memory):
        frame = memory.allocate_local(0)
        for name, value in (("kind", FrameKind.GLOBAL), ("node", 1), ("index", 3)):
            with pytest.raises(AttributeError):
                setattr(frame, name, value)
        with pytest.raises(AttributeError):
            frame.extra = 1
        with pytest.raises(AttributeError):
            del frame.index
        assert (frame.kind, frame.node, frame.index) == (FrameKind.LOCAL, 0, 0)

    def test_repr_is_the_dataclass_repr(self):
        """``ProtocolError`` records carry ``repr(frame)``."""
        assert repr(Frame(FrameKind.LOCAL, 1, 3)) == (
            "Frame(kind=<FrameKind.LOCAL: 'local'>, node=1, index=3)"
        )
        assert repr(Frame(FrameKind.GLOBAL, None, 2)) == (
            "Frame(kind=<FrameKind.GLOBAL: 'global'>, node=None, index=2)"
        )
        assert repr(Frame(FrameKind.SOCKET, 0, 7)) == (
            "Frame(kind=<FrameKind.SOCKET: 'socket'>, node=0, index=7)"
        )

    def test_frame_retired_while_free_is_never_handed_out(self, memory):
        dead = Frame(FrameKind.LOCAL, 0, 0)
        memory.take_offline(dead)
        handed = [memory.allocate_local(0) for _ in range(3)]
        assert dead not in handed
        assert memory.local_offline(0) == 1
        with pytest.raises(OutOfMemoryError):
            memory.allocate_local(0)

    def test_frame_retired_while_allocated_is_never_handed_out(self, memory):
        dead = memory.allocate_local(0)
        memory.take_offline(dead)
        memory.free(dead)
        handed = [memory.allocate_local(0) for _ in range(3)]
        assert dead not in handed
        with pytest.raises(OutOfMemoryError):
            memory.allocate_local(0)

    def test_local_frame_listings_sort_and_compare_as_values(self, memory):
        b = memory.allocate_local(1)
        a = memory.allocate_local(0)
        memory.allocate_global()
        assert memory.allocated_local_frames() == [a, b]
        everything = [
            Frame(FrameKind.LOCAL, cpu, index)
            for cpu in range(2)
            for index in range(4)
        ]
        assert memory.online_local_frames() == everything
        memory.take_offline(a)
        everything.remove(a)
        assert memory.online_local_frames() == everything
        assert memory.allocated_local_frames() == [a, b]  # until freed
