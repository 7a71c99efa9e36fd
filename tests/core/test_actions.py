"""Action executor: cost charging and content movement."""

import pytest

from repro.core.actions import ActionExecutor
from repro.core.directory import DirectoryEntry
from repro.core.stats import NUMAStats
from repro.errors import ProtocolError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.protection import PROT_READ
from repro.machine.timing import MemoryLocation


@pytest.fixture
def machine() -> Machine:
    return Machine(
        MachineConfig(n_processors=3, local_pages_per_cpu=8, global_pages=16)
    )


@pytest.fixture
def stats() -> NUMAStats:
    return NUMAStats()


@pytest.fixture
def executor(machine, stats) -> ActionExecutor:
    return ActionExecutor(machine, stats)


def make_entry(machine) -> DirectoryEntry:
    frame = machine.memory.allocate_global()
    return DirectoryEntry(page_id=1, global_frame=frame)


class TestSync:
    def test_sync_copies_content_back(self, machine, executor):
        entry = make_entry(machine)
        local = machine.memory.allocate_local(1)
        machine.memory.write_token(local, 42)
        entry.local_copies[1] = local
        executor.sync(entry, copy_cpu=1, acting_cpu=1)
        assert machine.memory.read_token(entry.global_frame) == 42

    def test_sync_charges_system_time(self, machine, executor):
        entry = make_entry(machine)
        entry.local_copies[1] = machine.memory.allocate_local(1)
        executor.sync(entry, copy_cpu=1, acting_cpu=1)
        expected = machine.timing.page_copy_us(
            MemoryLocation.LOCAL, MemoryLocation.GLOBAL
        )
        assert machine.cpu(1).system_time_us == pytest.approx(expected)

    def test_remote_sync_costs_more(self, machine, executor):
        entry = make_entry(machine)
        entry.local_copies[1] = machine.memory.allocate_local(1)
        executor.sync(entry, copy_cpu=1, acting_cpu=0)
        expected = machine.timing.page_copy_us(
            MemoryLocation.REMOTE, MemoryLocation.GLOBAL
        )
        assert machine.cpu(0).system_time_us == pytest.approx(expected)

    def test_sync_without_copy_is_a_protocol_error(self, machine, executor):
        entry = make_entry(machine)
        with pytest.raises(ProtocolError):
            executor.sync(entry, copy_cpu=2, acting_cpu=0)

    def test_sync_counted(self, machine, executor, stats):
        entry = make_entry(machine)
        entry.local_copies[0] = machine.memory.allocate_local(0)
        executor.sync(entry, copy_cpu=0, acting_cpu=0)
        assert stats.syncs == 1


class TestFlushAndUnmap:
    def test_flush_frees_frames_and_drops_mappings(self, machine, executor):
        entry = make_entry(machine)
        local = machine.memory.allocate_local(1)
        entry.local_copies[1] = local
        machine.cpu(1).mmu.enter(10, local, PROT_READ)
        entry.record_mapping(1, 10, PROT_READ, local)
        executor.flush(entry, [1], acting_cpu=0)
        assert entry.local_copies == {}
        assert machine.cpu(1).mmu.lookup(10) is None
        assert machine.memory.local_in_use(1) == 0

    def test_flush_of_copyless_cpu_is_harmless(self, machine, executor):
        entry = make_entry(machine)
        executor.flush(entry, [0, 1, 2], acting_cpu=0)

    def test_unmap_all_keeps_global_frame(self, machine, executor, stats):
        entry = make_entry(machine)
        machine.cpu(0).mmu.enter(10, entry.global_frame, PROT_READ)
        entry.record_mapping(0, 10, PROT_READ, entry.global_frame)
        executor.unmap_all(entry, acting_cpu=0)
        assert machine.cpu(0).mmu.lookup(10) is None
        assert stats.unmaps == 1
        machine.memory.read_token(entry.global_frame)  # still allocated

    def test_cross_cpu_drop_charges_shootdown(self, machine, executor):
        entry = make_entry(machine)
        machine.cpu(2).mmu.enter(10, entry.global_frame, PROT_READ)
        entry.record_mapping(2, 10, PROT_READ, entry.global_frame)
        executor.drop_mapping(entry, 2, acting_cpu=0)
        assert machine.cpu(0).system_time_us == pytest.approx(
            machine.timing.shootdown_us
        )
        assert machine.cpu(2).system_time_us == 0.0


class TestCopyAndZeroFill:
    def test_copy_to_local_moves_content(self, machine, executor):
        entry = make_entry(machine)
        machine.memory.write_token(entry.global_frame, 9)
        frame = executor.copy_to_local(entry, cpu=2, acting_cpu=2)
        assert frame.node == 2
        assert machine.memory.read_token(frame) == 9
        assert entry.local_copies[2] == frame

    def test_copy_to_local_is_idempotent(self, machine, executor, stats):
        entry = make_entry(machine)
        first = executor.copy_to_local(entry, cpu=2, acting_cpu=2)
        second = executor.copy_to_local(entry, cpu=2, acting_cpu=2)
        assert first == second
        assert stats.copies_to_local == 1

    def test_zero_fill_local(self, machine, executor, stats):
        entry = make_entry(machine)
        machine.memory.write_token(entry.global_frame, 5)
        frame = executor.zero_fill_local(entry, cpu=1)
        assert machine.memory.read_token(frame) == 0
        assert stats.zero_fills == 1
        assert machine.cpu(1).system_time_us == pytest.approx(
            machine.timing.zero_fill_us(MemoryLocation.LOCAL)
        )

    def test_zero_fill_global(self, machine, executor):
        entry = make_entry(machine)
        machine.memory.write_token(entry.global_frame, 5)
        frame = executor.zero_fill_global(entry, cpu=1)
        assert frame == entry.global_frame
        assert machine.memory.read_token(frame) == 0
