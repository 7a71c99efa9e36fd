"""Per-CPU time accounting and reference counters."""

import pytest

from repro.machine.cpu import CPU, ReferenceCounters
from repro.machine.machine import Machine
from repro.machine.config import MachineConfig
from repro.machine.timing import MemoryLocation


class TestCPU:
    def test_time_charging(self):
        cpu = CPU(0)
        cpu.charge_user(10.0)
        cpu.charge_system(5.0)
        cpu.charge_user(2.5)
        assert cpu.user_time_us == 12.5
        assert cpu.system_time_us == 5.0
        assert cpu.total_time_us == 17.5

    def test_negative_charge_rejected(self):
        cpu = CPU(0)
        with pytest.raises(ValueError):
            cpu.charge_user(-1.0)
        with pytest.raises(ValueError):
            cpu.charge_system(-1.0)

    def test_cpu_owns_an_mmu_with_its_id(self):
        assert CPU(3).mmu.cpu == 3


class TestReferenceCounters:
    def test_record_and_totals(self):
        counters = ReferenceCounters()
        counters.record(MemoryLocation.LOCAL, reads=5, writes=2)
        counters.record(MemoryLocation.GLOBAL, reads=1, writes=0)
        assert counters.total() == 8
        assert counters.total_to(MemoryLocation.LOCAL) == 7
        assert counters.total_to(MemoryLocation.GLOBAL) == 1
        assert counters.total_to(MemoryLocation.REMOTE) == 0

    def test_merged_with(self):
        a = ReferenceCounters()
        b = ReferenceCounters()
        a.record(MemoryLocation.LOCAL, 3, 1)
        b.record(MemoryLocation.LOCAL, 2, 2)
        b.record(MemoryLocation.GLOBAL, 0, 4)
        merged = a.merged_with(b)
        assert merged.total_to(MemoryLocation.LOCAL) == 8
        assert merged.total_to(MemoryLocation.GLOBAL) == 4
        # merge does not mutate the operands
        assert a.total() == 4
        assert b.total() == 8


class TestMachine:
    def test_machine_builds_cpus(self):
        machine = Machine(MachineConfig(n_processors=3))
        assert machine.n_cpus == 3
        assert [c.id for c in machine.cpus] == [0, 1, 2]
        assert machine.cpu(2).id == 2

    def test_machine_total_times(self):
        machine = Machine(MachineConfig(n_processors=2))
        machine.cpu(0).charge_user(10)
        machine.cpu(1).charge_user(5)
        machine.cpu(1).charge_system(3)
        assert machine.total_user_time_us() == 15
        assert machine.total_system_time_us() == 3

    def test_machine_timing_uses_config_page_size(self):
        machine = Machine(MachineConfig(page_size_words=512))
        assert machine.timing.page_size_words == 512
