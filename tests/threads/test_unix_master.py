"""The Unix-master syscall model."""

from repro.sim.ops import Syscall
from repro.threads.unix_master import (
    PAPER_PATCHED_CALLS,
    UnixMaster,
    syscall,
)


class TestUnixMaster:
    def test_defaults_to_cpu_zero(self):
        assert UnixMaster().master_cpu == 0

    def test_unpatched_call_keeps_user_memory_traffic(self):
        master = UnixMaster()
        call = syscall("fstat", 120.0, [(10, 4, 2)])
        effective = master.effective_syscall(call)
        assert effective.touched == ((10, 4, 2),)

    def test_patched_call_loses_user_memory_traffic(self):
        """The paper's ad hoc fix for sigvec, fstat and ioctl."""
        master = UnixMaster(patched_calls=PAPER_PATCHED_CALLS)
        call = syscall("fstat", 120.0, [(10, 4, 2)])
        effective = master.effective_syscall(call)
        assert effective.touched == ()
        assert effective.service_us == 120.0

    def test_unknown_call_unaffected_by_patches(self):
        master = UnixMaster(patched_calls=PAPER_PATCHED_CALLS)
        call = syscall("read", 200.0, [(11, 8, 0)])
        assert master.effective_syscall(call).touched == ((11, 8, 0),)

    def test_calls_served_counter(self):
        master = UnixMaster()
        master.effective_syscall(syscall("read", 1.0))
        master.effective_syscall(syscall("write", 1.0))
        assert master.calls_served == 2

    def test_paper_patched_set(self):
        assert PAPER_PATCHED_CALLS == {"sigvec", "fstat", "ioctl"}

    def test_syscall_helper_builds_op(self):
        call = syscall("ioctl", 50.0, [(1, 2, 3)])
        assert isinstance(call, Syscall)
        assert call.name == "ioctl"
        assert call.service_us == 50.0
