"""Engine ↔ policy wiring: ticks, invalidations, multi-task accounting."""

import pytest

from repro.core.policies import MoveThresholdPolicy, ReconsiderPolicy
from repro.sim.engine import Engine
from repro.sim.ops import Compute, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.vm_object import shared_object
from tests.conftest import make_rig


class TestInvalidationWiring:
    def test_engine_applies_policy_invalidations(self):
        """An expired pin's invalidation request actually unmaps."""
        policy = ReconsiderPolicy(threshold=0, interval_us=1.0)
        rig = make_rig(n_processors=2, policy=policy)
        region = rig.space.map_object(shared_object("d", 1))
        vpage = region.vpage_at(0)

        def writer(cpu_hint):
            # Ping-pong enough to pin, then compute long enough for the
            # pin to expire, then read again.
            for _ in range(3):
                yield MemBlock(vpage, writes=4)
                yield Compute(10.0)
            for _ in range(400):
                yield Compute(50.0)
            yield MemBlock(vpage, reads=4)

        threads = [
            CThread(name="a", index=0, body=writer(0)),
            CThread(name="b", index=1, body=writer(1)),
        ]
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(2),
            policy_tick_ops=16,
        )
        engine.run(threads)
        assert policy.unpin_count >= 1
        # The final reads re-faulted (the invalidation dropped mappings)
        # and re-replicated the page locally.
        page = region.vm_object.resident_page(0)
        entry = rig.numa.directory.get(page.page_id)
        assert entry.local_copies  # cacheable again

    def test_invalidation_of_freed_page_is_harmless(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        from repro.core.state import AccessKind

        rig.faults.handle(0, region.vpage_at(0), AccessKind.WRITE)
        page = region.vm_object.resident_page(0)
        page_id = page.page_id
        rig.pool.free(page, cpu=0)
        assert rig.numa.invalidate_page_id(page_id, acting_cpu=0) is False

    def test_invalidate_live_page(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        from repro.core.state import AccessKind

        rig.faults.handle(0, region.vpage_at(0), AccessKind.WRITE)
        page = region.vm_object.resident_page(0)
        assert rig.numa.invalidate_page_id(page.page_id, acting_cpu=0)
        assert rig.machine.cpu(0).mmu.lookup(region.vpage_at(0)) is None


class TestTaskAccounting:
    def test_single_task_accounting_matches_user_time(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        body = iter(
            [Compute(100.0), MemBlock(region.vpage_at(0), reads=10)]
        )
        engine = Engine(rig.machine, rig.faults, AffinityScheduler(4))
        engine.run([CThread(name="t", index=0, body=body)])
        assert engine.task_user_us[0] == rig.machine.total_user_time_us()

    def test_unknown_task_raises(self, rig):
        region = rig.space.map_object(shared_object("d", 1))
        body = iter([MemBlock(region.vpage_at(0), reads=1)])
        engine = Engine(rig.machine, rig.faults, AffinityScheduler(4))
        with pytest.raises(KeyError):
            engine.run(
                [CThread(name="t", index=0, body=body, task=9)]
            )


class TestParserNegatives:
    def test_unknown_command_exits(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bad_processor_count_is_caught_at_run(self, capsys):
        from repro.cli import main

        # Configuration errors exit with the stable usage-error code (2)
        # and a one-line message instead of a traceback.
        assert main(["--quick", "--processors", "0", "table3"]) == 2
        assert "error" in capsys.readouterr().err
