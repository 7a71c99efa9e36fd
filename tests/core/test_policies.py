"""Placement policies: threshold, baselines, pragmas, reconsideration."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.policies import (
    AllGlobalEverythingPolicy,
    AllGlobalPolicy,
    AllLocalPolicy,
    DEFAULT_MOVE_THRESHOLD,
    HomeNodePolicy,
    MoveThresholdPolicy,
    Pragma,
    PragmaPolicy,
    ReconsiderPolicy,
)
from repro.core.policies.registry import POLICY_ENTRIES, build_policy
from repro.core.state import AccessKind, PlacementDecision
from repro.errors import ConfigurationError
from repro.machine.memory import Frame, FrameKind
from repro.sim.harness import run_once
from repro.vm.vm_object import shared_object
from repro.workloads.gfetch import Gfetch
from repro.workloads.imatmult import IMatMult
from tests.conftest import make_rig


@dataclass(frozen=True)
class FakePage:
    """Minimal PageLike for policy unit tests."""

    page_id: int
    writable_data: bool = True
    zero_fill: bool = True
    pragma: Optional[Pragma] = None

    @property
    def global_frame(self) -> Frame:
        return Frame(FrameKind.GLOBAL, None, self.page_id)


READ = AccessKind.READ
WRITE = AccessKind.WRITE
LOCAL = PlacementDecision.LOCAL
GLOBAL = PlacementDecision.GLOBAL


class TestMoveThresholdPolicy:
    def test_default_threshold_is_four(self):
        assert DEFAULT_MOVE_THRESHOLD == 4
        assert MoveThresholdPolicy().threshold == 4

    def test_fresh_pages_are_cacheable(self):
        policy = MoveThresholdPolicy(threshold=4)
        page = FakePage(1)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL

    def test_pins_when_threshold_passed(self):
        policy = MoveThresholdPolicy(threshold=2)
        page = FakePage(1)
        for _ in range(2):
            policy.note_move(page)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL  # 2 moves allowed
        policy.note_move(page)
        assert policy.cache_policy(page, READ, 0) is GLOBAL
        assert policy.is_pinned(1)

    def test_threshold_zero_pins_on_first_move(self):
        policy = MoveThresholdPolicy(threshold=0)
        page = FakePage(1)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL
        policy.note_move(page)
        assert policy.cache_policy(page, WRITE, 0) is GLOBAL

    def test_counts_are_per_page(self):
        policy = MoveThresholdPolicy(threshold=1)
        a, b = FakePage(1), FakePage(2)
        policy.note_move(a)
        policy.note_move(a)
        assert policy.is_pinned(1)
        assert not policy.is_pinned(2)
        assert policy.move_count(2) == 0

    def test_free_resets_history(self):
        policy = MoveThresholdPolicy(threshold=0)
        page = FakePage(1)
        policy.note_move(page)
        assert policy.is_pinned(1)
        policy.note_page_freed(page)
        assert not policy.is_pinned(1)
        assert policy.move_count(1) == 0

    def test_pinned_count(self):
        policy = MoveThresholdPolicy(threshold=0)
        policy.note_move(FakePage(1))
        policy.note_move(FakePage(2))
        assert policy.pinned_count == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            MoveThresholdPolicy(threshold=-1)

    def test_name_embeds_threshold(self):
        assert "7" in MoveThresholdPolicy(threshold=7).name


class TestBaselinePolicies:
    def test_all_global_sends_writable_data_global(self):
        policy = AllGlobalPolicy()
        assert policy.cache_policy(FakePage(1, writable_data=True), READ, 0) is GLOBAL

    def test_all_global_keeps_readonly_data_local(self):
        """Code and read-only data still replicate in the Tglobal runs."""
        policy = AllGlobalPolicy()
        page = FakePage(1, writable_data=False)
        assert policy.cache_policy(page, READ, 0) is LOCAL

    def test_all_local_always_local(self):
        policy = AllLocalPolicy()
        for kind in AccessKind:
            assert policy.cache_policy(FakePage(1), kind, 3) is LOCAL

    def test_all_global_everything(self):
        policy = AllGlobalEverythingPolicy()
        page = FakePage(1, writable_data=False)
        assert policy.cache_policy(page, READ, 0) is GLOBAL


class TestPragmaPolicy:
    def test_cacheable_pragma_forces_local(self):
        policy = PragmaPolicy(MoveThresholdPolicy(threshold=0))
        page = FakePage(1, pragma=Pragma.CACHEABLE)
        policy.note_move(page)  # would pin under the base policy
        assert policy.cache_policy(page, WRITE, 0) is LOCAL

    def test_noncacheable_pragma_forces_global(self):
        policy = PragmaPolicy(MoveThresholdPolicy(threshold=4))
        page = FakePage(1, pragma=Pragma.NONCACHEABLE)
        assert policy.cache_policy(page, READ, 0) is GLOBAL

    def test_unpragmad_pages_delegate(self):
        base = MoveThresholdPolicy(threshold=0)
        policy = PragmaPolicy(base)
        page = FakePage(1)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL
        policy.note_move(page)
        assert policy.cache_policy(page, WRITE, 0) is GLOBAL

    def test_pragma_moves_do_not_burn_base_budget(self):
        base = MoveThresholdPolicy(threshold=0)
        policy = PragmaPolicy(base)
        page = FakePage(1, pragma=Pragma.CACHEABLE)
        policy.note_move(page)
        assert base.move_count(1) == 0

    def test_free_passes_through(self):
        base = MoveThresholdPolicy(threshold=0)
        policy = PragmaPolicy(base)
        page = FakePage(1)
        policy.note_move(page)
        policy.note_page_freed(page)
        assert not base.is_pinned(1)

    def test_name_mentions_base(self):
        assert "move-threshold" in PragmaPolicy(MoveThresholdPolicy(threshold=4)).name

    def test_cacheable_page_stays_local_through_the_fault_path(self):
        """Not just the decision: after 19 ownership moves under a
        threshold-1 base the frame handed back is still a local one."""
        rig = make_rig(
            n_processors=2,
            policy=PragmaPolicy(MoveThresholdPolicy(threshold=1)),
        )
        hot = shared_object("hot", 1)
        hot.pragma = Pragma.CACHEABLE
        region = rig.space.map_object(hot)
        for i in range(20):
            frame = rig.faults.handle(i % 2, region.vpage_at(0), WRITE)
        assert frame.kind is FrameKind.LOCAL


@pytest.mark.parametrize(
    "workload",
    [
        lambda: Gfetch(total_fetches=40_000, buffer_pages=8),
        lambda: IMatMult(n=24),
    ],
    ids=["Gfetch", "IMatMult"],
)
@pytest.mark.parametrize("name", list(POLICY_ENTRIES))
def test_wrappers_are_inert_without_pragmas(name, workload):
    """On a pragma-free workload a wrapping policy changes nothing: every
    hook and every duck-typed probe (``bind_machine``, ...) reaches the
    policy it wraps."""

    def run(wrap):
        result = run_once(workload(), wrap(build_policy(name))).as_dict()
        del result["policy"]
        return result

    bare = run(lambda policy: policy)
    assert run(PragmaPolicy) == bare
    assert run(HomeNodePolicy) == bare


class TestReconsiderPolicy:
    def test_pin_expires_after_interval(self):
        policy = ReconsiderPolicy(threshold=0, interval_us=100.0)
        page = FakePage(1)
        policy.tick(0.0)
        policy.note_move(page)
        assert policy.cache_policy(page, WRITE, 0) is GLOBAL
        policy.tick(50.0)
        assert policy.cache_policy(page, WRITE, 0) is GLOBAL
        policy.tick(150.0)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL
        assert policy.unpin_count == 1

    def test_move_budget_resets_on_unpin(self):
        policy = ReconsiderPolicy(threshold=1, interval_us=100.0)
        page = FakePage(1)
        policy.tick(0.0)
        policy.note_move(page)
        policy.note_move(page)
        assert policy.is_pinned(1)
        policy.tick(200.0)
        assert policy.move_count(1) == 0

    def test_free_clears_pin_timestamp(self):
        policy = ReconsiderPolicy(threshold=0, interval_us=100.0)
        page = FakePage(1)
        policy.note_move(page)
        policy.note_page_freed(page)
        policy.tick(1000.0)
        assert policy.unpin_count == 0

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ReconsiderPolicy(interval_us=0.0)


class TestPolicyProtocol:
    def test_default_hooks_are_noops(self):
        policy = AllLocalPolicy()
        policy.note_move(FakePage(1))
        policy.note_page_freed(FakePage(1))
        policy.tick(5.0)

    def test_describe_returns_name(self):
        assert AllLocalPolicy().describe() == "all-local"
