"""Adaptive policies and the declarative registry behind them."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.policies import (
    MoveThresholdPolicy,
    Pragma,
    ReconsiderPolicy,
)
from repro.core.policies.adaptive import (
    AdaptiveThresholdPolicy,
    BanditPolicy,
    BandwidthAwarePolicy,
    parse_candidates,
)
from repro.core.policies.registry import (
    POLICY_ENTRIES,
    parse_policy_arg,
)
from repro.core.state import AccessKind, PlacementDecision
from repro.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.memory import Frame, FrameKind
from repro.machine.timing import BUS_EDGE


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
REMOTE = PlacementDecision.REMOTE


def pin(policy, page, moves):
    for _ in range(moves):
        policy.note_move(page)


class TestAdaptiveThresholdPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="backoff"):
            AdaptiveThresholdPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError, match="max_interval_us"):
            AdaptiveThresholdPolicy(
                interval_us=1000.0, max_interval_us=500.0
            )
        with pytest.raises(ConfigurationError, match="contended_owners"):
            AdaptiveThresholdPolicy(contended_owners=1)
        with pytest.raises(ConfigurationError, match="negative"):
            AdaptiveThresholdPolicy(contended_threshold=-1)

    def test_pins_like_reconsider(self):
        policy = AdaptiveThresholdPolicy(threshold=2, interval_us=100.0)
        page = FakePage(1)
        pin(policy, page, 2)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL
        policy.note_move(page)
        assert policy.cache_policy(page, READ, 0) is GLOBAL

    def test_pin_expires_and_invalidates(self):
        policy = AdaptiveThresholdPolicy(threshold=0, interval_us=100.0)
        page = FakePage(1)
        pin(policy, page, 1)
        assert policy.is_pinned(1)
        policy.tick(50.0)
        assert policy.is_pinned(1)  # not yet
        policy.tick(100.0)
        assert not policy.is_pinned(1)
        assert policy.take_invalidations() == [1]
        assert policy.take_invalidations() == []  # drained
        # The expired page's move history is forgiven entirely.
        assert policy.cache_policy(page, WRITE, 0) is LOCAL

    def test_backoff_grows_the_next_pin(self):
        policy = AdaptiveThresholdPolicy(
            threshold=0, interval_us=100.0, backoff=2.0
        )
        page = FakePage(1)
        pin(policy, page, 1)
        policy.tick(100.0)  # first pin lived interval_us
        assert not policy.is_pinned(1)
        pin(policy, page, 1)  # earns the pin back
        policy.tick(250.0)  # 150µs into a 200µs pin: still held
        assert policy.is_pinned(1)
        policy.tick(300.0)  # 200µs: the doubled lifetime expires
        assert not policy.is_pinned(1)

    def test_backoff_is_capped(self):
        policy = AdaptiveThresholdPolicy(
            threshold=0, interval_us=100.0, backoff=10.0,
            max_interval_us=300.0,
        )
        page = FakePage(1)
        pin(policy, page, 1)
        policy.tick(100.0)
        pin(policy, page, 1)
        # Second pin is capped at 300µs, not 1000µs.
        policy.tick(100.0 + 300.0)
        assert not policy.is_pinned(1)

    def test_contended_pages_pin_sooner(self):
        policy = AdaptiveThresholdPolicy(
            threshold=4, contended_owners=3, interval_us=1e9,
            max_interval_us=1e9,
        )
        page = FakePage(1)
        assert policy.effective_threshold(1) == 4
        for cpu in range(3):
            policy.note_owner(page, cpu)
        assert policy.effective_threshold(1) == 2  # half the budget
        pin(policy, page, 3)
        assert policy.is_pinned(1)
        # A privately-written page still gets the full budget.
        other = FakePage(2)
        pin(policy, other, 3)
        assert not policy.is_pinned(2)

    def test_move_counts_decay_for_unpinned_pages(self):
        policy = AdaptiveThresholdPolicy(threshold=4, interval_us=100.0)
        page = FakePage(1)
        pin(policy, page, 4)  # at the budget, not over it
        assert not policy.is_pinned(1)
        policy.tick(100.0)  # one interval: counts halve, 4 -> 2
        pin(policy, page, 2)  # 2 + 2 = 4: still within budget
        assert not policy.is_pinned(1)
        pin(policy, page, 1)
        assert policy.is_pinned(1)

    def test_backoff_one_degenerates_to_reconsider(self):
        adaptive = AdaptiveThresholdPolicy(
            threshold=0, interval_us=100.0, backoff=1.0,
            contended_owners=99,
        )
        reference = ReconsiderPolicy(threshold=0, interval_us=100.0)
        page = FakePage(1)
        for policy in (adaptive, reference):
            for round_ in range(3):
                pin(policy, page, 1)
                assert policy.is_pinned(1)
                policy.tick((round_ + 1) * 100.0)
                assert not policy.is_pinned(1)
                policy.take_invalidations()

    def test_freed_pages_forget_everything(self):
        policy = AdaptiveThresholdPolicy(threshold=0, interval_us=100.0)
        page = FakePage(1)
        policy.note_owner(page, 0)
        pin(policy, page, 1)
        policy.tick(100.0)  # next pin would be 200µs
        policy.note_page_freed(page)
        pin(policy, page, 1)
        policy.tick(200.0)  # a recycled id starts back at interval_us
        assert not policy.is_pinned(1)


class TestBandwidthAwarePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="congestion"):
            BandwidthAwarePolicy(congestion=1.5)
        with pytest.raises(ConfigurationError, match="window"):
            BandwidthAwarePolicy(window_us=0.0)

    def test_unbound_policy_is_plain_move_threshold(self):
        policy = BandwidthAwarePolicy(threshold=1)
        page = FakePage(1)
        policy.note_owner(page, 0)  # safe with no ledger
        assert policy.cache_policy(page, WRITE, 1) is LOCAL
        pin(policy, page, 2)
        assert policy.cache_policy(page, READ, 0) is GLOBAL

    @staticmethod
    def bound(congestion=0.5):
        policy = BandwidthAwarePolicy(threshold=99, congestion=congestion)
        policy.bind_machine(Machine(MachineConfig(n_processors=2)))
        return policy

    def test_uncongested_writes_migrate(self):
        policy = self.bound()
        page = FakePage(1)
        policy.note_owner(page, 0)
        assert policy.cache_policy(page, WRITE, 1) is LOCAL

    def test_congested_writes_avoid_migration(self):
        policy = self.bound()
        page = FakePage(1)
        policy.note_owner(page, 0)
        # Saturate the bus well past the congestion threshold.
        policy.contention.record(BUS_EDGE, 1e6, 0.0)
        assert policy.contention.utilization(BUS_EDGE) > 0.5
        decision = policy.cache_policy(page, WRITE, 1)
        assert decision in (REMOTE, GLOBAL)
        # Reads and the owner's own writes are unaffected.
        assert policy.cache_policy(page, READ, 1) is LOCAL
        assert policy.cache_policy(page, WRITE, 0) is LOCAL

    def test_migration_traffic_feeds_the_ledger(self):
        policy = self.bound()
        page = FakePage(1)
        policy.note_owner(page, 0)
        assert policy.contention.utilization(BUS_EDGE) == 0.0
        policy.note_owner(page, 1)  # an ownership transfer
        assert policy.contention.utilization(BUS_EDGE) > 0.0

    def test_ledger_decays_over_simulated_time(self):
        policy = self.bound()
        page = FakePage(1)
        policy.note_owner(page, 0)
        policy.contention.record(BUS_EDGE, 15_000.0, 0.0)
        assert policy.cache_policy(page, WRITE, 1) is not LOCAL
        # Many idle windows later the burst has faded away.
        policy.tick(50 * 20_000.0)
        assert policy.cache_policy(page, WRITE, 1) is LOCAL

    def test_pinned_pages_stay_global(self):
        policy = BandwidthAwarePolicy(threshold=0)
        page = FakePage(1)
        pin(policy, page, 1)
        assert policy.cache_policy(page, WRITE, 0) is GLOBAL


class TestParseCandidates:
    def test_comma_and_plus_separators(self):
        assert parse_candidates("0,2,4,8") == (0, 2, 4, 8)
        assert parse_candidates("0+2+4+8") == (0, 2, 4, 8)

    def test_errors(self):
        with pytest.raises(ConfigurationError, match="empty"):
            parse_candidates("")
        with pytest.raises(ConfigurationError, match="negative"):
            parse_candidates("0,-2")
        with pytest.raises(ConfigurationError, match="bad candidate"):
            parse_candidates("0,two")


class TestBanditPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="probability"):
            BanditPolicy(epsilon=2.0)
        with pytest.raises(ConfigurationError, match="epoch"):
            BanditPolicy(epoch_us=0.0)
        with pytest.raises(ConfigurationError, match="strategy"):
            BanditPolicy(strategy="thompson")

    def test_starts_nearest_the_paper_threshold(self):
        assert BanditPolicy().current_threshold("data") == 4
        assert (
            BanditPolicy(candidates="0,9").current_threshold("data") == 0
        )  # tie on distance resolves to the first candidate

    def test_plays_the_current_arm(self):
        policy = BanditPolicy(candidates="2")
        page = FakePage(1)
        pin(policy, page, 2)
        assert policy.cache_policy(page, WRITE, 0) is LOCAL
        policy.note_move(page)
        assert policy.cache_policy(page, READ, 0) is GLOBAL

    def test_same_seed_same_decisions(self):
        histories = []
        for _ in range(2):
            policy = BanditPolicy(epsilon=1.0, seed=7)
            for epoch in range(1, 20):
                policy.tick(epoch * 25_000.0)
            histories.append(list(policy.history))
        assert histories[0] == histories[1]
        different = BanditPolicy(epsilon=1.0, seed=8)
        for epoch in range(1, 20):
            different.tick(epoch * 25_000.0)
        assert different.history != histories[0]

    def test_arm_switch_unpins_and_invalidates_the_class(self):
        # With epsilon=1 every epoch explores; some early epoch must
        # move the data class off its starting arm.
        policy = BanditPolicy(epsilon=1.0, seed=7, candidates="0,8")
        data = FakePage(1, writable_data=True)
        degraded = FakePage(2, writable_data=True)
        pin(policy, data, 1)  # arm 0 pins on the first move
        policy.note_degraded(degraded)
        for epoch in range(1, 50):
            policy.tick(epoch * 25_000.0)
            if policy.current_threshold("data") != 0:
                break
        else:
            pytest.fail("exploration never left the starting arm")
        assert not policy.is_pinned(1)
        assert 1 in policy.take_invalidations()
        # The manager's degraded pin is not the arm's to revoke.
        assert policy.is_pinned(2)

    def test_ucb_explores_unpulled_arms_first(self):
        policy = BanditPolicy(strategy="ucb", seed=3)
        assert policy.current_threshold("data") == 4
        policy.tick(25_000.0)
        # The first epoch jumps to the first never-pulled arm...
        assert policy.current_threshold("data") == 0
        for epoch in range(2, 10):
            policy.tick(epoch * 25_000.0)
        # ...and with no machine bound (so no rewards, no pulls) UCB
        # has no reason to move again.
        assert policy.current_threshold("data") == 0

    def test_reward_loop_runs_through_own_metrics(self):
        policy = BanditPolicy(seed=1)
        policy.bind_machine(Machine(MachineConfig(n_processors=2)))
        policy.tick(25_000.0)
        assert "bandit_data_refs" in policy.metrics.as_dict()

    def test_byte_identical_results_per_seed(self):
        from repro.exp.spec import RunSpec

        def run(seed):
            spec = RunSpec(
                workload="Gfetch", quick=True, policy="bandit",
                policy_params=(("epsilon", 0.5), ("seed", seed)),
                n_processors=3,
            )
            return spec.run().to_json()

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestPolicyRegistry:
    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(ConfigurationError, match="move-threshold"):
            POLICY_ENTRIES.resolve("nosuch")

    def test_unknown_parameter_lists_the_schema(self):
        entry = POLICY_ENTRIES.resolve("bandit")
        with pytest.raises(ConfigurationError, match="epsilon"):
            entry.validate_params({"nosuch": 1})

    def test_parameter_types_are_enforced(self):
        entry = POLICY_ENTRIES.resolve("adaptive-threshold")
        with pytest.raises(ConfigurationError, match="expects int"):
            entry.validate_params({"threshold": "four"})
        with pytest.raises(ConfigurationError, match="got bool"):
            entry.validate_params({"threshold": True})
        # ints widen to float parameters; nothing else coerces.
        assert entry.validate_params({"backoff": 3}) == {"backoff": 3.0}

    def test_spec_threshold_fills_the_schema(self):
        policy = POLICY_ENTRIES.resolve("move-threshold").build(threshold=9)
        assert policy.threshold == 9
        # An explicit parameter wins over the spec-level threshold.
        policy = POLICY_ENTRIES.resolve("move-threshold").build(
            threshold=9, params={"threshold": 2}
        )
        assert policy.threshold == 2

    def test_parse_policy_arg(self):
        name, params = parse_policy_arg("bandit:seed=7,epsilon=0.2")
        assert name == "bandit"
        assert params == {"seed": 7, "epsilon": 0.2}
        name, params = parse_policy_arg("bandit:candidates=0+2+4")
        assert params == {"candidates": "0+2+4"}
        assert parse_policy_arg("all-global") == ("all-global", {})
        with pytest.raises(ConfigurationError, match="expected name:key"):
            parse_policy_arg("bandit:seed")
        with pytest.raises(ConfigurationError, match="unknown policy"):
            parse_policy_arg("nosuch:seed=7")


class TestKeywordOnlyShims:
    """Policy constructors take their parameters by keyword only."""

    def test_positional_and_keyword_together_is_an_error(self):
        with pytest.raises(TypeError, match="positional"):
            MoveThresholdPolicy(3, threshold=4)

    def test_too_many_positionals_is_an_error(self):
        with pytest.raises(TypeError, match="positional"):
            MoveThresholdPolicy(3, 4)
        with pytest.raises(TypeError, match="positional"):
            ReconsiderPolicy(2, 5_000.0)

    def test_keywords_set_every_parameter(self):
        policy = ReconsiderPolicy(threshold=2, interval_us=5_000.0)
        assert (policy.threshold, policy.interval_us) == (2, 5_000.0)
