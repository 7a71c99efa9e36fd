"""The timing model: per-word costs, blocks, copies, zero-fill."""

import dataclasses
import pickle

import pytest

from repro.machine.config import TimingParameters
from repro.machine.machine import Machine
from repro.machine.memory import Frame, FrameKind
from repro.machine.timing import MemoryLocation, TimingModel
from repro.machine.topology import resolve_machine


@pytest.fixture
def timing() -> TimingModel:
    return TimingModel(TimingParameters(), page_size_words=1024)


@pytest.fixture
def flat_timing() -> TimingModel:
    """No bulk-transfer discount, for exact arithmetic."""
    return TimingModel(
        TimingParameters(bulk_transfer_factor=1.0), page_size_words=1024
    )


class TestWordCosts:
    def test_local_fetch(self, timing):
        assert timing.fetch_us(MemoryLocation.LOCAL) == 0.65

    def test_global_fetch(self, timing):
        assert timing.fetch_us(MemoryLocation.GLOBAL) == 1.5

    def test_remote_fetch_slower_than_global(self, timing):
        assert timing.fetch_us(MemoryLocation.REMOTE) > timing.fetch_us(
            MemoryLocation.GLOBAL
        )

    def test_local_store(self, timing):
        assert timing.store_us(MemoryLocation.LOCAL) == 0.84

    def test_global_store(self, timing):
        assert timing.store_us(MemoryLocation.GLOBAL) == 1.4


class TestBlockCosts:
    def test_block_is_linear(self, timing):
        single = timing.block_us(MemoryLocation.LOCAL, 1, 0)
        assert timing.block_us(MemoryLocation.LOCAL, 10, 0) == pytest.approx(
            10 * single
        )

    def test_block_mixes_reads_and_writes(self, timing):
        cost = timing.block_us(MemoryLocation.GLOBAL, 3, 2)
        assert cost == pytest.approx(3 * 1.5 + 2 * 1.4)

    def test_empty_block_is_free(self, timing):
        assert timing.block_us(MemoryLocation.LOCAL, 0, 0) == 0.0

    def test_negative_counts_rejected(self, timing):
        with pytest.raises(ValueError):
            timing.block_us(MemoryLocation.LOCAL, -1, 0)


class TestPageOperations:
    def test_copy_global_to_local(self, flat_timing):
        cost = flat_timing.page_copy_us(
            MemoryLocation.GLOBAL, MemoryLocation.LOCAL
        )
        assert cost == pytest.approx(1024 * (1.5 + 0.84))

    def test_sync_local_to_global(self, flat_timing):
        cost = flat_timing.page_copy_us(
            MemoryLocation.LOCAL, MemoryLocation.GLOBAL
        )
        assert cost == pytest.approx(1024 * (0.65 + 1.4))

    def test_bulk_factor_discounts_copies(self, timing, flat_timing):
        discounted = timing.page_copy_us(
            MemoryLocation.GLOBAL, MemoryLocation.LOCAL
        )
        full = flat_timing.page_copy_us(
            MemoryLocation.GLOBAL, MemoryLocation.LOCAL
        )
        assert discounted == pytest.approx(full * 0.4)

    def test_zero_fill_local_cheaper_than_global(self, timing):
        assert timing.zero_fill_us(MemoryLocation.LOCAL) < timing.zero_fill_us(
            MemoryLocation.GLOBAL
        )

    def test_zero_fill_scales_with_page_size(self):
        small = TimingModel(TimingParameters(), page_size_words=512)
        large = TimingModel(TimingParameters(), page_size_words=1024)
        assert large.zero_fill_us(MemoryLocation.LOCAL) == pytest.approx(
            2 * small.zero_fill_us(MemoryLocation.LOCAL)
        )

    def test_kernel_path_properties_passthrough(self, timing):
        assert timing.fault_overhead_us == TimingParameters().fault_overhead_us
        assert timing.mapping_op_us == TimingParameters().mapping_op_us
        assert timing.shootdown_us == TimingParameters().shootdown_us


def word_prices(params, topology, cpu, frame):
    """``(location, fetch, store)`` straight from the documented rule.

    The location label prices the reference from ``TimingParameters``,
    except that on a multi-level machine another CPU's local memory on
    the requester's own socket is priced at the socket tier.
    """
    if frame.kind is not FrameKind.LOCAL:
        return MemoryLocation.GLOBAL, params.global_fetch_us, params.global_store_us
    if frame.node == cpu:
        return MemoryLocation.LOCAL, params.local_fetch_us, params.local_store_us
    if topology is not None and topology.socket_of(frame.node) == topology.socket_of(cpu):
        return (
            MemoryLocation.REMOTE,
            topology.socket_fetch_us,
            topology.socket_store_us,
        )
    return MemoryLocation.REMOTE, params.remote_fetch_us, params.remote_store_us


@pytest.mark.parametrize("machine_name", ["ace", "4socket32"])
class TestPriceTables:
    """The tables ``__post_init__`` builds, against their definitions.

    Every comparison is ``==``: the tables hold the very floats the
    if-chains used to return, and the derived costs keep their operand
    order, so simulated time stays bit-identical.
    """

    def timing_and_frames(self, machine_name):
        machine = Machine(resolve_machine(machine_name, 4))
        topology = machine.topology
        cpu = 1
        frames = {
            "own local": Frame(FrameKind.LOCAL, cpu, 3),
            "global": Frame(FrameKind.GLOBAL, None, 3),
        }
        if topology is None:
            frames["other cpu"] = Frame(FrameKind.LOCAL, 2, 3)
        else:
            same, far = topology.sockets[0][-1], topology.sockets[-1][0]
            assert topology.same_socket(cpu, same) and same != cpu
            assert not topology.same_socket(cpu, far)
            frames["other cpu, same socket"] = Frame(FrameKind.LOCAL, same, 3)
            frames["other socket"] = Frame(FrameKind.LOCAL, far, 3)
            frames["socket-shared"] = Frame(FrameKind.SOCKET, 0, 3)
        return machine.timing, topology, cpu, frames

    def test_word_prices_per_location(self, machine_name):
        timing, _, _, _ = self.timing_and_frames(machine_name)
        p = timing.params
        assert [timing.fetch_us(loc) for loc in MemoryLocation] == [
            p.local_fetch_us, p.global_fetch_us, p.remote_fetch_us
        ]
        assert [timing.store_us(loc) for loc in MemoryLocation] == [
            p.local_store_us, p.global_store_us, p.remote_store_us
        ]
        words, bulk = timing.page_size_words, p.bulk_transfer_factor
        for loc in MemoryLocation:
            assert timing.zero_fill_us(loc) == words * timing.store_us(loc) * bulk

    def test_every_cpu_frame_class(self, machine_name):
        timing, topology, cpu, frames = self.timing_and_frames(machine_name)
        p = timing.params
        words, bulk = timing.page_size_words, p.bulk_transfer_factor
        for frame in frames.values():
            location, fetch, store = word_prices(p, topology, cpu, frame)
            assert timing.ref_costs(cpu, frame) == (location, fetch, store)
            # The slow arm prices each half of a block off this one row:
            # the other half's zero adds exactly nothing to the block sum.
            _, half_fetch, half_store = timing.ref_costs(cpu, frame)
            assert 7 * half_fetch + 0 * half_store == 7 * fetch
            assert 0 * half_fetch + 3 * half_store == 3 * store
            for other in frames.values():
                _, _, other_store = word_prices(p, topology, cpu, other)
                assert timing.page_copy_us_for(cpu, frame, other) == (
                    words * (fetch + other_store) * bulk
                )
            # A bare location is flat-priced, whatever the topology.
            assert timing.page_copy_us_for(
                cpu, frame, MemoryLocation.GLOBAL
            ) == words * (fetch + p.global_store_us) * bulk
            assert timing.page_copy_us_for(
                cpu, MemoryLocation.GLOBAL, frame
            ) == words * (p.global_fetch_us + store) * bulk

    def test_replace_rebuilds_the_tables(self, machine_name):
        timing, _, cpu, frames = self.timing_and_frames(machine_name)
        dear = dataclasses.replace(
            timing.params, local_fetch_us=9.0, global_store_us=11.0
        )
        rebuilt = dataclasses.replace(timing, params=dear)
        assert rebuilt.fetch_us(MemoryLocation.LOCAL) == 9.0
        assert rebuilt.store_us(MemoryLocation.GLOBAL) == 11.0
        assert rebuilt.ref_costs(cpu, frames["own local"]) == (
            MemoryLocation.LOCAL, 9.0, dear.local_store_us
        )
        assert timing.fetch_us(MemoryLocation.LOCAL) == 0.65  # original intact

    def test_value_semantics_ignore_the_tables(self, machine_name):
        timing, _, cpu, frames = self.timing_and_frames(machine_name)
        twin = TimingModel(timing.params, timing.page_size_words, timing.topology)
        assert twin == timing and hash(twin) == hash(timing)
        assert "_rows" not in repr(timing)
        assert [f.name for f in dataclasses.fields(timing)] == [
            "params", "page_size_words", "topology"
        ]
        clone = pickle.loads(pickle.dumps(timing))
        assert clone == timing
        for frame in frames.values():
            assert clone.ref_costs(cpu, frame) == timing.ref_costs(cpu, frame)
