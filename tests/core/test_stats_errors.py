"""NUMAStats bookkeeping and the exception hierarchy."""

import copy
import pickle

import pytest

from repro import errors
from repro.core.state import AccessKind
from repro.core.stats import NUMAStats
from repro.vm.address_space import SegmentationFault
from repro.vm.fault import ProtectionViolation


class TestNUMAStats:
    def test_fresh_stats_are_all_zero(self):
        stats = NUMAStats()
        assert stats.total_faults() == 0
        assert stats.total_page_copies() == 0
        assert all(value == 0 for value in stats.as_dict().values())

    def test_fault_counters_by_kind(self):
        stats = NUMAStats()
        stats.faults[AccessKind.READ] += 3
        stats.faults[AccessKind.WRITE] += 2
        assert stats.total_faults() == 5
        flat = stats.as_dict()
        assert flat["read_faults"] == 3
        assert flat["write_faults"] == 2

    def test_total_page_copies(self):
        stats = NUMAStats()
        stats.copies_to_local = 4
        stats.syncs = 3
        assert stats.total_page_copies() == 7

    def test_as_dict_covers_every_counter(self):
        stats = NUMAStats()
        flat = stats.as_dict()
        expected_keys = {
            "read_faults",
            "write_faults",
            "zero_fills",
            "global_zero_fills",
            "copies_to_local",
            "syncs",
            "flushes",
            "unmaps",
            "moves",
            "remote_mappings",
            "local_memory_fallbacks",
            "evictions",
            "pages_freed",
            "free_syncs",
            "transfer_retries",
            "degraded_pins",
            "frames_offlined",
        }
        assert set(flat) == expected_keys


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.OutOfMemoryError,
            errors.MappingError,
            errors.ProtocolError,
            errors.SimulationError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_segfault_is_a_simulation_error(self):
        assert issubclass(SegmentationFault, errors.SimulationError)

    def test_protection_violation_is_a_simulation_error(self):
        assert issubclass(ProtectionViolation, errors.SimulationError)

    @pytest.mark.parametrize(
        "original, fields, message",
        [
            pytest.param(
                SegmentationFault(5),
                {"vpage": 5},
                "no region maps virtual page 5",
                id="SegmentationFault",
            ),
            pytest.param(
                ProtectionViolation(5),
                {"vpage": 5},
                "write to read-only virtual page 5",
                id="ProtectionViolation",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "clone",
        [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
        ids=["pickle", "copy"],
    )
    def test_field_carrying_exceptions_survive_a_round_trip(
        self, original, fields, message, clone
    ):
        """A pool worker's failure reaches the parent pickled; it must
        read there as it reads in the serial path, message said once."""
        copied = clone(original)
        assert type(copied) is type(original)
        assert vars(copied) == vars(original) == fields
        assert copied.args == original.args == tuple(fields.values())
        assert str(copied) == str(original) == message
