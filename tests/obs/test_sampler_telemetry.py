"""The round sampler and the Telemetry facade, on real simulations."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.core.policies import MoveThresholdPolicy
from repro.core.policies.registry import build_policy
from repro.core.stats import NUMAStats
from repro.errors import ConfigurationError, ProtocolViolation
from repro.machine.timing import MemoryLocation
from repro.obs import RoundSampler, Telemetry
from repro.sim.harness import build_simulation, run_engine, run_once
from repro.workloads import small_workloads

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: The counters ``Telemetry.finalize`` pulls from each CPU's ``all_refs``.
REFERENCE_COUNTERS = ("references", "reads", "writes", "local_references")


def small(name):
    return small_workloads()[name]


def run_with_telemetry(name, interval=8, processors=3, threshold=4):
    telemetry = Telemetry(sample_interval=interval)
    result = run_once(
        small(name),
        MoveThresholdPolicy(threshold=threshold),
        n_processors=processors,
        check_invariants=False,
        telemetry=telemetry,
    )
    return result, telemetry


class TestRoundSampler:
    def test_rejects_zero_interval(self, rig):
        with pytest.raises(ConfigurationError):
            RoundSampler(rig.machine, rig.numa, rig.pool, interval=0)

    def test_sample_cadence_and_final_flush(self):
        result, telemetry = run_with_telemetry("Primes3", interval=4)
        samples = telemetry.samples
        assert samples, "run must produce at least one sample"
        # Every window spans at least the configured interval except the
        # final flush, which covers whatever remained.
        for sample in samples[:-1]:
            assert sample.window_rounds >= 4
        # The series ends at the last executed round.
        assert samples[-1].round_index == result.rounds - 1

    def test_deltas_sum_to_final_totals(self):
        result, telemetry = run_with_telemetry("Primes2", interval=4)
        samples = telemetry.samples
        for key, total in samples[-1].stats_total.items():
            assert sum(s.stats_delta[key] for s in samples) == total, key
        assert samples[-1].stats_total["moves"] == result.stats.moves

    def test_each_delta_is_total_minus_previous(self):
        """A sample's totals stay as taken while the manager counts on, so
        each window's delta is its total minus the previous one."""
        _, telemetry = run_with_telemetry("Primes2", interval=4)
        samples = telemetry.samples
        assert len(samples) > 2
        assert samples[0].stats_delta == samples[0].stats_total
        for prev, sample in zip(samples, samples[1:]):
            assert sample.stats_delta == {
                key: total - prev.stats_total[key]
                for key, total in sample.stats_total.items()
            }
        assert any(any(s.stats_delta.values()) for s in samples[1:])

    def test_samples_cover_every_counter(self):
        _, telemetry = run_with_telemetry("Primes2", interval=4)
        keys = list(NUMAStats().as_dict())
        for sample in telemetry.samples:
            assert list(sample.stats_delta) == list(sample.stats_total) == keys

    def test_rounds_are_monotonic(self):
        _, telemetry = run_with_telemetry("FFT", interval=4)
        rounds = [s.round_index for s in telemetry.samples]
        assert rounds == sorted(rounds)
        assert len(set(rounds)) == len(rounds)

    def test_occupancy_and_times_present(self):
        _, telemetry = run_with_telemetry("IMatMult", interval=8)
        last = telemetry.samples[-1]
        assert last.pool_capacity > 0
        assert last.directory_pages >= 0
        assert last.user_us > 0
        assert len(last.per_cpu_user_us) == 3
        assert last.pinned_pages is not None  # MoveThresholdPolicy exposes it

    def test_local_hit_window_fraction_in_range(self):
        _, telemetry = run_with_telemetry("Primes1", interval=4)
        for sample in telemetry.samples:
            if sample.window_local_hit is not None:
                assert 0.0 <= sample.window_local_hit <= 1.0
            for per_cpu in sample.per_cpu_window_local_hit:
                assert per_cpu is None or 0.0 <= per_cpu <= 1.0

    def test_sample_record_is_flat_jsonable(self):
        import json

        _, telemetry = run_with_telemetry("PlyTrace", interval=8)
        record = telemetry.samples[0].as_record()
        assert record["t"] == "sample"
        json.dumps(record)  # must not raise


class TestTelemetryNeutrality:
    """Acceptance: telemetry must not change any simulated-time result."""

    @pytest.mark.parametrize("name", ["ParMult", "Primes2", "FFT"])
    def test_simulated_times_identical_with_and_without(self, name):
        plain = run_once(
            small(name),
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            check_invariants=False,
        )
        observed, _ = run_with_telemetry(name, interval=4)
        assert observed.user_time_us == plain.user_time_us
        assert observed.system_time_us == plain.system_time_us
        assert observed.rounds == plain.rounds
        assert observed.stats.as_dict() == plain.stats.as_dict()


class TestTelemetryInstruments:
    def test_fault_counters_match_stats(self):
        result, telemetry = run_with_telemetry("Primes2")
        flat = telemetry.registry.as_dict()
        stats = result.stats.as_dict()
        assert flat["read_faults"] == stats["read_faults"]
        assert flat["write_faults"] == stats["write_faults"]

    def test_fault_latency_histogram_counts_every_fault(self):
        result, telemetry = run_with_telemetry("Primes2")
        histogram = telemetry.registry.histograms["fault_latency_us"]
        assert histogram.total == result.stats.total_faults()
        assert histogram.min >= 0

    def test_page_move_histogram_from_policy(self):
        result, telemetry = run_with_telemetry("Primes2", threshold=1)
        histogram = telemetry.registry.histograms["page_move_count"]
        # Only pages that actually moved appear in the policy's counts.
        assert histogram.total >= 1
        assert result.stats.moves >= histogram.total

    def test_local_hit_gauges_per_cpu(self):
        _, telemetry = run_with_telemetry("Primes1", processors=3)
        gauges = telemetry.registry.gauges
        for cpu in range(3):
            assert f"cpu{cpu}_local_hit" in gauges

    def test_profiler_covers_engine_phases(self):
        _, telemetry = run_with_telemetry("Primes2")
        names = {stat.name for stat in telemetry.profiler.phases}
        assert "engine_run" in names
        assert "fault_handling" in names
        assert "reference_batch" in names

    def test_tlb_counters_present_and_consistent(self):
        _, telemetry = run_with_telemetry("Gfetch")
        flat = telemetry.registry.as_dict()
        for key in ("tlb_hits", "tlb_misses", "tlb_fills",
                    "tlb_shootdowns"):
            assert key in flat, key
        assert flat["tlb_hits"] > 0
        # Every miss on the reference path fills (or refreshes) an entry.
        assert flat["tlb_fills"] <= flat["tlb_misses"]

    def test_tlb_hit_ratio_gauge(self):
        _, telemetry = run_with_telemetry("Gfetch")
        flat = telemetry.registry.as_dict()
        ratio = telemetry.registry.gauges["tlb_hit_ratio"].value
        lookups = flat["tlb_hits"] + flat["tlb_misses"]
        assert ratio == flat["tlb_hits"] / lookups
        assert 0.0 < ratio <= 1.0

    def test_samples_carry_tlb_windows(self):
        _, telemetry = run_with_telemetry("Gfetch", interval=4)
        records = [s.as_record() for s in telemetry.samples]
        assert all("tlb_hit" in r and "tlb_shootdowns" in r for r in records)
        # Window hit fractions are deltas, so each stays within [0, 1].
        ratios = [r["tlb_hit"] for r in records if r["tlb_hit"] is not None]
        assert ratios and all(0.0 <= value <= 1.0 for value in ratios)

    def test_to_records_contains_all_sections(self):
        _, telemetry = run_with_telemetry("FFT")
        records = telemetry.to_records({"workload": "FFT"})
        kinds = {record["t"] for record in records}
        assert {"meta", "sample", "counter", "gauge", "histogram",
                "phase"} <= kinds

    def test_finalize_is_idempotent(self):
        _, telemetry = run_with_telemetry("ParMult")
        before = telemetry.registry.histograms["page_move_count"].total
        telemetry.finalize()
        telemetry.finalize()
        assert (
            telemetry.registry.histograms["page_move_count"].total == before
        )


class PushedTotals:
    """What ``MetricsObserver.on_reference`` used to add up, per event."""

    def __init__(self):
        self.totals = dict.fromkeys(REFERENCE_COUNTERS, 0)

    def on_reference(
        self, round_index, cpu, vpage, page_id, reads, writes, location,
        writable_data,
    ):
        self.totals["references"] += reads + writes
        self.totals["reads"] += reads
        self.totals["writes"] += writes
        if location is MemoryLocation.LOCAL:
            self.totals["local_references"] += reads + writes


def reference_counters(telemetry):
    flat = telemetry.registry.as_dict()
    return {name: flat[name] for name in REFERENCE_COUNTERS}


class TestReferenceTotalsArePulled:
    """Telemetry has no ``on_reference``; its four reference counters are
    read from the per-CPU ``all_refs`` at ``finalize`` and must equal what
    counting every event would have given."""

    @pytest.mark.parametrize(
        "policy", ["move-threshold", "all-local", "migration-only"]
    )
    @pytest.mark.parametrize("name", sorted(small_workloads()))
    def test_identities(self, name, policy):
        telemetry, pushed = Telemetry(), PushedTotals()
        sim = build_simulation(
            [small(name)],
            build_policy(policy),
            n_processors=3,
            telemetry=telemetry,
            observer=pushed,
        )
        run_engine(sim.engine, sim.threads, telemetry)
        pulled = reference_counters(telemetry)
        cpus = sim.machine.cpus
        assert pulled["references"] == pulled["reads"] + pulled["writes"]
        assert pulled["references"] == sum(c.all_refs.total() for c in cpus)
        assert pulled["local_references"] == sum(
            c.all_refs.total_to(MemoryLocation.LOCAL) for c in cpus
        )
        assert pulled == pushed.totals
        assert pulled["references"] > 0

    def test_telemetry_alone_does_not_ask_for_reference_events(self):
        telemetry = Telemetry()
        sim = build_simulation(
            [small("ParMult")],
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            telemetry=telemetry,
            sanitize=False,
        )
        assert not sim.engine.bus.wants_references

    @pytest.mark.parametrize("workload", ["parmult", "Primes2"])
    def test_metrics_records_equal_the_pushed_goldens(
        self, workload, tmp_path, capsys
    ):
        """Every non-``phase`` record (phases are host seconds) equals
        what commit 216fccf — the last with ``MetricsObserver.
        on_reference`` — wrote for the same command."""
        path = tmp_path / "out.jsonl"
        assert main(["metrics", workload, "--quick", "--json", str(path)]) == 0
        capsys.readouterr()
        records = [
            record
            for record in map(json.loads, path.read_text().splitlines())
            if record["t"] != "phase"
        ]
        golden = GOLDEN / f"metrics-{workload}-quick.jsonl"
        assert records == [
            json.loads(line) for line in golden.read_text().splitlines()
        ]

    def test_an_aborted_run_still_reports_them(self):
        class Planted:
            def on_round_end(self, round_index):
                if round_index == 10:
                    raise ProtocolViolation("planted", check="planted")

        telemetry = Telemetry()
        sim = build_simulation(
            [small("Primes2")],
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            telemetry=telemetry,
            observer=Planted(),
        )
        with pytest.raises(ProtocolViolation):
            run_engine(sim.engine, sim.threads, telemetry)
        counters = {
            record["name"]: record["value"]
            for record in telemetry.to_records()
            if record["t"] == "counter"
        }
        done = sum(c.all_refs.total() for c in sim.machine.cpus)
        assert 0 < done == counters["references"]
        assert counters["reads"] + counters["writes"] == done
        assert 0 < counters["local_references"] <= done

    def test_finalize_adds_them_once(self):
        _, telemetry = run_with_telemetry("Primes2")
        once = reference_counters(telemetry)
        telemetry.finalize()
        telemetry.to_records()
        assert reference_counters(telemetry) == once
        assert once["references"] > 0
