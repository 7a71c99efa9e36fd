"""Per-application behaviour: the sharing patterns the paper describes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import MoveThresholdPolicy
from repro.core.state import PageState
from repro.sim.harness import build_simulation, run_once
from repro.workloads.fft import FFT
from repro.workloads.gfetch import Gfetch
from repro.workloads.imatmult import IMatMult
from repro.workloads.parmult import ParMult
from repro.workloads.plytrace import PlyTrace
from repro.workloads.primes import (
    CHUNK_CANDIDATES,
    Primes1,
    Primes2,
    Primes3,
    chunk_work,
    division_counts,
    primes_below,
    trial_divisions_all_odds,
    trial_divisions_primes,
)


def run_and_inspect(workload, n_processors=4):
    sim = build_simulation([workload], MoveThresholdPolicy(threshold=4), n_processors=n_processors)
    sim.engine.run(sim.threads)
    return sim


def states_of(sim, object_name):
    region = sim.contexts[0].regions[object_name]
    states = []
    for offset in range(region.n_pages):
        page = region.vm_object.resident_page(offset)
        if page is None:
            continue
        states.append(sim.numa.directory.get(page.page_id).state)
    return states


class TestPrimesHelpers:
    def test_primes_below_known_values(self):
        assert primes_below(10) == [2, 3, 5, 7]
        assert len(primes_below(1000)) == 168
        assert primes_below(2) == []

    def test_primes_below_agrees_with_naive_trial_division(self):
        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(501):
            assert primes_below(n) == [k for k in range(n) if is_prime(k)]

    def test_trial_divisions_all_odds(self):
        # 9: divides by 3 -> 1 division, exits early.
        assert trial_divisions_all_odds(9) == 1
        # 25: tries 3, then 5 -> 2 divisions.
        assert trial_divisions_all_odds(25) == 2
        # 7: sqrt < 3, no divisions.
        assert trial_divisions_all_odds(7) == 0
        # 49: tries 3, 5, 7 -> 3 divisions.
        assert trial_divisions_all_odds(49) == 3

    def test_trial_divisions_primes_skips_composite_divisors(self):
        primes = primes_below(100)
        # 49: tries 3, 5, 7 -> 3 divisions (same as odds here).
        assert trial_divisions_primes(49, primes) == 3
        # 121 = 11^2: tries 3,5,7,11 -> 4 (odds would try 9 too -> 5).
        assert trial_divisions_primes(121, primes) == 4
        assert trial_divisions_all_odds(121) == 5


def assert_tables_match_the_definition(limit):
    """Every odd candidate's table entry equals its trial-division count."""
    found = primes_below(limit)
    all_odds = division_counts(limit, found, primes_only=False)
    primes_only = division_counts(limit, found, primes_only=True)
    candidates = range(3, limit, 2)
    assert len(all_odds) == len(primes_only) == len(candidates) + 1
    for c in candidates:
        assert all_odds[c >> 1] == trial_divisions_all_odds(c), (limit, c)
        assert primes_only[c >> 1] == trial_divisions_primes(c, found), (
            limit,
            c,
        )


class TestDivisionTables:
    """The sieve is the implementation; trial division is the definition."""

    @pytest.mark.parametrize("limit", [10, 11, 100, 4_000, 40_000])
    def test_every_candidate_matches_trial_division(self, limit):
        # 10 is the smallest legal limit; 10/11 put c = limit - 1 on a
        # square of a prime (9) and just past it; 4 000 and 40 000 are
        # the small() sizes of Primes1/2 and Primes3.
        assert_tables_match_the_definition(limit)

    @settings(max_examples=25, deadline=None)
    @given(limit=st.integers(min_value=10, max_value=20_000))
    def test_any_limit_matches_trial_division(self, limit):
        assert_tables_match_the_definition(limit)

    @pytest.mark.parametrize("limit", [10, 139, 4_000])
    @pytest.mark.parametrize("primes_only", [False, True])
    def test_chunks_reduce_the_candidates_in_order(self, limit, primes_only):
        """(divisions, deepest divisor, primes) per 64-candidate chunk."""
        found = primes_below(limit)
        prime_set = set(found)
        candidates = list(range(3, limit, 2))
        expected = []
        for i in range(0, len(candidates), CHUNK_CANDIDATES):
            chunk = candidates[i : i + CHUNK_CANDIDATES]
            counts = [
                trial_divisions_primes(c, found)
                if primes_only
                else trial_divisions_all_odds(c)
                for c in chunk
            ]
            expected.append(
                (sum(counts), max(counts), len(prime_set.intersection(chunk)))
            )
        assert chunk_work(limit, found, primes_only) == expected


class TestParMult:
    def test_negligible_data_traffic(self):
        result = run_once(
            ParMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.data_refs.total() <= 2 * 8 + 4  # ~2 refs per chunk

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ParMult(total_mults=0)


class TestGfetch:
    def test_buffer_ends_pinned_global(self):
        sim = run_and_inspect(Gfetch.small())
        assert all(
            s is PageState.GLOBAL_WRITABLE
            for s in states_of(sim, "gfetch.buffer")
        )

    def test_alpha_is_near_zero(self):
        result = run_once(
            Gfetch.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.measured_alpha < 0.35  # init writes loom large at small scale

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Gfetch(total_fetches=0)


class TestIMatMult:
    def test_inputs_replicated_output_global(self):
        """'The input matrices are only read, and are thus replicated';
        the output 'is found to be shared and is placed in global'."""
        sim = run_and_inspect(IMatMult.small())
        assert all(
            s is PageState.READ_ONLY for s in states_of(sim, "matrix.A")
        )
        assert all(
            s is PageState.READ_ONLY for s in states_of(sim, "matrix.B")
        )
        c_states = states_of(sim, "matrix.C")
        assert c_states.count(PageState.GLOBAL_WRITABLE) >= len(c_states) - 1

    def test_input_pages_replicated_on_all_readers(self):
        sim = run_and_inspect(IMatMult.small(), n_processors=3)
        region = sim.contexts[0].regions["matrix.A"]
        page = region.vm_object.resident_page(0)
        entry = sim.numa.directory.get(page.page_id)
        assert len(entry.local_copies) == 3

    def test_alpha_is_high(self):
        result = run_once(
            IMatMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.measured_alpha > 0.9

    def test_rejects_tiny_matrices(self):
        with pytest.raises(ValueError):
            IMatMult(n=1)


class TestPrimes1:
    def test_stack_traffic_dominates_and_stays_local(self):
        result = run_once(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.measured_alpha > 0.95

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            Primes1(limit=5)


class TestPrimes2:
    def test_privatizing_divisors_restores_alpha(self):
        """Section 4.2: alpha 0.66 -> 1.00 when divisors are privatized."""
        shared = run_once(
            Primes2(limit=6_000, private_divisors=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        private = run_once(
            Primes2(limit=6_000, private_divisors=True),
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert private.measured_alpha > shared.measured_alpha + 0.2
        assert private.measured_alpha > 0.9
        assert shared.measured_alpha < 0.8

    def test_variant_names_differ(self):
        assert Primes2(private_divisors=False).name != Primes2().name


class TestPrimes3:
    def test_sieve_ends_pinned_global(self):
        sim = run_and_inspect(Primes3.small())
        sieve_states = states_of(sim, "sieve.bits")
        global_count = sieve_states.count(PageState.GLOBAL_WRITABLE)
        assert global_count >= len(sieve_states) - 1

    def test_alpha_is_low(self):
        result = run_once(
            Primes3.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.measured_alpha < 0.6

    def test_heavy_copy_traffic_before_pinning(self):
        result = run_once(
            Primes3.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert result.stats.total_page_copies() > 10


class TestFFT:
    def test_workspaces_stay_private(self):
        sim = run_and_inspect(FFT.small())
        for t in range(4):
            states = states_of(sim, f"fft.work{t}")
            assert all(s is PageState.LOCAL_WRITABLE for s in states)

    def test_alpha_is_high(self):
        result = run_once(FFT.small(), MoveThresholdPolicy(threshold=4), n_processors=4)
        assert result.measured_alpha > 0.9

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FFT(size=100)


class TestPlyTrace:
    def test_queue_page_is_pinned(self):
        sim = run_and_inspect(PlyTrace.small())
        assert states_of(sim, "workpile.queue") == [PageState.GLOBAL_WRITABLE]

    def test_geometry_is_replicated(self):
        sim = run_and_inspect(PlyTrace.small())
        states = states_of(sim, "polygon.store")
        assert all(s is PageState.READ_ONLY for s in states)

    def test_packed_framebuffer_hurts_alpha(self):
        padded = run_once(
            PlyTrace(n_polygons=1200), MoveThresholdPolicy(threshold=4), n_processors=7
        )
        packed = run_once(
            PlyTrace(n_polygons=1200, padded_framebuffer=False),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
        )
        assert packed.measured_alpha < padded.measured_alpha - 0.08

    def test_rejects_empty_scene(self):
        with pytest.raises(ValueError):
            PlyTrace(n_polygons=0)
