"""Evaluation driver, table renderers, figures, and the paper constants."""

import pytest

from repro.analysis.diagrams import figure1, figure2, wiring_report
from repro.analysis.paper import (
    ACE_LATENCIES,
    ACE_RATIOS,
    TABLE_3,
    TABLE_4,
    TABLE_3_APPLICATIONS,
    TABLE_4_APPLICATIONS,
)
from repro.analysis.report import (
    format_measured_alpha,
    format_table3,
    format_table4,
    run_evaluation,
)
from repro.machine.config import ace_config


@pytest.fixture(scope="module")
def small_evaluation():
    return run_evaluation(
        apps=("ParMult", "IMatMult", "Primes3"), n_processors=3, quick=True
    )


class TestPaperConstants:
    def test_table3_has_all_eight_applications(self):
        assert len(TABLE_3) == 8
        assert set(TABLE_3_APPLICATIONS) == set(TABLE_3)

    def test_table4_has_five_applications(self):
        assert len(TABLE_4) == 5
        assert set(TABLE_4_APPLICATIONS) <= set(TABLE_3)

    def test_parmult_alpha_is_na(self):
        assert TABLE_3["ParMult"].alpha is None

    def test_primes1_delta_s_is_na(self):
        assert TABLE_4["Primes1"].delta_s is None

    def test_all_fetch_codes_use_2_3(self):
        assert TABLE_3["Gfetch"].g_over_l == 2.3
        assert TABLE_3["IMatMult"].g_over_l == 2.3
        assert TABLE_3["Primes1"].g_over_l == 2.0

    def test_latencies_match_config_defaults(self):
        from repro.machine.config import TimingParameters

        t = TimingParameters()
        for name, value in ACE_LATENCIES.items():
            assert getattr(t, name) == value
        assert ACE_RATIOS["fetch"] == 2.3


class TestEvaluation:
    def test_rows_cover_requested_workloads(self, small_evaluation):
        names = {row.application for row in small_evaluation.rows}
        assert names == {"ParMult", "IMatMult", "Primes3"}

    def test_row_lookup(self, small_evaluation):
        assert small_evaluation.row("IMatMult").application == "IMatMult"
        with pytest.raises(KeyError):
            small_evaluation.row("nope")

    def test_delta_s_na_when_negative(self, small_evaluation):
        row = small_evaluation.row("ParMult")
        # The na convention: a negative ΔS reports as None with ratio 0.
        if row.delta_s is None:
            assert row.delta_over_t == 0.0
        else:
            assert row.delta_s > 0
            assert row.delta_over_t == pytest.approx(
                row.delta_s / row.measurement.t_numa_s
            )

    def test_format_table3_mentions_every_application(self, small_evaluation):
        text = format_table3(small_evaluation)
        for name in ("ParMult", "IMatMult", "Primes3"):
            assert name in text
        assert "Tglobal" in text and "γ" in text

    def test_format_table3_shows_paper_columns(self, small_evaluation):
        assert "α(paper)" in format_table3(small_evaluation)

    def test_format_table4_filters_to_table4_apps(self, small_evaluation):
        text = format_table4(small_evaluation)
        assert "IMatMult" in text and "Primes3" in text
        assert "ParMult" not in text  # not a Table 4 application

    def test_format_measured_alpha(self, small_evaluation):
        text = format_measured_alpha(small_evaluation)
        assert "α(measured)" in text


class TestDiagrams:
    def test_figure1_reflects_configuration(self):
        text = figure1(ace_config(5))
        assert "5 processor modules" in text
        assert "IPC bus" in text
        assert "global memory" in text
        assert "8MB local" in text
        assert "32MB" in figure1(ace_config(8, global_pages=8192))

    def test_figure1_small_machine_draws_all_cpus(self):
        text = figure1(ace_config(2))
        assert "not drawn" not in text

    def test_figure2_names_all_four_modules(self):
        text = figure2()
        for module in (
            "pmap manager",
            "MMU interface",
            "NUMA manager",
            "NUMA policy",
        ):
            assert module in text

    def test_wiring_report_points_at_real_modules(self):
        text = wiring_report()
        assert "repro.vm.pmap" in text
        assert "repro.core.numa_manager" in text
        assert "repro.machine.mmu" in text
        assert "repro.core.policy" in text
