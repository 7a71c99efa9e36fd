"""The one-shot reproduction report."""

import pytest

from repro.analysis.cachereport import CacheDataset
from repro.analysis.repro_report import generate_cache_report
from repro.cli import main
from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, table3_grid

APPS = ("ParMult", "IMatMult")
GRID = dict(n_processors=3, quick=True)


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    """A live report: fill the cache, then render from it."""
    root = tmp_path_factory.mktemp("report-cache")
    run_batch(flatten(table3_grid(APPS, **GRID)), cache=ResultCache(root))
    return generate_cache_report(
        CacheDataset.load(root), apps=APPS, **GRID
    ).document


class TestGenerateReport:
    def test_has_every_section(self, report_text):
        for heading in (
            "# Reproduction report",
            "## Section 2.2",
            "### Table 1",
            "### Table 2",
            "## Table 3",
            "## Table 4",
            "## Figure 1",
            "## Figure 2",
        ):
            assert heading in report_text

    def test_embeds_the_protocol_cells(self, report_text):
        assert "sync&flush other" in report_text
        assert "copy to local" in report_text

    def test_embeds_the_latency_check(self, report_text):
        assert "G/L fetch 2.31" in report_text

    def test_embeds_the_evaluation(self, report_text):
        assert "IMatMult" in report_text
        assert "α(paper)" in report_text

    def test_names_the_paper(self, report_text):
        assert "Bolosky" in report_text
        assert "SOSP '89" in report_text

    def test_write_report(self, tmp_path):
        path = tmp_path / "REPORT.md"
        argv = [
            "--quick", "--processors", "2", "report", "--apps", "ParMult",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(path),
        ]
        assert main(argv) == 0
        assert path.exists()
        assert "# Reproduction report" in path.read_text()
