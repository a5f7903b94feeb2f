"""TCB accounting (the paper's ~44% reduction claim)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import tcb_report
from repro.analysis.tcb import count_loc, render_report


class TestCountLoc:
    def test_skips_comments_blanks_docstrings(self, tmp_path: Path):
        src = tmp_path / "m.py"
        src.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "\n"
            "# comment\n"
            "x = 1\n"
            "def f():\n"
            '    """One-line docstring."""\n'
            "    return x\n"
        )
        assert count_loc(src) == 3  # x=1, def f():, return x

    def test_empty_file(self, tmp_path: Path):
        src = tmp_path / "e.py"
        src.write_text("")
        assert count_loc(src) == 0


class TestTcbReport:
    def test_report_covers_all_modules(self):
        report = tcb_report()
        assert report.trusted_loc > 500
        assert report.untrusted_loc > 500
        assert len(report.per_module) > 30

    def test_partitioning_reduces_tcb(self):
        """The architectural claim: the partitioned TCB is well below the
        all-in-enclave (libOS) alternative — the paper measures ~44%."""
        report = tcb_report()
        assert report.trusted_loc < report.libos_tcb_loc
        assert 0.30 < report.reduction < 0.80

    def test_sides_are_disjoint_and_sum(self):
        report = tcb_report()
        trusted = sum(
            loc for side, loc in report.per_module.values() if side == "trusted"
        )
        untrusted = sum(
            loc
            for side, loc in report.per_module.values()
            if side == "untrusted"
        )
        assert trusted == report.trusted_loc
        assert untrusted == report.untrusted_loc
        assert report.total_loc == trusted + untrusted

    def test_render(self):
        report = tcb_report()
        text = render_report(report)
        assert "reduction" in text
        assert "repro.core.mirror" in text
