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


#: ``repro.bench.*`` is the measurement harness that regenerates the
#: paper's figures, not code a deployment runs, so it sits on neither
#: side of the enclave boundary.
NOT_DEPLOYED_PREFIX = "repro.bench."


class TestTcbReport:
    def test_report_covers_all_modules(self):
        """Every deployed module is counted, so none drops out of the
        reduction figure by being left off both tuples (a module on
        both fails ``test_sides_are_disjoint_and_sum``)."""
        src = Path(__file__).parent.parent / "src"
        deployed = {
            ".".join(path.relative_to(src).with_suffix("").parts)
            for path in (src / "repro").rglob("*.py")
            if path.stem not in ("__init__", "__main__")
        }
        report = tcb_report()
        assert report.trusted_loc > 500
        assert report.untrusted_loc > 500
        assert set(report.per_module) == {
            m for m in deployed if not m.startswith(NOT_DEPLOYED_PREFIX)
        }

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
