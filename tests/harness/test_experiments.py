"""Experiment runners produce well-formed reports (fast mode).

The heavy experiments run at full scale only in benchmarks/; here each
runner is exercised at REPRO-fast scale to validate wiring and shapes.
"""

import pytest

from repro.harness import experiments as E
from repro.harness.report import ExperimentReport


def check_report(rep, min_rows=1):
    assert isinstance(rep, ExperimentReport)
    assert len(rep.rows) >= min_rows
    text = rep.render()
    assert rep.experiment_id in text
    md = rep.markdown()
    assert md.startswith("**") or md.startswith("|")
    return rep


class TestLightExperiments:
    def test_table5(self):
        rep = check_report(E.table5_techniques.run(), min_rows=4)
        labels = [r[0] for r in rep.rows]
        assert "DGS" in labels and "ASGD" in labels

    def test_memory_usage(self):
        rep = check_report(E.memory_usage.run(fast=True), min_rows=4)
        units = {r[0]: (r[1], r[2]) for r in rep.rows}
        # In model units (state held in θ0's dtype, 8 workers): ASGD keeps
        # only M at the server; dual-way adds one v_k per worker.  DGS and
        # GD keep one worker buffer (u / residual), DGC two (u and v).
        assert units["ASGD"] == ("1.0", "0.0")
        assert units["GD-async"] == ("9.0", "1.0")
        assert units["DGC-async"] == ("9.0", "2.0")
        assert units["DGS"] == ("9.0", "1.0")


@pytest.mark.slow
class TestFigureExperiments:
    def test_fig6_speedup(self):
        rep = check_report(E.fig6_speedup.run(fast=True), min_rows=4)
        assert rep.figures

    def test_fig5_low_bandwidth(self):
        rep = check_report(E.fig5_low_bandwidth.run(fast=True), min_rows=2)
        methods = [r[0] for r in rep.rows]
        assert methods == ["ASGD", "DGS"]

    def test_fig2_curves(self):
        rep = check_report(E.fig2_cifar_curves.run(fast=True), min_rows=5)
        assert len(rep.figures) == 2

    def test_ablation_secondary(self):
        rep = check_report(E.ablation_secondary.run(fast=True), min_rows=2)

    def test_table2(self):
        rep = check_report(E.table2_accuracy.run(fast=True, seeds=(0,)), min_rows=10)

    def test_ablation_samomentum(self):
        rep = check_report(E.ablation_samomentum.run(fast=True, seeds=(0,)), min_rows=4)
