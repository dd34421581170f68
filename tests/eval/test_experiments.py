"""Experiment-driver tests: every paper artefact regenerates and holds
its qualitative shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import experiments as E
from repro.eval.casestudy import TABLE4_PAPER
from repro.eval.example_design import EXPECTED_MATRIX, TABLE1_EXPECTED


class TestExampleArtefacts:
    def test_connectivity_matrix(self):
        cm = E.exp_connectivity_matrix()
        assert (cm.matrix == np.array(EXPECTED_MATRIX)).all()

    def test_table1_exact(self):
        assert E.exp_table1() == TABLE1_EXPECTED

    def test_render_table1(self):
        text = E.render_table1()
        assert "{A3, B2, C3}" in text and "Freq wt" in text


@pytest.fixture(scope="module")
def t3():
    return E.exp_table3()


@pytest.fixture(scope="module")
def t5():
    return E.exp_table5()


class TestCaseStudyTables:
    def test_table4_shape(self, t3):
        """The Table IV ordering: static 0 < proposed < modular < single."""
        assert t3.totals["static"] == 0
        assert t3.totals["proposed"] < t3.totals["modular"]
        assert t3.totals["modular"] < t3.totals["single-region"]

    def test_table4_magnitudes_near_paper(self, t3):
        """Absolute totals within 10% of the paper's Table IV."""
        assert t3.totals["modular"] == pytest.approx(
            TABLE4_PAPER["modular"][3], rel=0.10
        )
        assert t3.totals["proposed"] == pytest.approx(
            TABLE4_PAPER["proposed"][3], rel=0.10
        )

    def test_table4_static_infeasible(self, t3):
        from repro.eval.casestudy import CASESTUDY_BUDGET

        assert not t3.schemes["static"].fits(CASESTUDY_BUDGET)

    def test_table3_structure(self, t3):
        """Structural features of the paper's Table III solution."""
        regions = t3.proposed.regions
        # V modes together in one region.
        v_hosts = {
            r.name for r in regions for lbl in r.labels if "V" in lbl
        }
        assert len(v_hosts) == 1
        # F1 and F2 share a region.
        f_hosts = {
            r.name for r in regions for lbl in r.labels if "F" in lbl
        }
        assert len(f_hosts) == 1

    def test_table5_improvement(self, t5):
        """Modified configurations: proposed beats modular (paper: 6%)."""
        assert t5.totals["proposed"] < t5.totals["modular"]
        improvement = 100 * (
            1 - t5.totals["proposed"] / t5.totals["modular"]
        )
        assert 1.0 < improvement < 20.0

    def test_table5_magnitude_near_paper(self, t5):
        # Paper: 92120 frames.
        assert t5.totals["proposed"] == pytest.approx(92_120, rel=0.10)

    def test_table5_static_m1(self, t5):
        """Table V: M1 ends up effectively static."""
        static_modes = set()
        for region in t5.proposed.effectively_static_regions():
            static_modes |= region.mode_names
        assert "M1" in static_modes

    def test_renderers_mention_paper_numbers(self, t3, t5):
        assert "244872" in E.render_table4(t3)
        assert "92120" in E.render_table5(t5)
        assert "Region" in E.render_table3(t3)


@pytest.fixture(scope="module")
def sweep():
    return E.run_sweep(count=32, seed=77)


class TestSweep:
    def test_records_complete(self, sweep):
        assert sweep.n + sweep.skipped == 32
        for r in sweep.records:
            assert r.proposed_total <= r.single_total
            assert r.device_index >= 0

    def test_sorted_by_device(self, sweep):
        ordered = sweep.sorted_by_device()
        indices = [r.device_index for r in ordered]
        assert indices == sorted(indices)

    def test_series_lengths_match(self, sweep):
        total = sweep.total_time_series()
        worst = sweep.worst_time_series()
        for series in (total, worst):
            assert set(series) == {"proposed", "modular", "single-region"}
            assert len({len(v) for v in series.values()}) == 1

    def test_fig7_shape_single_region_dominates(self, sweep):
        """Fig. 7: the single-region curve sits above the others for
        total time in the aggregate."""
        s = sweep.total_time_series()
        assert sum(s["single-region"]) > sum(s["proposed"])
        assert sum(s["modular"]) >= sum(s["proposed"])

    def test_fig8_shape(self, sweep):
        """Fig. 8: proposed worst-case beats modular in the aggregate,
        and per design (Fig. 9(c), paper 70%) in the majority; Fig. 9(d)
        against single-region is mixed (paper 87.5% better or equal)."""
        s = sweep.worst_time_series()
        assert sum(s["modular"]) >= sum(s["proposed"])
        profiles = sweep.profiles()
        assert profiles["c"].fraction_better > 0.5
        assert profiles["d"].fraction_better_or_equal > 0.5

    def test_profiles_keys(self, sweep):
        assert set(sweep.profiles()) == {"a", "b", "c", "d"}

    def test_fig9b_all_better_or_equal(self, sweep):
        """Paper: proposed beats single-region on total time everywhere."""
        profile = sweep.profiles()["b"]
        assert profile.fraction_better_or_equal == 1.0

    def test_fig9a_majority_better(self, sweep):
        profile = sweep.profiles()["a"]
        assert profile.fraction_better > 0.5

    def test_headline_counts(self, sweep):
        counts = sweep.headline_counts()
        assert counts["designs"] == sweep.n
        assert counts["skipped"] == 0
        # Sec. V: escalations occur but stay the minority (paper 20.1%),
        # and some designs fit a smaller device than modular (paper 13).
        assert 0 < counts["escalated_pct"] < 60
        assert counts["smaller_than_modular"] >= 1
        assert counts["total_better_than_single_pct"] >= 90
        # Paper: a few seconds to a minute per design on 2013 hardware.
        assert counts["mean_runtime_s"] < 10.0

    def test_device_boundaries_monotone(self, sweep):
        bounds = sweep.device_boundaries()
        starts = list(bounds.values())
        assert starts == sorted(starts)

    def test_renderers_run(self, sweep):
        assert "Fig. 7" in E.render_fig7(sweep)
        assert "Fig. 8" in E.render_fig8(sweep)
        assert "Fig. 9(a)" in E.render_fig9(sweep)
        assert "headline" in E.render_headlines(sweep)

    def test_deterministic(self):
        a = E.run_sweep(count=6, seed=3)
        b = E.run_sweep(count=6, seed=3)
        assert [r.proposed_total for r in a.records] == [
            r.proposed_total for r in b.records
        ]
