"""Environment-model tests: trace validity and statistics."""

from __future__ import annotations

import pytest

from repro.runtime.adaptive import (
    AdaptiveEnvironmentError,
    BurstyEnvironment,
    MarkovEnvironment,
    UniformEnvironment,
    uniform_markov,
)


class TestUniform:
    def test_trace_length_and_validity(self, paper_example):
        env = UniformEnvironment(paper_example)
        trace = env.trace(100, seed=1)
        names = {c.name for c in paper_example.configurations}
        assert len(trace) == 100
        assert set(trace) <= names

    def test_never_repeats_consecutively(self, paper_example):
        trace = UniformEnvironment(paper_example).trace(200, seed=2)
        assert all(a != b for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self, paper_example):
        env = UniformEnvironment(paper_example)
        assert env.trace(50, seed=3) == env.trace(50, seed=3)
        assert env.trace(50, seed=3) != env.trace(50, seed=4)

    def test_negative_length(self, paper_example):
        with pytest.raises(ValueError):
            UniformEnvironment(paper_example).trace(-1)

    def test_covers_all_configurations_eventually(self, paper_example):
        trace = UniformEnvironment(paper_example).trace(500, seed=5)
        assert set(trace) == {c.name for c in paper_example.configurations}


class TestMarkov:
    def _env(self, design):
        return uniform_markov(design)

    def test_row_sums_validated(self, paper_example):
        names = [c.name for c in paper_example.configurations]
        bad = {src: {names[0]: 0.5} for src in names}
        with pytest.raises(AdaptiveEnvironmentError, match="sums to"):
            MarkovEnvironment(paper_example, bad)

    def test_unknown_configuration_rejected(self, paper_example):
        with pytest.raises(AdaptiveEnvironmentError, match="unknown source"):
            MarkovEnvironment(paper_example, {"nope": {"Conf.1": 1.0}})

    def test_unknown_destination_rejected(self, paper_example):
        names = [c.name for c in paper_example.configurations]
        matrix = {src: {"ghost": 1.0} for src in names}
        with pytest.raises(AdaptiveEnvironmentError, match="unknown destination"):
            MarkovEnvironment(paper_example, matrix)

    def test_negative_probability_rejected(self, paper_example):
        names = [c.name for c in paper_example.configurations]
        matrix = {
            src: {names[0]: -1.0, names[1]: 2.0} for src in names
        }
        with pytest.raises(AdaptiveEnvironmentError, match="negative"):
            MarkovEnvironment(paper_example, matrix)

    def test_missing_rows_rejected(self, paper_example):
        with pytest.raises(AdaptiveEnvironmentError, match="missing rows"):
            MarkovEnvironment(paper_example, {"Conf.1": {"Conf.2": 1.0}})

    def test_trace_respects_support(self, paper_example):
        # A two-state cycle embedded in the five configurations.
        names = [c.name for c in paper_example.configurations]
        matrix = {src: {names[0]: 1.0} for src in names}
        matrix[names[0]] = {names[1]: 1.0}
        env = MarkovEnvironment(paper_example, matrix)
        trace = env.trace(20, seed=0, start=names[0])
        assert set(trace) == {names[0], names[1]}

    def test_trace_start_validation(self, paper_example):
        env = self._env(paper_example)
        with pytest.raises(AdaptiveEnvironmentError):
            env.trace(5, start="ghost")

    def test_pair_probabilities_sum_to_switch_rate(self, paper_example):
        env = self._env(paper_example)
        pairs = env.pair_probabilities()
        # Uniform chain never self-transitions: mass sums to 1.
        assert sum(pairs.values()) == pytest.approx(1.0)
        # Unordered keys.
        for a, b in pairs:
            assert a < b

    def test_uniform_markov_equivalence(self, paper_example):
        env = uniform_markov(paper_example)
        trace = env.trace(300, seed=7)
        assert all(a != b for a, b in zip(trace, trace[1:]))

    def test_uniform_markov_needs_two_configs(self):
        from ..conftest import make_design

        d = make_design({"A": {"a": (1, 0, 0)}}, [("a",)])
        with pytest.raises(AdaptiveEnvironmentError):
            uniform_markov(d)


class TestBursty:
    def test_dwell_bounds(self, paper_example):
        with pytest.raises(AdaptiveEnvironmentError):
            BurstyEnvironment(paper_example, dwell=1.0)
        with pytest.raises(AdaptiveEnvironmentError):
            BurstyEnvironment(paper_example, dwell=-0.1)
        # A ValueError subclass, so generic input-validation handlers
        # catch it too.
        with pytest.raises(ValueError):
            BurstyEnvironment(paper_example, dwell=2.0)

    def test_high_dwell_produces_runs(self, paper_example):
        trace = BurstyEnvironment(paper_example, dwell=0.95).trace(400, seed=1)
        switches = sum(1 for a, b in zip(trace, trace[1:]) if a != b)
        assert switches < 0.15 * len(trace)

    def test_zero_dwell_switches_every_step(self, paper_example):
        trace = BurstyEnvironment(paper_example, dwell=0.0).trace(50, seed=1)
        assert all(a != b for a, b in zip(trace, trace[1:]))

    def test_negative_length(self, paper_example):
        with pytest.raises(ValueError):
            BurstyEnvironment(paper_example).trace(-2)


class TestRuntimeIntegration:
    def test_uniform_trace_mean_approximates_pairwise_average(self, receiver):
        """Long uniform traces converge to the all-pairs average that the
        paper's Eq. 7 total is a proxy for."""
        from repro.core.baselines import one_module_per_region_scheme
        from repro.core.cost import total_reconfiguration_frames
        from repro.runtime.manager import replay

        scheme = one_module_per_region_scheme(receiver)
        n = receiver.configuration_count
        analytic_mean = total_reconfiguration_frames(scheme) / (n * (n - 1) / 2)
        trace = UniformEnvironment(receiver).trace(4000, seed=11)
        stats = replay(scheme, trace)
        # The trace mean differs from the analytic mean because stale
        # content persists across more than one hop; it must still land
        # within a factor of two for a scheme with per-module regions.
        assert 0.5 * analytic_mean < stats.mean_frames < 1.5 * analytic_mean
