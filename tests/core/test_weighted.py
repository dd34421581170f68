"""Probability-weighted objective tests (the paper's Sec. V extension,
wired through the search)."""

from __future__ import annotations

import pytest

from repro.arch.resources import ResourceVector
from repro.core.cost import weighted_total_frames
from repro.core.partitioner import PartitionerOptions, partition
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.runtime.adaptive import MarkovEnvironment, uniform_markov
from repro.runtime.manager import replay
from repro.runtime.profile import estimate_markov, pair_frequencies

from ..conftest import make_design


@pytest.fixture
def design():
    return casestudy_design()


class TestWeightMatrix:
    def test_symmetric_and_summed(self, paper_example):
        opts = PartitionerOptions(
            pair_probabilities={
                ("Conf.1", "Conf.2"): 0.4,
                ("Conf.2", "Conf.1"): 0.1,
            }
        )
        W = opts.weight_matrix(paper_example)
        assert W[0, 1] == pytest.approx(0.5)
        assert W[1, 0] == pytest.approx(0.5)
        assert W.sum() == pytest.approx(1.0)

    def test_unknown_configuration_rejected(self, paper_example):
        opts = PartitionerOptions(pair_probabilities={("ghost", "Conf.1"): 1.0})
        with pytest.raises(KeyError):
            opts.weight_matrix(paper_example)

    def test_negative_weight_rejected(self, paper_example):
        opts = PartitionerOptions(
            pair_probabilities={("Conf.1", "Conf.2"): -0.5}
        )
        with pytest.raises(ValueError):
            opts.weight_matrix(paper_example)

    def test_none_passthrough(self, paper_example):
        assert PartitionerOptions().weight_matrix(paper_example) is None


class TestWeightedSearch:
    def test_uniform_weights_match_unweighted(self, design):
        """Equal pair weights must select a scheme with the same Eq. 7
        total as the unweighted run (the objective is proportional)."""
        names = [c.name for c in design.configurations]
        uniform = {
            (a, b): 1.0
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        }
        weighted = partition(
            design,
            CASESTUDY_BUDGET,
            PartitionerOptions(pair_probabilities=uniform),
        )
        unweighted = partition(design, CASESTUDY_BUDGET)
        assert weighted.total_frames == unweighted.total_frames
        assert weighted.objective == pytest.approx(float(weighted.total_frames))

    def test_objective_matches_weighted_cost_of_scheme(self, design):
        env = uniform_markov(design)
        probs = env.pair_probabilities()
        result = partition(
            design,
            CASESTUDY_BUDGET,
            PartitionerOptions(pair_probabilities=probs),
        )
        assert result.objective == pytest.approx(
            weighted_total_frames(result.scheme, probs)
        )

    def test_skewed_weights_steer_the_solution(self):
        """A design where one transition dominates: the weighted search
        must keep the hot pair's modules apart (zero-cost hot switch)
        even at the price of a worse unweighted total."""
        design = make_design(
            {
                # Hot modules: tiny, switch constantly between c1 and c2.
                "H": {"h1": (40, 0, 0), "h2": (40, 0, 0)},
                # Cold module: huge alternatives, switches only to c3.
                "K": {"k1": (900, 0, 0), "k2": (880, 0, 0)},
            },
            [
                ("h1", "k1"),  # Conf.1
                ("h2", "k1"),  # Conf.2
                ("h1", "k2"),  # Conf.3
            ],
        )
        budget = ResourceVector(1060, 0, 0)
        hot = {("Conf.1", "Conf.2"): 0.98, ("Conf.1", "Conf.3"): 0.02}
        weighted = partition(
            design, budget, PartitionerOptions(pair_probabilities=hot)
        )
        # The hot h1<->h2 switch must be cheap: their shared region (if
        # any) is small, so the weighted objective stays far below the
        # single-region alternative where every switch costs everything.
        assert weighted.objective <= 0.98 * 2 * 36 + 0.02 * (900 // 20 + 1) * 36 * 2

    def test_weighted_never_worse_than_single_region(self, design):
        env = uniform_markov(design)
        probs = env.pair_probabilities()
        from repro.core.baselines import single_region_scheme

        result = partition(
            design,
            CASESTUDY_BUDGET,
            PartitionerOptions(pair_probabilities=probs),
        )
        assert result.objective <= weighted_total_frames(
            single_region_scheme(design), probs
        ) + 1e-9


def uniform_chain(design):
    """Uniform chain, weighted by its exact pair probabilities."""
    env = uniform_markov(design)
    return env.pair_probabilities(), env.trace(3000, seed=5)


def sticky_chain(design):
    """Two-regime chain estimated from a trace that mostly cycles
    Conf.1-3, weighted by the pair frequencies of its own trace."""
    names = [c.name for c in design.configurations]
    observed = ["Conf.1", "Conf.2", "Conf.3"] * 60 + names
    env = MarkovEnvironment(design, estimate_markov(design, observed))
    trace = env.trace(3000, seed=1)
    return pair_frequencies(trace), trace


class TestWeightedVsTrace:
    @pytest.mark.parametrize(
        "chain", [uniform_chain, sticky_chain], ids=["uniform", "sticky"]
    )
    def test_weighted_scheme_wins_on_matching_trace(self, design, chain):
        """Optimising for the chain's statistics must not lose on the
        chain's own traces (vs the unweighted optimum)."""
        probs, trace = chain(design)
        weighted_scheme = partition(
            design,
            CASESTUDY_BUDGET,
            PartitionerOptions(pair_probabilities=probs),
        ).scheme
        unweighted_scheme = partition(design, CASESTUDY_BUDGET).scheme
        w = replay(weighted_scheme, trace).total_frames
        u = replay(unweighted_scheme, trace).total_frames
        assert w <= u * 1.05  # within noise; usually equal or better
