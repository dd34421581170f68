"""Adaptive-system runtime substrate: ICAP timing, configuration
management, environment-driven adaptation traces."""

from .adaptive import (
    AdaptiveEnvironmentError,
    BurstyEnvironment,
    MarkovEnvironment,
    UniformEnvironment,
    uniform_markov,
)
from .icap import (
    CUSTOM_DMA_CONTROLLER,
    FLASH_STREAMING,
    ICAP_CLOCK_HZ,
    ICAP_PEAK_BYTES_PER_S,
    ICAP_WIDTH_BITS,
    PRESETS,
    VENDOR_HWICAP,
    IcapModel,
)
from .prefetch import (
    PrefetchingManager,
    PrefetchStats,
    markov_predictor,
    oracle_predictor,
    replay_with_prefetch,
)
from .profile import (
    estimate_markov,
    pair_frequencies,
    reoptimise_from_trace,
    transition_counts,
)
from .stream import StreamReport, consume_bitstream, stream_scheme_bitstreams
from .manager import (
    ConfigurationManager,
    RuntimeStats,
    TraceError,
    TransitionRecord,
    compare_schemes_on_trace,
    replay,
)

__all__ = [
    "AdaptiveEnvironmentError",
    "BurstyEnvironment",
    "CUSTOM_DMA_CONTROLLER",
    "ConfigurationManager",
    "FLASH_STREAMING",
    "ICAP_CLOCK_HZ",
    "ICAP_PEAK_BYTES_PER_S",
    "ICAP_WIDTH_BITS",
    "IcapModel",
    "MarkovEnvironment",
    "PRESETS",
    "PrefetchStats",
    "PrefetchingManager",
    "StreamReport",
    "RuntimeStats",
    "TraceError",
    "TransitionRecord",
    "UniformEnvironment",
    "VENDOR_HWICAP",
    "compare_schemes_on_trace",
    "consume_bitstream",
    "estimate_markov",
    "markov_predictor",
    "oracle_predictor",
    "pair_frequencies",
    "reoptimise_from_trace",
    "replay",
    "replay_with_prefetch",
    "stream_scheme_bitstreams",
    "transition_counts",
    "uniform_markov",
]
