"""Design-flow substrate: the boxes of the paper's Fig. 2 tool flow.

Synthesis estimation (XST substitute), XML front end, wrapper/netlist
generation, column-aware floorplanning ([11] substitute), UCF emission,
and bitstream sizing.
"""

from .bitgen import (
    BitstreamFormatError,
    BitstreamInfo,
    build_partial_bitstream,
    parse_bitstream,
    write_scheme_bitstreams,
)
from .bitstream import (
    FULL_OVERHEAD_WORDS,
    PARTIAL_OVERHEAD_WORDS,
    BitstreamSet,
    PartialBitstream,
    generate_bitstreams,
)
from .constraints import TimingConstraint, emit_ucf, parse_ranges
from .feedback import PlacedPartition, partition_and_place
from .floorplan import (
    Floorplan,
    FloorplanError,
    Placement,
    floorplan,
    placement_frames,
    plan_on_smallest_device,
)
from .netlist import (
    STREAM_PORTS,
    NetlistVariant,
    RegionNetlist,
    build_netlists,
    emit_wrapper_hdl,
    variant_count,
)
from .synthesis import (
    ModeSpec,
    ModuleSpec,
    SynthesisReport,
    estimate_mode,
    synthesise,
    synthesise_module,
)
from .xmlio import (
    DesignDocument,
    DesignXMLError,
    design_to_xml,
    load_design,
    parse_design,
    save_design,
)

__all__ = [
    "BitstreamFormatError",
    "BitstreamInfo",
    "BitstreamSet",
    "DesignDocument",
    "DesignXMLError",
    "FULL_OVERHEAD_WORDS",
    "Floorplan",
    "FloorplanError",
    "ModeSpec",
    "ModuleSpec",
    "NetlistVariant",
    "PARTIAL_OVERHEAD_WORDS",
    "PartialBitstream",
    "PlacedPartition",
    "Placement",
    "RegionNetlist",
    "STREAM_PORTS",
    "SynthesisReport",
    "TimingConstraint",
    "build_netlists",
    "build_partial_bitstream",
    "design_to_xml",
    "emit_ucf",
    "emit_wrapper_hdl",
    "estimate_mode",
    "floorplan",
    "generate_bitstreams",
    "load_design",
    "parse_bitstream",
    "parse_design",
    "parse_ranges",
    "partition_and_place",
    "placement_frames",
    "plan_on_smallest_device",
    "save_design",
    "synthesise",
    "synthesise_module",
    "variant_count",
    "write_scheme_bitstreams",
]
