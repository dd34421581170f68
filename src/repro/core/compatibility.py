"""The compatibility relation between base partitions (paper Sec. IV-C).

Two base partitions are **compatible** when their modes never co-occur in
any configuration.  Only compatible partitions may share a reconfigurable
region: a region holds one partition at a time, so if a configuration
needed both, it could not be implemented.

Given the covering semantics (a partition covers a configuration only when
*all* its modes are present), compatibility is exactly the condition that
no configuration's cover ever places two partitions of one region in use
simultaneously -- the property :mod:`repro.core.result` re-validates on
every constructed scheme.
"""

from __future__ import annotations

from .clustering import BasePartition
from .model import PRDesign


def are_compatible(
    a: BasePartition, b: BasePartition, design: PRDesign
) -> bool:
    """True when ``a`` and ``b`` may share a region.

    Checks every configuration for joint use of modes from both
    partitions.  Partitions that share a mode are automatically
    incompatible (any configuration using the shared mode uses both).
    """
    if a.modes & b.modes:
        return False
    for config in design.configurations:
        if (a.modes & config.modes) and (b.modes & config.modes):
            return False
    return True
