"""Synthetic workload (trace) generators for every evaluated application."""

from .base import ADDRESS_SPACE_STRIDE, Workload, WorkloadProfile, make_access
from .generators import (
    PhasedWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StencilWorkload,
    StreamingWorkload,
    ZipfWorkload,
)
from .graph import GraphWorkload, make_gapbs_workload
from .mixes import (
    MIXES,
    MixSpec,
    get_mix,
)
from .suite import (
    APPLICATIONS,
    ApplicationSpec,
    HIGHLIGHTED_APPLICATIONS,
    SUITES,
    applications_in_suite,
    build_workload,
    get_application,
    high_benefit_applications,
)

__all__ = [
    "ADDRESS_SPACE_STRIDE",
    "APPLICATIONS",
    "ApplicationSpec",
    "GraphWorkload",
    "HIGHLIGHTED_APPLICATIONS",
    "MIXES",
    "MixSpec",
    "PhasedWorkload",
    "PointerChaseWorkload",
    "RandomAccessWorkload",
    "StencilWorkload",
    "StreamingWorkload",
    "SUITES",
    "Workload",
    "WorkloadProfile",
    "ZipfWorkload",
    "applications_in_suite",
    "build_workload",
    "get_application",
    "get_mix",
    "high_benefit_applications",
    "make_access",
    "make_gapbs_workload",
]
