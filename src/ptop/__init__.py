"""Probability-of-openness topologies on finite ground sets.

Subsets are unsigned bitmasks (bit i set means point i is a member); a
space is a table of one probability per subset, subject to boundary,
union and intersection axioms.  The package constructs, verifies,
completes, decomposes and relates such spaces, serializes them
bit-exactly, and ships brute-force oracles in its test suite for every
structural fact it relies on.
"""

from .core import (
    FamilyViolation,
    PSpace,
    ViolationReport,
    WeightTable,
    as_pspace,
    build,
    complete,
    from_topology,
    prob,
    topology_defect,
    verify_exhaustive,
    verify_pairwise,
)
from .covers import (
    Cover,
    CoverDefect,
    connectivity_threshold,
    disconnection_witness,
    is_qconnected,
    min_subcover,
    qcover_witness,
)
from .errors import (
    CapExceeded,
    ChainNotNested,
    DimensionMismatch,
    DuplicateMask,
    InvalidArgument,
    MaskOutOfRange,
    MissingBase,
    NotACover,
    NotAPSpace,
    NotASubset,
    NotATopology,
    ParseError,
    PointOutOfRange,
    ProbabilityOutOfRange,
    PtopError,
    UnsupportedVersion,
)
from .fileio import (
    format_probability,
    parse_mask_token,
    parse_pmap,
    parse_pspace,
    serialize_pmap,
    serialize_pspace,
)
from .generate import SplitMix64, random_pspace, topology_closure
from .levels import LevelChain, decompose, level_cut, q_open, reconstruct
from .maps import (
    PointMap,
    compose,
    continuity_witness,
    identity_map,
    inclusion_map,
    is_pcontinuous,
    preimage,
    subspace,
)
from .masks import N_MAX, bits, compress, full_mask

__version__ = "0.1.0"
