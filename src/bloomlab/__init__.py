"""bloomlab: exact analytics and reference implementations for classic and
standard Bloom filters.

The exact backend works in arbitrary-precision rational arithmetic, so
false-positive rates around 1e-43 (routine for optimally-hashed small
filters) come out exact rather than as cancellation noise. A Monte Carlo
harness ties live filters back to the closed-form laws.
"""

from .analytics import (
    EfficiencyPoint,
    FprBounds,
    FprReport,
    OptimalK,
    capacity_n_max,
    efficiency,
    fpr_bounds,
    fpr_classic_exact,
    fpr_exact,
    fpr_recursive,
    fpr_report,
    fpr_standard_exact,
    fpr_taylor,
    intersection_filter_moments,
    max_efficiency,
    optimal_k,
    peak_efficiency,
    size_m_min,
    valley_crossing,
)
from .estimators import estimate_n, mvue_m_classic, mvue_m_committee
from .filters import (
    BloomFilter,
    FilterParams,
    FilterVariant,
    deserialize,
    estimate_cardinality,
    filter_intersect,
    filter_union,
    index_stream,
    serialize,
)
from .montecarlo import (
    TrialConfig,
    conjecture_scan,
    run_validation,
)
from .occupancy import (
    CommitteeSpec,
    MomentKind,
    classic_mean_variance,
    classic_pmf,
    classic_raw_moment,
    committee_mean_variance,
    committee_moment,
    committee_pmf,
    intersection_moment,
    intersection_pmf,
    moment_bounds,
    union_moment,
    union_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "BloomFilter",
    "CommitteeSpec",
    "EfficiencyPoint",
    "FilterParams",
    "FilterVariant",
    "FprBounds",
    "FprReport",
    "MomentKind",
    "OptimalK",
    "TrialConfig",
    "capacity_n_max",
    "classic_mean_variance",
    "classic_pmf",
    "classic_raw_moment",
    "committee_mean_variance",
    "committee_moment",
    "committee_pmf",
    "conjecture_scan",
    "deserialize",
    "efficiency",
    "estimate_cardinality",
    "estimate_n",
    "filter_intersect",
    "filter_union",
    "fpr_bounds",
    "fpr_classic_exact",
    "fpr_exact",
    "fpr_recursive",
    "fpr_report",
    "fpr_standard_exact",
    "fpr_taylor",
    "index_stream",
    "intersection_filter_moments",
    "intersection_moment",
    "intersection_pmf",
    "max_efficiency",
    "moment_bounds",
    "mvue_m_classic",
    "mvue_m_committee",
    "optimal_k",
    "peak_efficiency",
    "run_validation",
    "serialize",
    "size_m_min",
    "union_moment",
    "union_pmf",
    "valley_crossing",
]
