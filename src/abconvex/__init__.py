"""Finite-instance abstract convex analysis.

Transforms, subdifferentials and convexification with respect to an
arbitrary finite coupling; cyclic monotonicity via gain graphs; chain-sum
antiderivatives; minimal/maximal antiderivative envelopes; constrained
Lipschitz extension (c = -d); and Fitzpatrick functions of monotone
mappings, all with the defining identities runnable as checks.
"""

from .core import (
    DEFAULT_EPS,
    INF,
    AbstractConvexError,
    BudgetExceededError,
    Coupling,
    ExtFunction,
    GroundSet,
    ImproperFunctionError,
    IndexMismatchError,
    IndexSubset,
    MultiMapping,
    UndefinedSumError,
    convex_combination,
    coupling_from_rows,
    ext_add,
    indicator,
    pointwise_le,
    pointwise_max,
    restrict_sum,
    sup_distance,
)
from .transforms import (
    SubdiffGraph,
    c_convexify,
    c_subdifferential,
    c_transform,
    c_transform_rev,
    is_antiderivative,
    is_c_convex,
)
from .monotone import (
    GainGraph,
    MonotonicityResult,
    build_gain_graph,
    is_cyclically_monotone,
    is_maximal_cyclically_monotone,
    is_maximal_n_monotone,
    is_monotone,
    is_n_monotone,
)
from .rockafellar import NotCyclicallyMonotoneError, rockafellar
from .envelopes import (
    ConstraintProblem,
    alpha,
    alpha_closed_form,
    gamma,
    gamma_dual_route,
    is_member,
    sandwich_check,
)
from .lipschitz import (
    ExtensionProblem,
    LipschitzReport,
    MetricError,
    MetricInstance,
    as_coupling,
    extend_max,
    extend_max_closed_form,
    extend_min,
    extend_min_closed_form,
    identity_mapping,
    identity_on,
    is_1_lipschitz,
    lipschitz_characterize,
    mcshane_whitney_max,
    mcshane_whitney_min,
    metric_from_rows,
)
from .fitzpatrick import (
    Lifted,
    Theorem6AReport,
    Theorem6BReport,
    delta_mapping,
    fitzpatrick,
    graph_anchor,
    identity_fitzpatrick,
    product_coupling,
)
from .sampling import (
    inject_positive_two_cycle,
    random_c_convex_function,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
)
from .instance_io import (
    InstanceDocument,
    InstanceError,
    emit_document,
    parse_instance,
)

__version__ = "0.1.0"
