"""Face-dimension bounds for contraction-ray systems.

The package has six layers:

- ``core``: exact rational vectors, trilinear forms, linear algebra, and
  inequality feasibility.
- ``polytope``: combinatorial simple polytopes, face lattices, f-vectors, and
  the closed-form average-face bounds.
- ``raysystem``: abstract ray-divisor systems, their invariants, contact
  graphs, and the banded breadth-first search that reads their distances.
- ``structure``: component classification, minimal non-extremal sets, and the
  shape filter for maximal extremal sets.
- ``realized``: systems with explicit rational coordinates, nef certificates,
  orthogonal-extension maps, and dependence detection.
- ``bounds``: weighted-angle verification on polytope cross-sections and the
  closed-form dimension caps.

``generate`` builds seeded instances of every kind, and ``cli`` reads and
writes instance files; the layers work on parsed JSON through their
``*_from_json`` / ``*_to_json`` pairs.
"""

from .core import (
    INF,
    DimensionMismatch,
    RVector,
    TrilinearForm,
    format_rational,
    kernel_of_columns,
    rational,
    scale_primitive,
    solve_inequalities,
)
from .polytope import (
    CombinatorialPolytope,
    FVector,
    PolytopeError,
    a02_bound,
    average_faces,
    cube,
    cyclic_dual,
    lemma13_bound,
    polytope_from_json,
    polytope_to_json,
    product,
    simplex,
)
from .raysystem import (
    OrientedGraph,
    Ray,
    RayDivisorSystem,
    RayType,
    SystemFormatError,
    Violation,
    build_graph,
    check_normalization,
    distance,
    divisorial_components,
    system_from_json,
    system_to_json,
    validate,
)
from .structure import (
    ClassificationFailure,
    ClassificationReport,
    ComponentType,
    EsetType,
    check_condition_ii,
    check_condition_iii,
    check_lemma11,
    classify_component,
    classify_eset,
    classify_extremal_set,
    classify_report,
    condition_iii_full,
    contact_violations,
    detect_e2_pairs,
    esets_report,
    find_esets,
    is_extremal,
)
from .realized import (
    NefCertificate,
    RealizedModel,
    b2_invariants,
    b2_nef_combine,
    b2_pairs,
    check_prop238_form,
    cm_nef_extension,
    d2_nef_extension,
    fano_nef_sum,
    is_nef,
    is_simple_in_face,
    linear_dependence,
    model_from_json,
    model_to_json,
    nef_certificate,
    numerical_kodaira_dim,
)
from .bounds import (
    BoundReport,
    DiagramInstance,
    Theorem12Rule,
    Theorem258Rule,
    count_condition_b,
    diagram_from_json,
    diagram_pipeline,
    diagram_to_json,
    enumerate_angles,
    lemma14_max_n,
    max_integer_below,
    sigma,
    theorem12_bound,
    validate_diagram,
    verify_lemma14,
)

__version__ = "0.1.0"
