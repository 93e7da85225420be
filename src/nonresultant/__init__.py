"""Spaces of polynomial tuples with no common root of bounded multiplicity.

Exact arithmetic kernel, membership tests, topological invariants for the
low-complexity cases (pairs, triples, single polynomials with a
multiplicity-two bound), stabilization maps between degrees, and a seeded
verification harness.
"""

from .exactalg import (
    ExactPolynomial,
    GaussianRational,
    RealRoot,
    RootCluster,
    complex_roots_many,
    gcd_many,
    poly_from_json,
    poly_to_json,
    real_roots_exact,
    resultant_exact,
    squarefree_decomposition,
)
from .nonres import (
    FIELD_COMPLEX,
    FIELD_REAL,
    InputError,
    JetTuple,
    MembershipError,
    SystemTuple,
    conjugate_tuple,
    is_member,
    is_member_via_jets,
    jet,
    max_common_multiplicity,
    stability_dimension,
)
from .mapdeg import (
    ProjectivePoint,
    eval_natural_map,
    map_degree,
    rp1_degree,
)
from .case21 import ComponentLabel21, component_of_21, legal_labels_21, representative_21
from .case12 import (
    HalfPlaneConfig,
    component_of_12,
    electric_degree,
    from_configuration,
    legal_labels_12,
    representative_12,
    stabilize_12,
    to_configuration,
)
from .case31 import (
    Model31,
    i_d_loop,
    phi,
    phi_inverse,
    pi1_winding,
    r_d,
    r_tilde,
    r_tilde_exact,
    s1_act,
    s1_act_exact,
)
from .stab import (
    StabilizationReport,
    loop_T,
    recommended_T,
    stabilize_31,
    stabilize_31_model,
    stabilize_multiplicity,
    stabilize_with_report,
)
from .harness import (
    PathInSpace,
    SweepReport,
    ViolationCertificate,
    census,
    certify_path,
    invariant_sweep,
    locate_violation,
    path_tuple,
    planted_tuple,
    random_member,
)

__version__ = "1.0.0"
