"""Exact rational engine for deformed exterior algebras and their coproducts,
antipodes, scattering operators and word-algebra limits."""

from .scalars import (
    AffineSolutionSet,
    Matrix,
    Scalar,
    SingularMatrixError,
    format_scalar,
    invert,
    is_invertible,
    minimal_polynomial,
    parse_scalar,
    rank,
    solve_linear_system,
)
from .exterior import (
    DualMultivector,
    Multivector,
    contract,
    det_pairing,
    grade,
    grade_project,
    wedge,
)
from .clifford import (
    CliffordStructure,
    Tensor2,
    check_counit_is_algebra_map,
    check_unit_is_cogebra_map,
    counit,
    dkp_coproduct,
    pair_tensor2,
    unit,
)
from .hopf import (
    complex_antipode_closed_form,
    conjecture_record,
    convolution,
    solve_antipode,
)
from .braiding import (
    BraidedReport,
    check_braid_equation,
    check_braided,
    check_min_polynomial,
    closed_form_sigma,
    compatibility_defect,
    module_action,
    solve_sigma,
    twelve_param_family_member,
)
from .tensor_shuffle import (
    GradedElement,
    WordOperator,
    braid_lift,
    concat_product,
    couniversal_lift,
    deconcat_coproduct,
    exterior_image_dimensions,
    quantum_symmetrizer,
    shuffle_product,
    universal_lift,
    unshuffle_coproduct,
    word_pairing,
    zero_braid_bigebra_check,
)

__version__ = "0.1.0"
