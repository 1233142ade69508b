"""Exact computation with path subcoalgebras, incidence subcoalgebras,
their balanced bilinear forms, co-Frobenius structure, and the Hopf
algebra structures the co-Frobenius families carry."""

from .scalars import Cyc, RootOfUnity, q_binomial, q_factorial, q_int
from .lincomb import LinComb
from .quiver import (
    Path,
    PathSubcoalgebra,
    Quiver,
    WindowedFamily,
    bounded_path_coalgebra,
    build_family,
    direct_sum,
    full_path_coalgebra,
)
from .posets import (
    IncidenceSubcoalgebra,
    Poset,
    embed,
    full_incidence_coalgebra,
    tensor_iso_check,
)
from .forms import (
    BilinearForm,
    all_ones_alpha,
    balanced_space_bruteforce,
    form_from_params,
    incidence_form_params,
    is_balanced,
    path_form_params,
    radicals,
)
from .frobenius import (
    admits_hopf,
    analyze,
    check_condition_d,
    classify,
    iso_key,
)
from .hopf import (
    FiniteGroupData,
    HopfTable,
    LineProduct,
    build_Hn,
    compute_antipode,
    cyclic_hopf_datum,
    group_algebra,
    verify_coalgebra_iso_Cn,
    verify_hopf,
    with_antipode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
