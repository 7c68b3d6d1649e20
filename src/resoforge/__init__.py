"""resoforge: genericity certificates, resonance coverings and standard-form
reductions for nearly-integrable natural Hamiltonians 0.5|y|^2 + eps*f(x)."""

from .fourier import (
    LacunaryRule,
    OneDTrigPoly,
    TrigPoly,
    generators,
    is_canonical,
    is_generator,
    lacunary_potential,
    load_potential,
    project_lattice,
    save_potential,
    two_mode_potential,
)
from .morse import (
    CosineCertificate,
    MorseReport,
    cosine_certificate,
    critical_points,
)
from .genericity import (
    GenericityParams,
    MembershipReport,
    check_low_mode_morse,
    check_lower_bound,
    check_membership,
    empirical_genericity,
    sample_product_measure,
    threshold_N,
)
from .cover import (
    CoveringParams,
    RegionLabel,
    classify_batch,
    classify_point,
    derive_params,
    free_params,
    measure_R2,
)
from .unimodular import (
    DecouplingMatrix,
    UnimodularMatrix,
    complete_to_sl,
    decoupling_matrix,
)
from .lieseries import (
    AveragedNF,
    NaturalHam,
    TaylorFourierSeries,
    lie_step_nonres,
    lie_step_res,
    verify_conjugacy,
)
from .standard_form import (
    Characteristics,
    SecularHam,
    StandardFormHam,
    build_phi1,
    build_phi2_phi3,
    characteristics,
    kappa_uniform,
    solve_fixed_point,
    standardize,
    symplectic_check,
    verify_standard,
)

__version__ = "0.1.0"
