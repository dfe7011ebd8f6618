"""cvshadow: classical shadow tomography for continuous-variable states."""

__version__ = "0.1.0"

from .phase_space import (
    CharGrid,
    char_coherent_dyad,
    char_fock_dyad,
    char_gaussian_raw,
    displacement_oracle,
    laguerre,
    omega_apply,
    omega_matrix,
    symplectic_product,
)
from .states import (
    CatStateSpec,
    ChainSpec,
    CirculantChainState,
    FockMatrix,
    GaussianStateSpec,
    cat_char,
    cat_position_pdf,
    chain_ground_state,
    chain_state,
    fock_matrix_of,
)
from .measurement import (
    SampleBatch,
    homodyne_pdf,
    sample_heterodyne_batch,
    sample_homodyne_batch,
    stream_rng,
)
from .shadows import (
    ShadowAverage,
    WindowSpec,
    default_window,
    heterodyne_shadow_entry,
    heterodyne_shadow_entry_qmc,
    homodyne_shadow_entry,
    project_PM,
    project_PM_tilde,
    windowed_dyad_char,
)
from .bounds import (
    BoundReport,
    MomentProfile,
    bernstein_tail,
    delta0,
    required_samples_heterodyne,
    required_samples_homodyne,
    sigma_heterodyne,
    sigma_homodyne,
    truncation_error_bound,
)
from .entropy import (
    EntropyPlan,
    entropy_coefficients,
    entropy_poly,
    entropy_reference,
    plan_entropy,
)
from .qmc import BoxDomain, halton_points, qmc_integrate, tv_estimate
