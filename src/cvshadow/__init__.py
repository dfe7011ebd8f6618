"""cvshadow: classical shadow tomography for continuous-variable states."""

__version__ = "0.5.0"

from .phase_space import (
    CharGrid,
    char_coherent_dyad,
    char_fock_dyad,
    char_gaussian_raw,
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
    chain_ground_state,
    chain_state,
    fock_matrix_of,
)
from .measurement import (
    SampleBatch,
    sample_heterodyne_batch,
    sample_homodyne_batch,
    stream_rng,
)
from .shadows import (
    ShadowAverage,
    WindowSpec,
    default_window,
    project_PM,
    project_PM_tilde,
)
from .bounds import (
    BoundReport,
    MomentProfile,
    delta0,
    required_samples_heterodyne,
    required_samples_homodyne,
    sigma_heterodyne,
    sigma_homodyne,
    truncation_error_bound,
)
from .entropy import (
    EntropyPlan,
    entropy_poly,
    entropy_reference,
    plan_entropy,
)
