"""hfgdm: spectral energies and similarity-based group decision ranking
over hesitancy fuzzy preference relations.

The public surface re-exports the domain types and the operations of the
five modules: core (types and validation), spectral (eigenvalues,
energies, bounds), similarity (pairwise, ideal, closeness), pipeline (the
nine-stage ranking procedure), and cli (scenario documents and the
command-line tool).
"""

from .core import (
    CHANNELS,
    HFPR,
    VertexAttribute,
    make_hfpr,
    random_hfpr,
)
from .errors import (
    AsymmetricEntry,
    ComputationError,
    DegenerateDenominator,
    DiagonalNotZero,
    DimensionMismatch,
    EdgeExceedsVertexBound,
    IdentityViolated,
    IndexOutOfRange,
    NeedTwoExperts,
    NoConvergence,
    OverrideShapeMismatch,
    ParameterOutOfRange,
    SchemaViolation,
    TripleOutOfRange,
    ValidationError,
    ZeroDenominator,
)
from .pipeline import (
    GammaRecord,
    Overrides,
    PipelineConfig,
    RankEntry,
    RankingReport,
    ScoreSet,
    aggregate_hfpr,
    blend_scores,
    rank,
    run,
    similarity_weights,
    uncertainty_scores,
)
from .similarity import (
    NEGATIVE_IDEAL,
    POSITIVE_IDEAL,
    closeness,
    ideal_similarities,
    ideal_similarity,
    mean_similarity_degree,
    pair_similarity,
)
from .spectral import (
    BoundCheck,
    EnergyTriple,
    SpectralSummary,
    SurveyRow,
    bounds_survey,
    check_energy_bounds,
    check_laplacian_bounds,
    eigen_identities,
    energies,
    energy,
    laplacian_energies,
    laplacian_energy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
