"""Sum-network construction, transformation and solvability toolkit."""

from .gflin import DimensionMismatch, FieldMismatch, FieldSpec, MatrixGF, mat_inv, mat_mul, solve_right
from .netmodel import (
    CycleDetected,
    DanglingEndpoint,
    Demand,
    DuplicateMessageId,
    Edge,
    Network,
    NetworkError,
    SourceHasInEdge,
    build_network,
    connectivity,
    min_cut,
    min_source_terminal_cut,
    network_from_json,
    network_to_json,
    reverse_network,
)
from .codes import (
    BudgetExceededError,
    CodeError,
    LinearCode,
    NonlinearCode,
    TransferMatrix,
    additive_code,
    canonical_reverse_code,
    eval_linear,
    eval_nonlinear,
    identity_code,
    is_solution,
    path_gain,
    transfer_matrix,
    validate_code,
    verify_nonlinear,
)
from .transforms import c1, c2, c3, scale_sources, to_type_ia
from .families import FamilySpec, bottleneck_mun, component, known_code, s_m, s_m_star
from .solver import (
    SearchOptions,
    SearchReport,
    classify_characteristics,
    naive_search_linear,
    search_linear,
    search_nonlinear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
