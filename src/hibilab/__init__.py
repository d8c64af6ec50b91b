"""Column-tableau lattices, Gelfand-Tsetlin patterns, Hibi straightening,
and exact standard-monomial expansions of flag algebras."""

from .tableaux import (
    ColumnTableau,
    SSYT,
    SkewTableau,
    YoungDiagram,
    multichain_to_ssyt,
    ssyt_to_multichain,
    to_skew,
)
from .posets import (
    ConstantPolicy,
    GtNode,
    GtPoset,
    TableauLattice,
    associated_gt_subposet,
    hasse,
    join,
    join_irreducibles,
    meet,
    order_increasing_subsets,
    to_dot,
)
from .gtpatterns import (
    GtPattern,
    IndicatorPattern,
    column_to_indicator,
    enumerate_patterns,
    gt_to_ssyt,
    indicator_join,
    indicator_meet,
    indicator_to_column,
    interlaces,
    ssyt_to_gt,
    weight,
)
from .hibi import HibiMonomial, HibiPolynomial, graded_dimension, hibi_to_gt, straighten
from .flagalg import (
    GlexOrder,
    MatrixPolynomial,
    Monomial,
    StandardMonomialExpansion,
    check_sagbi_pair,
    check_unipotent_invariance,
    expand_in_standard_basis,
    initial_monomial,
    minor,
    straightening_relation,
)

__version__ = "0.1.0"
