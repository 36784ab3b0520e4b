"""Exact symbolic engine for twist-deformed smash products, their star
products, and the two bialgebroid structures they carry."""

from .scalars import GaussRational, TruncSeries
from .ncpoly import (
    COORDINATE,
    Generator,
    MOMENTUM,
    NCPoly,
    RewriteSystem,
    SYMMETRY,
)
from .hopf import (
    BialgebraPresentation,
    CoproductMap,
    Twist,
    check_cocycle,
    check_quasitriangular,
    classical_r_extract,
    twist_from_exponent,
)
from .modalg import (
    PolyCoord,
    RepData,
    StarProduct,
    act,
    check_braided_commutativity,
    check_module_algebra,
    coaction,
    star_commutator_table,
)
from .smash import (
    SmashAlgebra,
    SmashElem,
    SmashProduct,
    phi,
    phi_inv,
    verify_phi_homomorphism,
)
from .algebroid import (
    Bialgebroid,
    ShiftedTwist,
    TensorOverA,
    bm_bialgebroid,
    bm_bialgebroid_twisted,
    check_bialgebroid_axioms,
    check_qt_shifted,
    shift_legs,
    shift_twist,
    verify_theorem,
    xu_twist,
)
from .registry import (
    PRESET_NAMES,
    Problem,
    materialize,
    preset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
