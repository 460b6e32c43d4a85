"""Exact arithmetic for p-power root towers of mixed characteristic:
normal-form tower rings, root-closure certificates, finite-depth
Frobenius-compatible sequences, and truncated Witt vectors."""

from .closure import (
    ClosureCert,
    LocalElem,
    NotMember,
    certified_pi_factor,
    closure_add,
    definite_nonmember,
    membership,
    validate_cert,
)
from .fontaine import (
    CERTIFIED,
    PLAIN,
    FontaineElem,
    base_residue,
    divide_by_p_seq,
    generators,
    theta,
)
from .tower import (
    FREE,
    QUOTIENT,
    NotDivisibleError,
    ResidueElem,
    TowerCtx,
    TowerElem,
    poly_divides,
)
from .valuation import binom, binom_valuation, vp
from .witt import (
    WittCtx,
    WittVec,
    divide_by_p_seq_minus_p,
    ghost,
    mul_by_p,
    p_divide_witt,
    p_seq_minus_p,
    verschiebung,
    witt_frobenius,
    witt_polynomials,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureCert",
    "LocalElem",
    "NotMember",
    "certified_pi_factor",
    "closure_add",
    "definite_nonmember",
    "membership",
    "validate_cert",
    "CERTIFIED",
    "PLAIN",
    "FontaineElem",
    "base_residue",
    "divide_by_p_seq",
    "generators",
    "theta",
    "FREE",
    "QUOTIENT",
    "NotDivisibleError",
    "ResidueElem",
    "TowerCtx",
    "TowerElem",
    "poly_divides",
    "binom",
    "binom_valuation",
    "vp",
    "WittCtx",
    "WittVec",
    "divide_by_p_seq_minus_p",
    "ghost",
    "mul_by_p",
    "p_divide_witt",
    "p_seq_minus_p",
    "verschiebung",
    "witt_frobenius",
    "witt_polynomials",
    "__version__",
]
