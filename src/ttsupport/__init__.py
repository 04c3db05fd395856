"""Exact tensor-triangular support theory for the derived category of Z.

Computes supports, tensor idempotents and the subcategory classification
for formal objects of D(Z), and brute-force verifies the spectrum
construction on finite abstract models.
"""

from .znum import (
    GENERIC,
    PointSet,
    PrimeSet,
    SpclSubset,
    SpecZPoint,
    is_prime,
    v_of_point,
    z_of_point,
)
from .modcalc import Cyclic, GradedModule, Module, kunneth, supp_mod, tensor_mod, tor_mod
from .homalg import (
    ChainMap,
    IntMatrix,
    PerfectComplex,
    SNFResult,
    cone,
    direct_sum,
    homology,
    scalar_cone,
    shift,
    snf,
    tensor_chain,
    unit_complex,
)
from .balmer import (
    gamma_point,
    gamma_v,
    l_v,
    ltg_check,
    localization_triangle_check,
    point_to_prime,
    prime_to_point,
    residue_check,
    sigma_loc,
    supp_object,
    tau_loc,
    thick_membership,
)
from .supportdata import (
    Catalogue,
    FiniteSpace,
    SupportDatum,
    check_axioms,
    classify,
    enumerate_ideals,
    enumerate_primes,
    five_object_model,
    spc_support,
    thomason_lattice,
    universal_map,
)

__version__ = "0.1.0"
