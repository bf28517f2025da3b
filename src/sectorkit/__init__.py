"""sectorkit: superselection sectors of permutation-invariant algebras.

Dense-matrix toolkit for the symmetric-group sector structure of
N-particle tensor spaces, the equivalence of parastatistics sectors with
boson/fermion systems carrying unobserved internal degrees of freedom,
finite-model covering-space quantization, and theta-sectors of a
particle on a circle.

Public names are resolved on first access (PEP 562), so importing the
package, or running one CLI subcommand, loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "circle_theta": (
        "ThetaSector",
        "fd_convergence",
        "gauge_equivalence_check",
        "spectrum_rows",
    ),
    "cover_quant": (
        "FiniteCover",
        "FiniteGroup",
        "GroupRep",
        "InvariantKernel",
        "constrained_action",
        "constrained_space",
        "cover_from_action",
        "cover_from_json",
        "irreps_of",
        "random_invariant_kernel",
        "randomize_section",
        "realization_unitary",
        "section_action",
        "sector_census",
        "symmetric_cover",
    ),
    "errors": (
        "ConsistencyError",
        "DomainError",
        "ResourceLimitError",
    ),
    "parastat_equiv": (
        "EquivalenceCertificate",
        "SectorRealization",
        "general_equivalence",
        "parafermion_constraint_space",
        "parafermion_matrix",
        "realize",
        "verify_singlet_fermion_equivalence",
        "verify_doublet_parafermion_equivalence",
    ),
    "permgroup": (
        "IrrepMatrices",
        "Partition",
        "Permutation",
        "StandardTableau",
        "character",
        "enumerate_partitions",
        "hook_dimension",
        "irrep",
        "row_col_groups",
        "standard_tableaux",
        "symmetric_group",
    ),
    "schur_weyl": (
        "SectorReport",
        "sector_decomposition",
    ),
    "tensor_rep": (
        "TensorSpace",
        "antisymmetrizer",
        "central_projector",
        "commutant_basis",
        "commutant_dimension_nullspace",
        "permutation_operator",
        "symmetrizer",
        "young_projector",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
