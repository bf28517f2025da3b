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
    "cover_document": ("cover_from_json",),
    "cover_quant": (
        "FiniteCover",
        "FiniteGroup",
        "GroupRep",
        "cover_from_action",
        "irreps_of",
        "randomize_section",
        "sector_census",
        "symmetric_cover",
    ),
    "cover_reference": (
        "InvariantKernel",
        "constrained_action",
        "constrained_space",
        "random_invariant_kernel",
        "realization_unitary",
        "section_action",
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
    "partitions": (
        "Partition",
        "StandardTableau",
        "enumerate_partitions",
        "hook_dimension",
        "standard_tableaux",
    ),
    "permgroup": (
        "IrrepMatrices",
        "Permutation",
        "character",
        "irrep",
        "row_col_groups",
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
