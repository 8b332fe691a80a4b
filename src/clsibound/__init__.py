"""Certified lower bounds on complete modified log-Sobolev constants of
connected graphs and their matrix (Lindblad-type) generators, verified at
desk scale against brute-force spectral and optimization-based estimates.

Modules
-------
spectral   dense Hermitian eigencalculus, double operator integrals,
           superoperator representations of double-commutator generators
graphs     graph ingestion, spanning trees, traversal covers, certified
           combinatorial bounds
entropy    entropy and Fisher-information functionals (and p-variants)
lindblad   edge generators, graph generators on M_n, the builtin target
           table, conditional expectations, gradient-estimate checker
estimator  multistart ratio minimization, decay curves, sandwich harness
batteries  named verification batteries behind ``clsibound verify``
cli        command-line interface
"""

from ._kernels import BACKEND
from .estimator import (
    EstimateOptions,
    EstimateReport,
    classical_mlsi_estimate,
    clsi_probe,
    cpsi_estimate,
    decay_curve,
    mlsi_estimate,
    sandwich_check,
)
from .graphs import (
    BoundCertificate,
    WeightedGraph,
    certified_bound,
    cyclic_bound,
    is_connected,
    kruskal_mst,
    lindblad_bound,
    load_graph,
    make_graph,
    save_graph,
    traversal_cover,
    verify_constant_chain,
    verify_cover,
)
from .lindblad import (
    ConditionalExpectation,
    depolarizing,
    diagonal_expectation,
    edge_expectation,
    edge_generator,
    fixed_point_dim,
    gradient_estimate_check,
    graph_lindblad,
    integer_spectrum_lindblad,
    pauli_system,
    sign_flip_average,
    trace_expectation,
)
from .spectral import (
    ScalarKernel,
    SpectralSuperoperator,
    doi_apply,
    eig_hermitian,
    matrix_function,
    matrix_log,
    quadrature_oracle_resolvent,
    quadrature_oracle_tilt,
    semigroup_apply,
    spectral_gap,
    superop_from_generators,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BoundCertificate",
    "ConditionalExpectation",
    "EstimateOptions",
    "EstimateReport",
    "ScalarKernel",
    "SpectralSuperoperator",
    "WeightedGraph",
    "certified_bound",
    "classical_mlsi_estimate",
    "clsi_probe",
    "cpsi_estimate",
    "cyclic_bound",
    "decay_curve",
    "depolarizing",
    "diagonal_expectation",
    "doi_apply",
    "edge_expectation",
    "edge_generator",
    "eig_hermitian",
    "fixed_point_dim",
    "gradient_estimate_check",
    "graph_lindblad",
    "integer_spectrum_lindblad",
    "is_connected",
    "kruskal_mst",
    "lindblad_bound",
    "load_graph",
    "make_graph",
    "matrix_function",
    "matrix_log",
    "mlsi_estimate",
    "pauli_system",
    "quadrature_oracle_resolvent",
    "quadrature_oracle_tilt",
    "sandwich_check",
    "save_graph",
    "semigroup_apply",
    "sign_flip_average",
    "spectral_gap",
    "superop_from_generators",
    "trace_expectation",
    "traversal_cover",
    "verify_constant_chain",
    "verify_cover",
]
