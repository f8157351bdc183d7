"""Compile arbitrary unitaries into X gates and fully-controlled rotations."""

from .circuit import (
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    census,
    matrix_to_circuit,
    normalize_angle,
)
from .emitters import (
    CircuitFormatError,
    emit_json,
    emit_qasm3,
    emit_qsharp,
    parse_json,
)
from .matrix import (
    DimensionError,
    MatrixFormatError,
    UnitarityError,
    haar_random_unitary,
    load_matrix,
    num_qubits,
    save_matrix,
    validate_unitary,
)
from .simulator import VerificationReport, circuit_matrix, verify
from .twolevel import (
    gray_permutation,
    two_level_angles,
    zyz_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitFormatError",
    "DimensionError",
    "Gate",
    "GateCensus",
    "GateKind",
    "MatrixFormatError",
    "UnitarityError",
    "VerificationReport",
    "census",
    "circuit_matrix",
    "emit_json",
    "emit_qasm3",
    "emit_qsharp",
    "gray_permutation",
    "haar_random_unitary",
    "load_matrix",
    "matrix_to_circuit",
    "normalize_angle",
    "num_qubits",
    "parse_json",
    "save_matrix",
    "two_level_angles",
    "validate_unitary",
    "verify",
    "zyz_reconstruct",
    "__version__",
]
