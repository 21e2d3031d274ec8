"""Approximate diagnosability of discrete-time nonlinear systems with
unknown inputs and quantized outputs, decided through a finite symbolic
abstraction and transferred back to the plant."""

from .abstraction import (
    AbstractionParams,
    ParamCheck,
    RelationReport,
    build_abstraction,
    certify_relation,
    check_params,
    solve_epsilon,
)
from .bridge import (
    Counterexample,
    PlantVerdict,
    conclude,
    falsify_plant,
    fault_lattice_dilated,
    fault_lattice_eroded,
    smallest_refute_k,
)
from .diagnosis import (
    Diagnoser,
    FaultSpec,
    Verdict,
    brute_force_check,
    check_diagnosability,
    synthesize_diagnoser,
)
from .finsys import FiniteSystem, observation_symbol
from .kfun import KFunction, compose_inverse
from .lattice import cell_of, lattice_image, lattice_points_in, quantize
from .regions import Box, BoxUnion, ball_in_union
from .system import (
    Certificate,
    CertificateReport,
    SystemDef,
    output,
    parse_system,
    step,
    validate_certificate,
)

__version__ = "0.1.0"
