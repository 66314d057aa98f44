"""kvnlab: classical mechanics in Hilbert space on a phase-space lattice.

Modules:
    algebra      exact symbolic commutator engine over the canonical
                 generators, the observable reader and the identity catalog
    phasespace   grids, amplitude fields, the four Fourier representations,
                 expectations, marginals, conditionals
    stateio      binary state container and the CSV and JSON writers of a run
    dynamics     split-operator propagators (classical, hbar-deformed,
                 pointer coupling, pulsed interaction)
    measurement  pointer measurement model, relative-state checks, the
                 device-integrated operator families, quantum counterpart
    uncertainty  error/disturbance reports and the inequality suite
    cli          experiment runner behind the kvn-lab command
"""

__version__ = "0.1.0"

from . import algebra, dynamics, measurement, phasespace, stateio, uncertainty
from .algebra import (
    OperatorExpr,
    adjoint_conjugate,
    commutator,
    hbar_deform,
    heisenberg_evolve,
    liouvillian_of,
    multiply,
    verify_identity_suite,
)
from .dynamics import (
    HamiltonianSpec,
    PropagationPlan,
    classical_limit_scan,
    couple_evolve,
    kvn_evolve,
    pulsed_propagator,
    qm_evolve,
)
from .errors import (
    ConfigError,
    IllegalHamiltonian,
    KvnLabError,
    MissingArtifact,
    NonHermitianObservable,
    NonTerminatingSeries,
    OutOfBounds,
    ScenarioError,
    ShiftOverflow,
    UnresolvableWidth,
    UnstablePlan,
    UnsupportedHamiltonian,
    UnsupportedObservable,
    ZeroMassSlice,
)
from .measurement import (
    KrausFamily,
    KrausOperator,
    MeasurementRecord,
    apply_kraus,
    check_simultaneity,
    free_particle_as_measurement,
    kraus_build,
    readout,
    von_neumann_couple,
)
from .phasespace import (
    BipartiteState,
    Grid2D,
    PhaseState,
    conditional,
    expectation,
    make_gaussian,
    make_point,
    marginal,
    product_state,
    to_representation,
)
from .stateio import load_state, save_state
from .uncertainty import (
    EDReport,
    check_trivial,
    error_disturbance,
    kennard_robertson,
    unbiased_scan,
)
