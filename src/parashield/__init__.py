"""Dynamic safety shields for conjunctions of atomic safety specifications,
synthesized over grid abstractions of a perturbed vehicle model."""

from .abstraction import (
    BoxedAbstraction,
    DisturbanceBox,
    DubinsParams,
    ExplicitAbstraction,
    GridSpec,
    InputGrid,
    build_abstraction,
    cos_bounds,
    dubins_step,
    sin_bounds,
    wrap_angle,
)
from .errors import (
    AbstractionMismatch,
    DomainViolation,
    EmptyActiveSet,
    GenerationFailed,
    GridMismatch,
    PointOutOfDomain,
    UniverseMismatch,
)
from .shield import (
    AtomicShieldBank,
    Shield,
    ShieldDecision,
    compose,
    load_bank,
    pure_online_shield,
    save_bank,
    shield_apply,
    synthesize_bank,
)
from .synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    StateSets,
    controller_equal,
    is_sub_controller,
    largest_nonblocking,
    product,
    safety_control,
)

__version__ = "0.1.0"
