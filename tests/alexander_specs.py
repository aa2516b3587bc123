"""Alexander module specs the test modules share."""

from quandles.families import AlexanderModuleSpec
from quandles.grid import standard_grid


def connected_alexander_specs(max_order: int = 16) -> list[AlexanderModuleSpec]:
    """Specs of all grid Alexander entries that are connected, up to max_order."""
    return [
        e.alexander_spec
        for e in standard_grid()
        if e.kind == "alexander"
        and e.alexander_spec.size <= max_order
        and e.alexander_spec.is_connected()
    ]


def homotopy_suite_specs() -> list[AlexanderModuleSpec]:
    """Connected linear quandles spanning several types, kept small enough
    that degree-3 chain computations stay fast."""
    return [
        AlexanderModuleSpec.scalar((3,), -1),          # type 2
        AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]]),  # type 3
        AlexanderModuleSpec.scalar((5,), 2),           # type 4
        AlexanderModuleSpec.scalar((3, 3), -1),        # type 2, rank 2
        AlexanderModuleSpec.scalar((7,), 3),           # type 6
    ]
