"""The resource limits shared across the package and the error they raise."""

from typing import Optional

# triple-deletion instances; each costs six oracle calls on up to 14 edges
MAX_INSTANCE_COUNT = 1000


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a configured enumeration budget."""


def _check_budget(budget: int, *requested: Optional[int]) -> None:
    top = max((n for n in requested if n is not None), default=0)
    if top > budget:
        raise ResourceLimitError(f"requested n {top} exceeds the budget {budget}")
