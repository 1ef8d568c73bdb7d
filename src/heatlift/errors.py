"""The one exception type for a parameter a caller chose, and the type
tests its checks share."""

import numbers


class ParameterError(ValueError):
    """A value the caller chose (a number, a list, a name or a config
    field) is invalid or infeasible; the message names the violated
    constraint.  The CLI maps exactly this type to exit code 2."""


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
