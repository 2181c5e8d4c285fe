"""Semantic exception hierarchy shared by all litt43 modules."""


class Litt43Error(Exception):
    """Base error for this package."""


class InadmissibleExponentsError(Litt43Error, ValueError):
    """The exponent pair lies outside the admissible set 1/a + 1/b <= 3/2."""


class InputParseError(Litt43Error, ValueError):
    """Unparseable input text, such as an exponent literal (CLI exit code 4)."""


class CapacityError(Litt43Error, ValueError):
    """An exact enumeration would exceed its configured cap or budget.

    The message always names the cap and the work the request would have
    required, so callers can decide whether to raise the budget.
    """


class UndefinedRatioError(Litt43Error, ZeroDivisionError):
    """A norm-to-average ratio was requested for the zero vector."""


class SerializationError(Litt43Error, ValueError):
    """A JSON document does not conform to the expected schema.

    The message names the offending field.
    """
