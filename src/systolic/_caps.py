"""The one refusal of every request cap.

Each cap is a constant of the module that checks it.  ``check`` refuses an
amount past it in one text shape, naming the constant.  A cap checked inside
a loop keeps its own comparison there and calls ``check`` only to refuse.
"""

# The most decimal digits a number may be read or written with: the
# interpreter's own limit on int-to-text conversion.  Fraction forms
# 10**exponent from a decimal exponent, at a cost that grows with it
# (Fraction("1e1000000") takes 0.24 s), and a result past it cannot be written.
MAX_DIGITS = 4_300


def check(name: str, used: int, cap: int, what: str) -> None:
    """Refuse ``used`` past ``cap``: ``what`` says what was counted, and
    ``name`` is the cap's constant as ``module.NAME``."""
    if used > cap:
        raise ValueError(f"{what} {used}, past the cap ({name} = {cap})")


def decimal_exponent(value, label: str) -> None:
    """Refuse a rational's text, named ``{label} {value!r}``, whose decimal
    exponent passes MAX_DIGITS, before Fraction forms 10**exponent; leave any
    other text to Fraction."""
    if type(value) is str and ("e" in value or "E" in value):
        try:
            exponent = abs(int(value.lower().rpartition("e")[2]))
        except ValueError:
            return
        check("_caps.MAX_DIGITS", exponent, MAX_DIGITS, f"{label} {value!r} has a decimal exponent of magnitude")


def written(value: int) -> None:
    """Refuse an integer result with more decimal digits than MAX_DIGITS."""
    from decimal import Decimal  # unlike str, it converts an int of any size

    digits = Decimal(value).adjusted() + 1
    check("_caps.MAX_DIGITS", digits, MAX_DIGITS, "an integer in the result has a digit count of")
