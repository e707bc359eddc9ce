"""The input boundary: the one refusal of every request cap, and the one
reader of every JSON input, of every numeric option and of every rational's text.

Each cap is a constant of the module that checks it, and ``check`` refuses an
amount past it, naming the constant.  A cap checked inside a loop keeps its
own comparison there and calls ``check`` only to refuse.
"""
import re

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


def shown(value) -> str:
    """``repr(value)``; for a value past 100 characters (a text's own, any other value's repr),
    the repr's first 40 characters and the count instead, so that a refusal echoing it stays short."""
    text = repr(value)
    size = len(value) if type(value) is str else len(text)
    return text if size <= 100 else f"{text[:40]}... ({size} characters)"


def json_value(text: str, where: str):
    """The JSON value of ``text``, a numeric option's or a whole input's; a syntax error, nesting past
    the stack and an integer literal past MAX_DIGITS are each one ValueError naming ``where``."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{where} is nested too deeply") from None
    except ValueError as exc:  # a literal past the interpreter's digit limit, whose text counts the digits
        digits = re.search(r"value has (\d+) digits", str(exc))
        used = int(digits[1]) if digits else 0
        check("_caps.MAX_DIGITS", used, MAX_DIGITS, f"{where} has an integer literal with a digit count of")
        raise


def read_json(source, label: str, build=None):
    """The JSON object in ``source``, UTF-8 text or a file opened in binary, or ``build``
    of it; any failure, an integer literal past MAX_DIGITS and a ValueError of ``build``
    too, is one ValueError naming the ``label`` file."""
    where = f"{label} file {source.name}" if hasattr(source, "name") else f"{label} text"
    text = source if isinstance(source, (str, bytes)) else source.read()
    try:
        data = json_value(text.decode() if isinstance(text, bytes) else text, where)
    except UnicodeDecodeError:
        raise ValueError(f"{where} is not UTF-8 text") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where} must hold a JSON object")
    if build is None:
        return data
    try:
        return build(data)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def rational(value, label: str):
    """``value`` (anything Fraction takes but a boolean or a text with a "_" or a character other than
    ASCII, which no other number takes) as a Fraction, or one ValueError naming ``label``, as for a
    text whose decimal exponent or longest digit run passes MAX_DIGITS."""
    import fractions  # 0.13 us a call; "from fractions import Fraction" takes 0.75 us (2 vCPUs, Python 3.11)

    text = type(value) is str
    if type(value) is not bool and not (text and (not value.isascii() or "_" in value)):
        if text and ("e" in value or "E" in value):
            try:
                exponent = abs(int(value.lower().rpartition("e")[2]))
            except ValueError:  # no exponent, or one of more digits than Fraction reads
                exponent = 0
            check("_caps.MAX_DIGITS", exponent, MAX_DIGITS,
                  f"{label} {shown(value)} has a decimal exponent of magnitude")
        try:
            return fractions.Fraction(value)
        except (ArithmeticError, TypeError, ValueError):
            if text:
                digits = max(map(len, re.findall(r"[0-9]+", value)), default=0)
                check("_caps.MAX_DIGITS", digits, MAX_DIGITS, f"{label} has a number with a digit count of")
    raise ValueError(f"{label} {shown(value)} is not a rational number")


def written(value: int) -> None:
    """Refuse an integer result with more decimal digits than MAX_DIGITS."""
    from decimal import Decimal  # unlike str, it converts an int of any size

    digits = Decimal(value).adjusted() + 1
    check("_caps.MAX_DIGITS", digits, MAX_DIGITS, "an integer in the result has a digit count of")
