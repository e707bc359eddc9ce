"""The output boundary: the one writer of stdout and ``--out``, and the JSON
and CSV forms every command writes.  Output is deterministic: identical
invocations produce byte-identical artifacts.
"""
import math
import sys

from . import __version__


def jsonable(value):
    """``value`` as JSON can write it; an integer past ``_caps.MAX_DIGITS``
    digits, alone or in a Fraction, is refused."""
    if type(value) is int:
        if value.bit_length() > 14_000:  # 2**14_000 < 10**4_215: a smaller one is inside the cap
            from ._caps import written

            written(value)
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    # A Fraction or a record exists only once its module is loaded, so
    # neither module is imported to recognise one.
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(value, fractions.Fraction):
        jsonable(value.numerator), jsonable(value.denominator)
        return str(value)
    if hasattr(type(value), "__record_fields__"):
        from ._record import asdict

        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def emit(chunks, out_path: str | None) -> None:
    """Write the strings ``chunks`` to ``out_path``, or to stdout, as they come."""
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def dump_json(payload, out_path: str | None) -> None:
    import json

    emit((json.dumps(jsonable(payload), indent=2, allow_nan=False) + "\n",), out_path)


def csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(jsonable(value))


def csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: in quotes, each quote doubled, when it
    holds a comma, a quote or a line break; as it is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_header(columns, provenance: str = "") -> str:
    return f"# systolic {__version__}{provenance}\n{','.join(columns)}\n"


def dump_csv(columns, rows, out_path: str | None) -> None:
    """Write the comment line, the header and each row as the iterable yields
    it, each cell an RFC 4180 field."""
    import itertools

    lines = (",".join(csv_field(csv_cell(value)) for value in row) + "\n" for row in rows)
    emit(itertools.chain((csv_header(columns),), lines), out_path)
