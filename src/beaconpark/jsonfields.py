"""The one reader of values out of JSON objects: scenario, lot and journal files.

An object may hold only its known keys, must hold its required ones, and
each value must have its field's JSON type. An int field takes only a JSON
integer; a float field takes any finite JSON number, an integer widened to
float, and refuses Python's non-standard NaN and Infinity and an integer
too large for a float. Neither takes a boolean or a string. A field whose
kinds include NoneType also takes null; a field of kind `object` takes any
value, for its own reader to check. Imports nothing, so `serve` stays free
of numpy.
"""

_MAX = 1.7976931348623157e308  # the largest finite float
_NAMES = {int: "int", float: "number", str: "str", bool: "bool", list: "list", dict: "object",
          type(None): "null"}


def read_object(obj, what: str, kinds: dict, required=()) -> dict:
    """The fields of JSON object `obj` (`what` in errors), each of its type in `kinds`
    (key -> type or tuple of types); every key in `required` (`kinds` for all) must be held."""
    if type(obj) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    values = {}
    for key, value in obj.items():
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"unknown {what} key {key!r}")
        fast = type(value) is kind and kind is not float
        values[key] = value if fast else read_value(key, value, kind)
    return values


def read_value(name: str, value, kind):
    """`value` if it has JSON type `kind`; a JSON integer for a float kind comes back a float."""
    kinds = kind if type(kind) is tuple else (kind,)
    if object in kinds or (type(value) in kinds and type(value) is not float):
        return value
    if float in kinds and type(value) in (int, float):
        if -_MAX <= value <= _MAX:
            return float(value)
        raise ValueError(f"field {name!r} must be a finite number, got {value!r}")
    expected = " or ".join(_NAMES[k] for k in kinds)
    raise TypeError(f"field {name!r} must be {expected}, got {value!r}")
