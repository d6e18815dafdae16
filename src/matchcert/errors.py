from dataclasses import MISSING, fields
from typing import Callable, Mapping

import numpy as np


class MatchcertError(ValueError):
    """Contract violation.

    Messages start with a stable kebab-case token (e.g. ``empty-sample``,
    ``invalid-hypergeom-params``) so callers and tests can match on it
    without depending on the free-text tail.
    """


def is_count(value) -> bool:
    """Whether ``value`` is an int, Python's or numpy's, and no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def read_fields(cls, doc: Mapping, **decoders: Callable):
    """The dataclass ``cls`` read from the JSON object ``doc`` field by field.

    An absent key takes the field's default. A value goes through
    ``decoders[key]`` or must fit the field's annotation, read as text
    (``cls``'s module postpones annotations): ``int``, ``float`` (stored as
    a float) or ``str``, never a bool; ``... | None`` also takes null.
    """
    name, known = cls.__name__, {f.name: f for f in fields(cls)}
    if not isinstance(doc, Mapping):
        raise MatchcertError(f"invalid-config: {name} takes an object, not {doc!r}")
    for key in [*doc, *known]:
        if key not in known:
            raise MatchcertError(f"invalid-config: {name} has no field {key!r}")
        if key not in doc and known[key].default is MISSING:
            raise MatchcertError(f"invalid-config: {name} needs {key!r}")
    values = dict(doc)
    for key, value in doc.items():
        plain = known[key].type.removesuffix(" | None")
        if value is None and plain != known[key].type:
            continue
        if key in decoders:
            values[key] = decoders[key](value)
        elif isinstance(value, bool) or not isinstance(value, _JSON_TYPES[plain]):
            raise MatchcertError(f"invalid-config: {name}.{key} takes {plain}, not {value!r}")
        elif plain == "float":
            values[key] = float(value)
    return cls(**values)
