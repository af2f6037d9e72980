"""One reader for the JSON documents the command line reads.

``read(description, value)`` checks a JSON value against a description of
its keys, types and defaults and returns a copy with the defaults filled
in; an error names the path of the first bad value, such as
``model.entangle: expected true or false, got 'no'``. It checks shape and
type only and never converts: rules on values belong to the types built
from what it returns. A description is ``int`` (true and false are not
integers), ``float`` (any finite number), ``str``, ``bool``, ``None``
(null), ``[d]`` (a list of d), ``(d1, d2)`` (a list of exactly one item per
d), ``{key: d}`` (an object with exactly these keys; a key ``...`` lets
other keys through unchecked), ``Either(d1, d2)`` (the first d of the
value's JSON kind) or ``Rule(d, test, problem)`` (d, and test(value)).
An object's key is required unless described as ``Opt(d)``, which may be
missing, or ``Opt(d, default)``, which then takes the default; a default
of None also takes null.

``file_text(path)`` reads every input file the command line takes, of any
format (JSON documents, circuit text, CSV data): a directory or a file that
is not UTF-8 text raises a ParseError naming the file.
"""

from __future__ import annotations

import sys

from .errors import ParseError, ValidationError

_MISSING = object()
_KINDS = {int: int, float: (int, float), str: str, bool: bool, None: type(None)}
_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false", None: "null"}


class Opt:
    def __init__(self, slot, default=_MISSING):
        self.slot, self.default = slot, default


class Rule:
    def __init__(self, slot, test, problem: str):
        self.slot, self.test, self.problem = slot, test, problem


class Either:
    def __init__(self, *slots):
        self.slots = slots


def file_text(path, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, read with ``newline`` as open
    takes it; a ParseError naming the file if it is a directory or not
    UTF-8. A missing file raises FileNotFoundError, as open does."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except IsADirectoryError:
        raise ParseError(f"{path} is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _fits(slot, value) -> bool:
    if isinstance(slot, Rule):
        return _fits(slot.slot, value)
    kind = dict if isinstance(slot, dict) else list if isinstance(slot, (list, tuple)) else _KINDS[slot]
    return isinstance(value, kind) and (slot is bool or not isinstance(value, bool))


def _name(slot) -> str:
    slot = slot.slot if isinstance(slot, Rule) else slot
    if isinstance(slot, Either):
        return " or ".join(map(_name, slot.slots))
    if isinstance(slot, (list, tuple)):
        return f"a list of {len(slot)}" if isinstance(slot, tuple) else "a list"
    return "an object" if isinstance(slot, dict) else _NAMES[slot]


def read(slot, value, at: str = "", doc: str = ""):
    """``value`` checked against ``slot`` with its defaults filled in. ``at``
    is the path of ``value``; ``doc`` names the document in every error."""

    def fail(problem: str, where: str = at):
        raise ValidationError(": ".join(part for part in (doc, where, problem) if part))

    fitting = [s for s in (slot.slots if isinstance(slot, Either) else (slot,)) if _fits(s, value)]
    if not fitting or isinstance(fitting[0], tuple) and len(value) != len(fitting[0]):
        fail(f"expected {_name(slot)}, got {value!r}")
    slot = fitting[0]
    if isinstance(slot, Rule):
        value = read(slot.slot, value, at, doc)
        return value if slot.test(value) else fail(slot.problem)
    if slot is float and not abs(value) <= sys.float_info.max:  # also an integer beyond it
        fail(f"must be finite, got {value!r}")
    if isinstance(slot, (list, tuple)):
        items = slot if isinstance(slot, tuple) else slot * len(value)
        return [read(s, v, f"{at}[{i}]", doc) for i, (s, v) in enumerate(zip(items, value))]
    if not isinstance(slot, dict):
        return value

    def path(key) -> str:
        return f"{at}.{key}" if at else key

    for key in value:
        if key not in slot and ... not in slot:
            fail("unknown key", path(key))
    missing = [k for k, s in slot.items() if k not in value and k is not ... and not isinstance(s, Opt)]
    if missing:
        fail(f"required; {at or 'the document'} has no {', '.join(missing)}", path(missing[0]))
    out = dict(value)
    for key, s in slot.items():
        if isinstance(s, Opt) and (key not in value or value[key] is None and s.default is None):
            if s.default is not _MISSING:
                out[key] = None if s.default is None else read(s.slot, s.default, path(key), doc)
        elif key is not ...:
            out[key] = read(s.slot if isinstance(s, Opt) else s, value[key], path(key), doc)
    return out
