"""One reader for the JSON documents the command line reads.

``read(description, value)`` checks a JSON value against a description of
its keys, types and defaults and returns a copy with the defaults filled
in; an error names the path of the first bad value, such as
``repeats: must be at least 1, got 0``. It never converts. A description
is ``int`` (true and false are not integers), ``float`` (any finite
number), ``str``, ``bool``, ``None`` (null), ``[d]`` (a list, or a tuple,
of d), ``(d1, d2)`` (a list of exactly one item per d), ``{key: d}`` (an
object with exactly these keys; a key ``...`` lets other keys through
unchecked), ``Either(d1, d2)`` (the first d of the value's JSON kind) or
``Rule(d, test, problem)`` (d, and test(value); ``one_of`` and
``at_least`` make the common ones). An object's key is required unless
described as ``Opt(d)``, which may be missing, or ``Opt(d, default)``,
which then takes the default; a default of None also takes null.

``file_text(path)`` reads every input file the command line takes, of any
format (JSON documents, circuit text, CSV data): a directory or a file that
is not UTF-8 text raises a ParseError naming the file. ``json_file(path)``
parses a JSON document's text, and a ParseError names the file when the
text is not JSON.
"""

from __future__ import annotations

import json
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


def one_of(choices) -> Rule:
    """A string that is one of ``choices``."""
    return Rule(str, lambda value: value in choices, f"must be one of {', '.join(choices)}")


def at_least(low, slot=int) -> Rule:
    """An integer (with ``slot`` float, a number) of at least ``low``; at 0
    its problem reads "must not be negative"."""
    return Rule(slot, lambda value: value >= low, f"must be at least {low}" if low else "must not be negative")


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


def json_file(path):
    """The JSON value in the file at ``path``, read by file_text; a
    ParseError naming the file if its text is not JSON."""
    try:
        return json.loads(file_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not JSON ({exc})") from None


def _fits(slot, value) -> bool:
    if isinstance(slot, Rule):
        return _fits(slot.slot, value)
    kind = dict if isinstance(slot, dict) else (list, tuple) if isinstance(slot, (list, tuple)) else _KINDS[slot]
    return isinstance(value, kind) and (slot is bool or not isinstance(value, bool))


def _name(slot) -> str:
    slot = slot.slot if isinstance(slot, Rule) else slot
    if isinstance(slot, Either):
        return " or ".join(map(_name, slot.slots))
    if isinstance(slot, (list, tuple)):
        return f"a list of {len(slot)}" if isinstance(slot, tuple) else "a list"
    return "an object" if isinstance(slot, dict) else _NAMES[slot]


def _fail(doc: str, at: str, problem: str):
    raise ValidationError(": ".join(part for part in (doc, at, problem) if part))


def read(slot, value, at: str = "", doc: str = ""):
    """``value`` checked against ``slot`` with its defaults filled in. ``at``
    is the path of ``value``; ``doc`` names the document in every error."""
    if isinstance(slot, Rule):
        value = read(slot.slot, value, at, doc)
        return value if slot.test(value) else _fail(doc, at, f"{slot.problem}, got {value!r}")
    fitting = [s for s in (slot.slots if isinstance(slot, Either) else (slot,)) if _fits(s, value)]
    if not fitting or isinstance(fitting[0], tuple) and len(value) != len(fitting[0]):
        _fail(doc, at, f"expected {_name(slot)}, got {value!r}")
    if fitting[0] is not slot:  # the slot of an Either
        return read(fitting[0], value, at, doc)
    if slot is float and not abs(value) <= sys.float_info.max:  # also an integer beyond it
        _fail(doc, at, f"must be finite, got {value!r}")
    if isinstance(slot, (list, tuple)):
        items = slot if isinstance(slot, tuple) else slot * len(value)
        return [read(s, v, f"{at}[{i}]", doc) for i, (s, v) in enumerate(zip(items, value))]
    if not isinstance(slot, dict):
        return value
    prefix = f"{at}." if at else ""
    for key in value:
        if key not in slot and ... not in slot:
            _fail(doc, f"{prefix}{key}", "unknown key")
    missing = [k for k, s in slot.items() if k not in value and k is not ... and not isinstance(s, Opt)]
    if missing:
        _fail(doc, f"{prefix}{missing[0]}", f"required; {at or 'the document'} has no {', '.join(missing)}")
    out = dict(value)
    for key, s in slot.items():
        if isinstance(s, Opt) and (key not in value or value[key] is None and s.default is None):
            if s.default is not _MISSING:
                out[key] = None if s.default is None else read(s.slot, s.default, f"{prefix}{key}", doc)
        elif key is not ...:
            out[key] = read(s.slot if isinstance(s, Opt) else s, value[key], f"{prefix}{key}", doc)
    return out
