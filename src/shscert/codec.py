"""One JSON codec for the package's dataclasses.

A dataclass that inherits ``Codec`` is written as a JSON object with one
key per field and read back by its type hints: ``float``, ``int``,
``str`` and ``bool`` scalars, ``tuple[T, ...]``, fixed ``tuple[A, B]``,
``dict[str, T]``, ``T | None``, and any class with a ``from_dict``. A
value of another shape or type raises ``TypeError`` (a bool or a string
is no number), and a non-integral ``int`` ``ValueError``. A value with a
``to_dict`` is written by calling it; ``Polynomial``, ``IntervalBox``,
``NoiseMoments`` and ``JumpSchedule`` keep their own formats that way.

Field metadata renames a key: ``{"key": "lambda"}`` writes the field
under another key, and ``{"key": None}`` leaves the field out, as does
``init=False``. The class attribute ``derived_keys`` names attributes
that the object derives from its fields, written after them. Reading
does not take them as input but checks them: a derived key present in
the document must equal the value the object derives, else
``ValueError``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
import typing
from collections.abc import Mapping


class Codec:
    """Mixin giving a dataclass ``to_dict``, ``to_json`` and ``from_dict``."""

    derived_keys: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        doc = {key: _encode(getattr(self, name)) for name, key, _, _ in _plan(type(self))}
        for name in self.derived_keys:
            doc[name] = _encode(getattr(self, name))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, doc: Mapping):
        """Read an object written by ``to_dict``. A missing key takes the
        field's default, or raises ``KeyError`` if the field has none; a
        value of the wrong shape raises ``TypeError``, and a derived key
        that differs from the derived value ``ValueError``."""
        doc = _object(doc)
        kwargs = {}
        for name, key, dec, required in _plan(cls):
            if key in doc:
                try:
                    kwargs[name] = dec(doc[key])
                except (TypeError, ValueError, OverflowError) as e:
                    raise type(e)(f"{key}: {e}") from None
            elif required:
                raise KeyError(key)
        obj = cls(**kwargs)
        for key in cls.derived_keys:
            derived = getattr(obj, key)
            if key in doc and doc[key] != _encode(derived):
                raise ValueError(f"{key}: written {doc[key]!r}, derived {derived!r}")
        return obj


def _encode(value):
    """A JSON-ready copy of value: lists for sequences, ``to_dict`` for
    objects that have one."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value.to_dict()


def decode(hint, value):
    """Read value as the type hint ``hint`` (see the module docstring)."""
    return _decoder(hint)(value)


@functools.cache
def _plan(cls) -> tuple:
    """(field name, key, decoder, required) for each written field
    of cls; the type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        if key is None or not f.init:
            continue
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plan.append((f.name, key, _decoder(hints[f.name]), required))
    return tuple(plan)


def _object(value) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _scalar(cast):
    def read(value):
        if type(value) is cast:
            return value
        # else only a number may convert, to a number; a bool is none
        if cast in (str, bool) or isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"expected {cast.__name__}, got {type(value).__name__}")
        if cast is int and value != int(value):
            raise ValueError(f"expected an integer, got {value!r}")
        return cast(value)

    return read


@functools.cache
def _decoder(hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):  # T | None
        (inner,) = set(args) - {type(None)}
        dec = _decoder(inner)
        return lambda v: None if v is None else dec(v)
    if origin is tuple and args[-1] is Ellipsis:
        dec = _decoder(args[0])
        return lambda v: tuple([dec(x) for x in _list(v)])
    if origin is tuple:
        decs = tuple(_decoder(a) for a in args)

        def fixed(v):
            if len(_list(v)) != len(decs):
                raise ValueError(f"expected {len(decs)} items, got {len(v)}")
            return tuple(d(x) for d, x in zip(decs, v))

        return fixed
    if origin is dict:
        dec = _decoder(args[1])
        return lambda v: {str(k): dec(x) for k, x in _object(v).items()}
    if hint in (float, int, str, bool):
        return _scalar(hint)
    return hint.from_dict
