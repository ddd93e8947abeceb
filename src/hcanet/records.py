"""Canonical JSON, the one encoding of every record the package writes.

A record is a dataclass, encoded as its fields, or a plain JSON value that
may hold dataclasses.  Canonical means sorted keys and no whitespace, so
equal records are equal bytes: run manifests, reports, checkpoint config
headers and training-log lines are byte-identical across reruns.  Decoding
is ``json.loads`` followed by ``build``; each caller maps the errors to its
own exit code.
"""

from __future__ import annotations

import dataclasses
import json


def dumps(obj) -> str:
    """Canonical JSON of ``obj``: sorted keys, separators ``(",", ":")``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=dataclasses.asdict)


def write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(obj))


def build(cls, fields):
    """``cls(**fields)`` with every array-valued field turned into a tuple.

    Raises TypeError when ``fields`` is not a JSON object, or when it lacks a
    field without a default or names one that ``cls`` does not have.
    """
    if not isinstance(fields, dict):
        raise TypeError(f"{cls.__name__} needs a JSON object, got {fields!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
