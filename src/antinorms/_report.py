"""The one renderer for the result records the CLI prints.

A report is a dataclass that inherits ``Report``.  ``to_dict`` is its
``dataclasses.asdict`` with arrays and tuples turned into lists, so the
JSON keys are the field names; ``table`` lays out the same keys as aligned
``key  value`` rows, with nested records as dotted keys and floats at 12
significant digits.  Imports nothing from the package.
"""

from dataclasses import asdict

import numpy as np


def fmt(v):
    """A float at 12 significant digits."""
    return f"{v:.12g}"


def _plain(v):
    """``v`` with NumPy arrays and tuples as lists, ready for ``json.dumps``."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _cell(v):
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, list):
        return "[" + ", ".join(_cell(x) for x in v) + "]"
    return str(v)


def _rows(d, prefix=""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _rows(v, f"{prefix}{k}.")
        else:
            yield prefix + k, _cell(v)


def table(d):
    """Aligned ``key  value`` rows over the keys of the plain dict ``d``."""
    rows = list(_rows(d))
    w = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(w)}  {v}" for k, v in rows)


class Report:
    """``to_dict`` and ``table`` for a dataclass result, both over its fields."""

    def to_dict(self):
        return _plain(asdict(self))

    def table(self):
        return table(self.to_dict())
