"""The one reader of JSON documents: every input's shape is checked here.

A `Node` is a JSON value with its path in the document: `$` at the top,
`cells.1` for a field of a field, `boundary.1[0][1]` for list items.
Each typed step checks its node and raises `ShapeError`, whose message
reads `PATH: expected ..., got ...`.  The reader checks what only it can
see: JSON types, the arity of fixed-size lists, uniform row width and
the choices and ranges of nested scene fields.  Counts, index ranges and
reals are checked by the constructor that builds the value (`as_reals`
reads reals there), so no numpy is imported here; integers pass the gate
`as_int`.
"""

from __future__ import annotations

import reprlib

from .analytic import as_int

_SHOW = reprlib.Repr()
_SHOW.maxlevel, _SHOW.maxlist, _SHOW.maxdict = 2, 4, 4
_SHOW.maxstring = _SHOW.maxother = 40
_REQUIRED = object()


class ShapeError(ValueError):
    """A JSON value of the wrong shape, named by its path."""


class _Missing:
    """What an absent field holds."""

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return f"no {self.key!r} field"


def node(value):
    """`value` as the top level of a document, unless it is a node."""
    return value if type(value) is Node else Node(value)


class Node:
    __slots__ = ("value", "path")

    def __init__(self, value, path="$"):
        self.value, self.path = value, path

    def fail(self, expected):
        raise ShapeError(f"{self.path}: expected {expected}, "
                         f"got {_SHOW.repr(self.value)}")

    def obj(self):
        if not isinstance(self.value, dict):
            self.fail("an object")
        return self

    def has(self, key):
        """Whether this is an object with the field `key`."""
        return isinstance(self.value, dict) and key in self.value

    def field(self, key, default=_REQUIRED):
        """The field `key`; an absent one holds `default` when given."""
        value = self.obj().value.get(key, default)
        return Node(_Missing(key) if value is _REQUIRED else value,
                    key if self.path == "$" else f"{self.path}.{key}")

    def items(self, keys=None):
        """(key, node) of each field, each key one of `keys` if given."""
        fields = [(key, self.field(key)) for key in self.obj().value]
        for key, child in fields if keys is not None else ():
            Node(key, child.path).str(keys)
        return fields

    def is_list(self):
        return isinstance(self.value, list)

    def list(self, length=None):
        """The item nodes of a list, `length` of them if given."""
        if not isinstance(self.value, list) or length not in (
                None, len(self.value)):
            self.fail("a list" if length is None
                      else f"a list of length {length}")
        return [Node(v, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def rows(self):
        """The item nodes of each row of a list of lists, every row as
        long as the first."""
        rows = self.list()
        width = len(rows[0].list()) if rows else 0
        return [row.list(width) for row in rows]

    def matrix(self):
        """Rows of integers, each as long as the first."""
        return [[x.int() for x in row] for row in self.rows()]

    def reals(self, ndim=1):
        """The value of a list (with `ndim=2`, of rows each as long as the
        first), whose entries its constructor reads as reals."""
        if ndim == 2:
            self.rows()
        else:
            self.list()
        return self.value

    def int(self, lo=None, hi=None):
        """An exact integer, in lo..hi if given."""
        try:
            n = as_int(self.value)
        except ValueError:
            n = None
        if n is None or lo is not None and not lo <= n <= hi:
            self.fail("an integer" if lo is None
                      else f"an integer in {lo}..{hi}")
        return n

    def str(self, choices=None):
        """A string, one of `choices` if given."""
        if not isinstance(self.value, str) or choices is not None and (
                self.value not in choices):
            self.fail("a string" if choices is None else
                      "one of " + ", ".join(map(repr, choices)))
        return self.value

    def bool(self):
        if not isinstance(self.value, bool):
            self.fail("true or false")
        return self.value
