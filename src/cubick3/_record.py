"""The frozen-record protocol of the library's value classes, and integers as text.

Lattices, discriminant groups, condition flags and reports are plain
classes on `Record`.  Each writes its own ``__init__``: the argument
checks, then one store per field into the instance ``__dict__``
(assignment is refused).  The fields are the parameters of that
``__init__``, in order (`_fields`).  The rest of the protocol is here, and
only here:

* assignment and deletion of any attribute raise AttributeError;
* ``==`` compares the fields of two instances of one class, and is
  NotImplemented across classes, even with equal field values;
* ``hash`` is the hash of the tuple of fields;
* ``repr`` is ``Cls(field=value, ...)``, each value through `show`;
* ``_replace(**changes)`` builds a copy through the constructor, so its
  checks run again (an unknown name is the constructor's TypeError), and
  an attribute set on the instance outside the fields (such as
  `lattice.Sublattice`'s saturation marker) is not copied.

A `functools.cached_property` stores its value in the instance
``__dict__`` beside the fields, where ``==``, ``hash`` and ``repr`` do not
see it.  The stdlib `dataclasses` would generate the same methods, but its
import (which loads `inspect`, `ast` and `dis`) and the code it generates
for each class cost more than the rest of ``import cubick3``.

The interpreter refuses to convert an int of more than 4,300 digits (its
default limit) to text or back, and the library's integers pass that limit:
the (***) witness of d = 200000000006 has about 32,000 digits.  Every such
conversion goes through this module, which never changes the limit:
`int_str` and `json_int` write an int, `parse_int` reads one, and `show`,
the repr of every record field and of every value an error message quotes,
describes an int too long to print instead of failing.
"""


def int_str(n) -> str:
    """str(n), also for an int past the interpreter's limit on int-str conversion.

    The limit (4,300 digits by default) makes str() raise ValueError;
    `decimal` converts without it.
    """
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def json_int(n: int):
    """Integers above 64 bits are rendered as decimal strings in JSON."""
    return n if -(2**63) <= n < 2**63 else int_str(n)


def parse_int(s: str) -> int:
    """int(s) for a str s, also past the interpreter's limit on int-str conversion.

    `decimal` reads only a string of int()'s grammar that int() refused for
    its length: decimal digits with single underscores between them, an
    optional sign and surrounding whitespace.  Anything else int() refuses
    ("1e5", "1.5", "NaN") raises its ValueError.
    """
    try:
        return int(s)
    except ValueError:
        import re

        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", s):
            raise
        from decimal import Decimal

        return int(Decimal(s))


def show(x) -> str:
    """repr(x), or a short description where x holds an int too long to print."""
    try:
        return repr(x)
    except ValueError:  # an int past the int-str digit limit, x itself or within x
        return f"<{type(x).__qualname__} with more digits than the int-str limit>"


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={show(v)}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        args = dict(zip(self._fields, self._values()))
        args.update(changes)
        return type(self)(**args)
