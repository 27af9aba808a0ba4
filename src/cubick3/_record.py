"""The frozen-record protocol of the library's value classes.

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
* ``repr`` is ``Cls(field=value, ...)``;
* ``_replace(**changes)`` builds a copy through the constructor, so its
  checks run again (an unknown name is the constructor's TypeError), and
  an attribute set on the instance outside the fields (such as
  `lattice.Sublattice`'s saturation marker) is not copied.

A `functools.cached_property` stores its value in the instance
``__dict__`` beside the fields, where ``==``, ``hash`` and ``repr`` do not
see it.  The stdlib `dataclasses` would generate the same methods, but its
import (which loads `inspect`, `ast` and `dis`) and the code it generates
for each class cost more than the rest of ``import cubick3``.
"""


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
        d = self.__dict__
        fields = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        args = dict(zip(self._fields, self._values()))
        args.update(changes)
        return type(self)(**args)
