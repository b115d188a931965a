"""The base of the package's immutable validated values.

``DioSolution``, ``SearchSpec`` and ``FamilyParams`` behave as frozen
dataclasses did, without the ``dataclasses`` import: that module loads
``inspect``, ``ast``, ``dis`` and ``tokenize`` and builds each class's
methods from source text, which a short CLI run would pay for at every
start.  A subclass names its fields in ``__slots__``, sets them in its own
``__init__`` with ``object.__setattr__`` and ends that ``__init__`` with
``self.__post_init__()``, which holds its checks.  ``Value`` adds:

  - ``==`` and ``hash`` over the fields, in slot order, between instances of
    one class (a value never equals a plain tuple);
  - the dataclass ``repr``, ``Name(field=value, ...)``;
  - ``AttributeError`` on any assignment or deletion;
  - ``__reduce__`` through the constructor, so pickle and copy rebuild a
    value by its ``__init__`` and run its checks again.
"""

__all__ = ["Value"]


class Value:
    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple()
