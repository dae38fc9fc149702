"""Finite probability spaces and the values that live on them.

Everything here is immutable after construction and validated eagerly:
weights are checked against the simplex invariants the moment a
distribution is built, never lazily. Vectors are stored once, as
read-only arrays positionally aligned to the owning space's fixed
outcome order: float64 for numbers, bool for an event's membership. No
reordering ever occurs, so elementwise comparisons are well defined
everywhere else in the package.

Every value type of the package, here and in the other modules, derives
from one base, :class:`_Value`: its fields are its annotated names, and
the base gives each one its constructor, ``repr``, equality, hashing and
immutability without generating any code, so that importing the package
stays cheap. An attribute derived from the fields, such as a space's
``index``, is set once in ``__post_init__`` through ``object.__setattr__``,
as a field is, so a value is complete once built and nothing is cached on
it later. :class:`_ArrayValued` is the base's subclass for values
compared by a stored array.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from types import MappingProxyType
from operator import attrgetter
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .errors import ConstructionError, ZeroMassEvent

#: Probabilities at or below this threshold count as exactly zero mass.
#: Distinguishes true zeros from rounding dust and guards renormalization.
ZERO_MASS = 1e-12

#: Allowed deviation of a weight vector's total from one.
SUM_TOL = 1e-9

#: numpy's pairwise total is trusted against SUM_TOL only this far inside it; it is within
#: 1e-14 of the exact total, so nearer the bound the exactly rounded total decides.
PAIRWISE_SUM_MARGIN = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _finite_array(values, shape, kind, shape_code, shape_message, finite_message) -> np.ndarray:
    """A read-only float64 copy of ``values`` in ``shape``, every entry a finite number.

    ``shape_message`` may name ``shape`` and ``size`` (entries given, or "ragged").
    """
    try:
        a = np.array(values, order="C")  # inferred, so text shows in the dtype or as an object
        a = None if a.dtype.kind not in "biufO" or a.dtype.kind == "O" and any(
            isinstance(x, (str, bytes)) for x in a.flat) else _readonly(a.astype(float, copy=False))
    except (TypeError, ValueError, OverflowError):  # an entry is not a number, or ragged nesting
        a = None
    try:
        got = np.shape(values) if a is None else a.shape
    except ValueError:  # ragged nesting
        got = None
    if got != shape:
        size = "ragged" if got is None else math.prod(got)
        raise ConstructionError(shape_code, shape_message.format(shape=shape, size=size))
    if a is None or not np.isfinite(a).all():
        raise ConstructionError(f"{kind}.not_finite", finite_message)
    return a


def _require_simplex(a: np.ndarray, kind: str, noun: str, nouns: str) -> None:
    """No negative entry in ``a``, and an exactly rounded total within ``SUM_TOL`` of one.

    numpy's pairwise sum of nonnegative entries is within 1e-14 of the exact
    total, so the exactly rounded one is needed only near or past the bound.
    """
    if a.min() < 0.0:
        raise ConstructionError(f"{kind}.negative_weight", f"negative {noun} {float(a.min())}")
    with np.errstate(over="ignore"):  # finite weights past the float range sum to inf
        if abs(float(a.sum()) - 1.0) <= SUM_TOL - PAIRWISE_SUM_MARGIN:
            return
    try:
        total = math.fsum(a.ravel().tolist())
    except OverflowError:  # the exact total is past the float range
        total = math.inf
    if abs(total - 1.0) > SUM_TOL:
        raise ConstructionError(f"{kind}.sum_not_one", f"{nouns} sum to {total!r}, not 1")


def _finite_scalar(value, code: str, requirement: str, admits=lambda x: True) -> float:
    """``value`` as a float, if finite (an int past the float range is not) and ``admits`` it."""
    try:
        x = None if isinstance(value, (str, bytes)) else float(value)  # float() parses text
    except OverflowError:
        x = math.inf
    except (TypeError, ValueError):  # not a number at all
        x = None
    if x is None or not (math.isfinite(x) and admits(x)):
        raise ConstructionError(code, f"{requirement}, got {value if x is None else x!r}")
    return x


def _integer(value, code: str, requirement: str, low: int) -> int:
    """``value`` if it is an int of at least ``low``; a bool is no count or index."""
    if type(value) is not int or value < low:
        raise ConstructionError(code, f"{requirement}, got {value!r}")
    return value


def _row_dots(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each ``M[i] @ V``, or ``M[i] @ V[i]`` for a matrix ``V``, rounded as the 1-D ``a @ p``.

    One stacked (1, n) @ (n, 1) ``matmul`` reaches the same BLAS ``ddot``; ``einsum``
    and ``sum(axis=1)`` would be as fast but add in another order, off in the last bits.
    """
    return np.matmul(M[:, None, :], V[..., None])[:, 0, 0]


def _tuple_getter(names: tuple[str, ...]):
    """A function from an object to the tuple of its attributes ``names``."""
    if len(names) > 1:
        return attrgetter(*names)  # one C call
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class _Value:
    """An immutable value whose fields are its class's annotated names, in order.

    Each subclass's fields and their defaults (the class attributes of those names) are
    read once, when the class is made, and one set of methods serves every subclass:
    ``__init__`` takes each field by position or keyword, then calls ``__post_init__``,
    which may check or normalize a field, and set a derived attribute once, through
    ``object.__setattr__``; ``repr`` is ``Name(field=value, ...)``; equality and hashing
    read the fields in order, never a derived attribute; assignment and deletion raise
    ``AttributeError``. No code is generated for a subclass.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{k: cls.__dict__[k] for k in own if k in cls.__dict__}}
        cls._values = staticmethod(_tuple_getter(cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # set as a frozen dataclass sets them, so that reads stay fast and no instance dict is
        # built; any() drains the map in C, since object.__setattr__ returns None
        any(map(object.__setattr__, repeat(self), fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """One value per field, in order: ``args``, then ``kwargs`` or else the defaults."""
        fields, defaults, cls = self._fields, self._defaults, type(self).__name__
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls}() missing required argument {name!r}")
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        if kwargs:  # a field given twice, or no field at all
            name = next(iter(kwargs))
            raise TypeError(f"{cls}() got " + (f"multiple values for argument {name!r}"
                            if name in fields else f"an unexpected keyword argument {name!r}"))
        return values

    def __post_init__(self) -> None:
        """Check or normalize the fields once they are set; a subclass's own rule."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))


class _ArrayValued(_Value):
    """Equality and hashing by the fields named in ``_keys`` and the array named by ``_vector``."""

    _keys = ("space",)
    _vector = "array"

    def _contents(self) -> tuple[tuple, np.ndarray]:
        return tuple(getattr(self, k) for k in self._keys), getattr(self, self._vector)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (keys, a), (other_keys, b) = self._contents(), other._contents()
        return keys == other_keys and np.array_equal(a, b)

    def __hash__(self) -> int:
        keys, a = self._contents()
        return hash((keys, tuple(a.ravel().tolist())))


class SampleSpace(_Value):
    """Ordered finite set of distinct outcome labels: strings (a subclass will do), UTF-8 safe;
    ``index``, set when the space is built, maps each label to its position, a read-only view
    of the dict that events look labels up in."""

    outcomes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) < 1:
            raise ConstructionError("space.empty", "a sample space needs at least one outcome")
        # join takes only strings; encode rejects a lone surrogate, which JSON decoding lets in
        try:
            "".join(self.outcomes).encode()
        except TypeError:
            raise ConstructionError("space.bad_label", "outcome labels must be strings") from None
        except UnicodeEncodeError as e:  # name the label that holds the first bad character
            ends = accumulate(map(len, self.outcomes))
            bad = self.outcomes[next(i for i, end in enumerate(ends) if end > e.start)]
            raise ConstructionError(
                "space.bad_label", f"outcome label {bad!r} is not writable text"
            ) from None
        object.__setattr__(self, "_index", dict(zip(self.outcomes, range(len(self.outcomes)))))
        object.__setattr__(self, "index", MappingProxyType(self._index))
        if len(self._index) != len(self.outcomes):
            seen: set[str] = set()
            dup = next(x for x in self.outcomes if x in seen or seen.add(x))
            raise ConstructionError("space.duplicate_label", f"duplicate outcome label {dup!r}")

    def __len__(self) -> int:
        return len(self.outcomes)

    def __contains__(self, label: object) -> bool:
        try:
            return label in self._index
        except TypeError:  # an unhashable label is no outcome
            return False

    def subset(self, *labels: str) -> "Event":
        """Convenience constructor for an event on this space."""
        return Event(self, labels)

    def whole(self) -> "Event":
        return Event(self, self.outcomes)


def _unknown_labels(labels: Iterable[object], known: Mapping[str, int]) -> list:
    """The labels not in ``known``, once each, in the order of their text.

    Labels of any type are sorted; an unhashable one is unknown, and is
    listed as often as it occurs.
    """
    unknown: list = []
    seen: set = set()
    for x in labels:
        try:
            if x in known or x in seen:
                continue
            seen.add(x)
        except TypeError:  # unhashable
            pass
        unknown.append(x)
    return sorted(unknown, key=str)


def _require_same_space(a: SampleSpace, b: SampleSpace, kind: str, noun: str = "") -> None:
    if a != b:
        raise ConstructionError(f"{kind}.space_mismatch",
                                f"{noun or kind} lives on a different sample space")


class Event(_ArrayValued):
    """A subset (possibly empty) of a space's outcomes.

    Stored as ``indicator``, a read-only bool mask in outcome order,
    built while the labels given are checked; ``labels``, ``members``
    and ``describe`` are derived. A float consumer gets the same bits
    from the mask as from a 0/1 float vector (``array @ mask``,
    ``array * mask``), and numpy casts it where it is used.
    """

    _vector = "indicator"

    space: SampleSpace
    indicator: np.ndarray

    def __init__(self, space: SampleSpace, members: Iterable[str]):
        if isinstance(members, str):  # iterated, "ab" would be the event {a, b}
            raise ConstructionError(
                "event.bad_members", f"members must be a collection of labels, got {members!r}")
        labels = members if isinstance(members, (list, tuple)) else tuple(members)
        try:
            positions = np.fromiter(map(space._index.__getitem__, labels), np.intp, len(labels))
        except (KeyError, TypeError):
            raise ConstructionError(
                "event.unknown_label",
                "event references labels not in the space: "
                f"{_unknown_labels(labels, space.index)}",
            ) from None
        indicator = np.zeros(len(space), bool)
        indicator[positions] = True
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "indicator", _readonly(indicator))

    def _derived(self, indicator: np.ndarray) -> "Event":
        """An event on the same space with the given bool mask."""
        e = object.__new__(Event)
        object.__setattr__(e, "space", self.space)
        object.__setattr__(e, "indicator", _readonly(indicator))
        return e

    @property
    def labels(self) -> list[str]:
        """The member labels in space order."""
        return list(map(self.space.outcomes.__getitem__, np.flatnonzero(self.indicator).tolist()))

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.labels)

    def complement(self) -> "Event":
        return self._derived(~self.indicator)

    def intersect(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space, "event")
        return self._derived(self.indicator & other.indicator)

    def difference(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space, "event")
        return self._derived(self.indicator & ~other.indicator)

    def issubset(self, other: "Event") -> bool:
        _require_same_space(self.space, other.space, "event")
        return not (self.indicator & ~other.indicator).any()

    def describe(self) -> str:
        return "{" + ", ".join(sorted(self.labels)) + "}"


class Distribution(_ArrayValued):
    """Nonnegative weights over a space's outcomes, summing to one.

    Stored as ``array``, a read-only float64 copy with no ``-0.0``; ``weights`` is a tuple view.
    """

    space: SampleSpace
    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _finite_array(
            self.array, (len(self.space),), "dist", "dist.length_mismatch",
            "got {size} weights for {shape[0]} outcomes", "weights must be finite numbers"))
        _require_simplex(self.array, "dist", "weight", "weights")
        if np.signbit(self.array).any():  # only a -0.0 gets past the simplex check
            object.__setattr__(self, "array", _readonly(self.array + 0.0))

    @classmethod
    def uniform(cls, space: SampleSpace) -> "Distribution":
        n = len(space)
        return cls(space, np.full(n, 1.0 / n))

    @classmethod
    def from_array(cls, space: SampleSpace, weights: Sequence[float] | np.ndarray) -> "Distribution":
        return cls(space, weights)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def prob(self, e: Event) -> float:
        _require_same_space(self.space, e.space, "event")
        return float(self.array @ e.indicator)

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of outcomes with strictly positive weight."""
        return _readonly(self.array > 0.0)


class RandomVariable(_ArrayValued):
    """A total real-valued function on a space, stored in outcome order.

    Stored as ``array``, a read-only float64 copy; ``values`` is a tuple view.
    """

    space: SampleSpace
    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _finite_array(
            self.array, (len(self.space),), "variable", "variable.not_total",
            "got {size} values for {shape[0]} outcomes", "values must be finite numbers"))

    @classmethod
    def from_mapping(cls, space: SampleSpace, mapping: Mapping[str, float]) -> "RandomVariable":
        """``mapping[x]`` at each outcome x, in space order; every key must be an outcome."""
        try:
            values = list(map(mapping.__getitem__, space.outcomes))
        except KeyError:
            missing = [x for x in space.outcomes if x not in mapping]
            raise ConstructionError(
                "variable.not_total", f"no value for outcomes {missing}"
            ) from None
        if len(mapping) != len(space):
            raise ConstructionError(
                "variable.unknown_label",
                "variable references labels not in the space: "
                f"{_unknown_labels(mapping, space.index)}",
            )
        return cls(space, values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())


class Partition(_Value):
    """Pairwise-disjoint nonempty events covering the whole space."""

    cells: tuple[Event, ...]

    def __post_init__(self):
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ConstructionError("partition.empty", "a partition needs at least one cell")
        space = cells[0].space
        coverage = np.zeros(len(space), np.intp)  # cells holding each outcome
        for c in cells:
            _require_same_space(c.space, space, "partition", "partition cell")
            if not c.indicator.any():
                raise ConstructionError("partition.empty_cell", "partition cells must be nonempty")
            coverage += c.indicator
        overlap = np.flatnonzero(coverage > 1)
        if overlap.size:
            raise ConstructionError(
                "partition.overlapping_cells",
                f"outcomes in more than one cell: {sorted(space.outcomes[i] for i in overlap)}",
            )
        missing = np.flatnonzero(coverage == 0)
        if missing.size:
            raise ConstructionError(
                "partition.not_exhaustive",
                f"outcomes in no cell: {sorted(space.outcomes[i] for i in missing)}",
            )

    @property
    def space(self) -> SampleSpace:
        return self.cells[0].space

    @classmethod
    def from_labels(cls, space: SampleSpace, cells: Sequence[Iterable[str]]) -> "Partition":
        return cls(tuple(Event(space, c) for c in cells))


class JointDistribution(_ArrayValued):
    """Probabilities over pairs from a row space and a column space.

    Stored as ``array``, a read-only float64 table: rows are row outcomes.
    """

    _keys = ("row_space", "col_space")

    row_space: SampleSpace
    col_space: SampleSpace
    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _finite_array(
            self.array, (len(self.row_space), len(self.col_space)), "joint", "joint.shape_mismatch",
            "weights must be {shape[0]}x{shape[1]}", "entries must be finite numbers"))
        _require_simplex(self.array, "joint", "entry", "entries")

    @classmethod
    def from_array(
        cls, row_space: SampleSpace, col_space: SampleSpace, weights: np.ndarray
    ) -> "JointDistribution":
        return cls(row_space, col_space, weights)

    @classmethod
    def independent(cls, p: "Distribution", q: "Distribution") -> "JointDistribution":
        """Product coupling: prob(w, b) = p(w) * q(b)."""
        return cls.from_array(p.space, q.space, np.outer(p.array, q.array))

    @classmethod
    def identity_coupling(cls, d: "Distribution") -> "JointDistribution":
        """Diagonal coupling of a distribution with itself."""
        return cls.from_array(d.space, d.space, np.diag(d.array))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _reweight(dist: Distribution, cells, weights, masses) -> Distribution:
    """Jeffrey's rule: each disjoint mask or 0/1 row of ``cells`` with a nonzero weight,
    rescaled from its mass under ``dist`` (positive wherever its weight is nonzero) to its
    weight."""
    out = np.zeros(len(dist.space))
    for cell, w, m in zip(cells, weights, masses):
        if w != 0.0:
            out += dist.array * cell / m * w  # at most 1 before * w, even for a subnormal m
    return Distribution.from_array(dist.space, out)


def condition(dist: Distribution, e: Event) -> Distribution:
    """Restrict ``dist`` to ``e`` and renormalize: Jeffrey's rule's kernel on one cell, weight 1.

    Outcomes outside ``e`` get weight zero. Raises :class:`ZeroMassEvent`
    when P(e) is at or below the zero-mass threshold.
    """
    mass = dist.prob(e)
    if mass <= ZERO_MASS:
        raise ZeroMassEvent(f"cannot condition on {e.describe()} with probability {mass!r}")
    return _reweight(dist, (e.indicator,), (1.0,), (mass,))


def expectation(dist: Distribution, f: RandomVariable) -> float:
    """Weighted mean of ``f`` under ``dist``."""
    _require_same_space(dist.space, f.space, "variable", "random variable")
    return float(dist.array @ f.array)


def marginal(j: JointDistribution, axis: Literal["row", "col"]) -> Distribution:
    """Marginal distribution of the row or column variable."""
    if axis == "row":
        return Distribution.from_array(j.row_space, j.array.sum(axis=1))
    if axis == "col":
        return Distribution.from_array(j.col_space, j.array.sum(axis=0))
    raise ConstructionError("joint.bad_axis", f"axis must be 'row' or 'col', got {axis!r}")


def conditional_prob(dist: Distribution, a: Event, b: Event) -> float:
    """P(a | b) = P(a and b) / P(b). Raises :class:`ZeroMassEvent` when P(b) is zero mass."""
    _require_same_space(dist.space, a.space, "event")  # before a zero-mass b can raise
    pb = dist.prob(b)
    if pb <= ZERO_MASS:
        raise ZeroMassEvent(f"conditioning event {b.describe()} has probability {pb!r}")
    return dist.prob(a.intersect(b)) / pb
