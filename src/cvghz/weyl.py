"""Exact algebra of lattice Weyl (phase-space translation) operators.

Operators are words of the form

    e^{2*pi*i*phase} . prod_j X_j^{m_j * a0} Y_j^{n_j * b0}

where X = exp(i*a*x), Y = exp(i*b*p) are phase-space translations and the
exponents are restricted to the commensurate lattice a0 = b0 = pi*sqrt(2/d).
On that lattice the exchange X^{m a0} Y^{n b0} -> Y^{n b0} X^{m a0} costs the
phase factor exp(-2*pi*i*m*n/d), so every phase generated by reordering is a
whole number k of 1/d turns and the algebra closes over the integers mod d,
as for the generalized Pauli group. Only `RationalPhase.to_complex` touches
floating point.
"""

from __future__ import annotations

import cmath
import math


class _Frozen:
    """Immutable value: equality, hashing and repr over its __slots__.

    The semantics of a frozen dataclass, without the cost of importing and
    running `dataclasses` at start-up. A subclass lists its fields in
    __slots__, in order, and the shared __init__ binds positional and
    keyword arguments to them; every method reads them from `_names`,
    recorded once per class. A subclass that checks its fields calls the
    shared __init__ after the checks; one that normalises or defaults them,
    or is built in a hot loop, sets them with object.__setattr__. Equal
    values have the same type.
    """

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # a subclass that adds no fields (`__slots__ = ()`) keeps its parent's
        cls._names = cls.__slots__ or cls._names

    def __init__(self, *args, **kwargs):
        names = self._names
        rest = names[len(args):]  # the fields left to keywords
        if len(args) + len(kwargs) != len(names) \
                or kwargs and any(name not in rest for name in kwargs):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)}, "
                f"each once; got {len(args)} positional and {sorted(kwargs)}")
        for name, value in zip(names, args + tuple(map(kwargs.get, rest))):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._names])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through __setattr__
        return type(self), self._fields()


class RationalPhase(_Frozen):
    """A phase angle as an exact fraction of one full turn, reduced mod 1,
    for reports to print and convert; the algebra holds ints mod d.

    The represented scalar is exp(2*pi*i * numerator/denominator).
    Always stored reduced with 0 <= numerator/denominator < 1.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if denominator == 0:
            raise ZeroDivisionError("phase denominator must be nonzero")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        object.__setattr__(self, "numerator", numerator // g)
        object.__setattr__(self, "denominator", denominator // g)

    @property
    def turns(self):
        """The phase as a `fractions.Fraction` of a turn."""
        from fractions import Fraction  # pulls in decimal: not at start-up

        return Fraction(self.numerator, self.denominator)

    def to_complex(self) -> complex:
        """The unit-modulus scalar this phase represents (floating point)."""
        return cmath.exp(2j * math.pi * self.numerator / self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class LatticeParams(_Frozen):
    """Lattice dimension parameter d; base exponents a0 = b0 = pi*sqrt(2/d).

    Only d is stored. The commutation phase of X^{m*a0} with Y^{n*b0} is
    exactly m*n/d turns. d=2 gives a0 = pi, d=4 gives a0 = pi/sqrt(2).
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"lattice dimension must be >= 2, got {d}")
        object.__setattr__(self, "d", d)


class WeylWord(_Frozen):
    """Normal-ordered multi-party Weyl operator.

    `exponents[j] = (m_j, n_j)` places X_j^{m_j*a0} Y_j^{n_j*b0} on party j,
    X left of Y, and the word carries the phase factor e^{2*pi*i*phase/d},
    phase reduced into range(d). Equality of canonical forms is plain
    structural equality.
    """

    __slots__ = ("params", "exponents", "phase")

    def __init__(self, params: LatticeParams,
                 exponents: tuple[tuple[int, int], ...], phase: int = 0):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "phase", phase % params.d)

    @property
    def n_parties(self) -> int:
        return len(self.exponents)


def identity_word(params: LatticeParams, n_parties: int) -> WeylWord:
    return WeylWord(params, ((0, 0),) * n_parties)


def _check_compatible(a: WeylWord, b: WeylWord) -> None:
    if a.params.d != b.params.d:
        raise ValueError(f"mismatched lattice params: {a.params} vs {b.params}")
    if a.n_parties != b.n_parties:
        raise ValueError(
            f"mismatched party counts: {a.n_parties} vs {b.n_parties}")


def crossing(a, b) -> int:
    """sum_j m_b,j * n_a,j over exponent rows of (m, n) pairs, in exact ints.

    Normal-ordering a*b moves b's X^{m_b} left past a's Y^{n_a}: that costs
    -crossing(a, b)/d turns.
    """
    total = 0
    for (_, na), (mb, _) in zip(a, b):
        total += mb * na
    return total


def symplectic(a, b) -> int:
    """Words with exponent rows a, b commute up to symplectic(a, b)/d turns."""
    return crossing(b, a) - crossing(a, b)


def multiply(a: WeylWord, b: WeylWord) -> WeylWord:
    """Normal form of a*b: exponents add, phases add -crossing(a, b)."""
    _check_compatible(a, b)
    exps = tuple((ma + mb, na + nb)
                 for (ma, na), (mb, nb) in zip(a.exponents, b.exponents))
    cross = crossing(a.exponents, b.exponents)
    return WeylWord(a.params, exps, a.phase + b.phase - cross)


def product(words) -> WeylWord:
    """Left-to-right product of a non-empty iterable of words."""
    words = list(words)
    if not words:
        raise ValueError("empty product has no lattice params or parties")
    acc = words[0]
    for w in words[1:]:
        acc = multiply(acc, w)
    return acc


def commutation_phase(a: WeylWord, b: WeylWord) -> int:
    """The k in range(d) with a*b = e^{2*pi*i*k/d} * b*a.

    Equals symplectic(a, b) mod d; zero iff a, b commute.
    """
    _check_compatible(a, b)
    return symplectic(a.exponents, b.exponents) % a.params.d


def is_scalar(a: WeylWord) -> int | None:
    """The word's phase if it is a scalar multiple of the identity, else None."""
    if all(e == (0, 0) for e in a.exponents):
        return a.phase
    return None
