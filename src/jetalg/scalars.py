"""Exact scalar arithmetic: rationals and truncated power series in h.

Every computation in this package happens over Q or over Q[h]/(h^(N+1)).
Equality is exact; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "Jet"]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce an int, a string like "2/3", or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        # one shared zero: dense matrices are mostly zeros
        return Fraction(value) if value else ZERO
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}: {exc}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


class Jet:
    """Truncated series sum_{s<=N} c_s h^s with rational coefficients.

    Arithmetic discards every term of degree > N.  Binary operations require
    both operands to share the truncation order; ints and Fractions promote
    to constant jets of the partner's order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a jet needs at least the h^0 coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        c = rational(value)
        return cls((c,) + (ZERO,) * order)

    @classmethod
    def zero(cls, order: int) -> "Jet":
        return cls((ZERO,) * (order + 1))

    @classmethod
    def h(cls, order: int, power: int = 1) -> "Jet":
        # h^power truncates to zero when power exceeds the order
        if power < 0:
            raise ValueError("negative powers of h are not representable")
        cs = [ZERO] * (order + 1)
        if power <= order:
            cs[power] = ONE
        return cls(cs)

    @classmethod
    def from_layers(cls, values, order: int) -> "Jet":
        """Build a jet from coefficients c_0..c_N, zero-padding short input."""
        cs = [rational(v) for v in values]
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        return cls(cs)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Jet.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [ZERO] * (n + 1)
        for p, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for q in range(n + 1 - p):
                b = o.coeffs[q]
                if b != 0:
                    out[p + q] += a * b
        return Jet(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        return NotImplemented

    __hash__ = None  # mutable-free but not meant for use as a dict key

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def low_order(self):
        """Exponent of the lowest nonzero term, or None for the zero jet."""
        for s, c in enumerate(self.coeffs):
            if c != 0:
                return s
        return None

    def coeff(self, s: int) -> Fraction:
        return self.coeffs[s]

    def __repr__(self):
        terms = []
        for s, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if s == 0:
                terms.append(str(c))
            elif s == 1:
                terms.append(f"{c}*h")
            else:
                terms.append(f"{c}*h^{s}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet({body}; N={self.order})"


def scalar_is_zero(c) -> bool:
    if isinstance(c, Jet):
        return c.is_zero()
    return c == 0


def scalar_low_order(c):
    """h-adic valuation: 0 for nonzero rationals, None for zero."""
    if isinstance(c, Jet):
        return c.low_order()
    return None if c == 0 else 0
