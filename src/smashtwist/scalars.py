"""Exact scalar arithmetic: Gaussian rationals and truncated power series.

The base ring for every computation in this package is Q(i)[[h]] cut off at a
fixed order N: a coefficient is a rational plus a rational multiple of the
imaginary unit, and a series maps h-powers to such coefficients.  All
arithmetic is exact; there is no floating point anywhere, so equality of two
values is literal equality of their coefficient data.

Values are immutable by convention: nothing in this package writes to a
scalar after construction, which keeps them safe to share and cache.  Within
one problem, whose ``RewriteSystem`` owns an ``InternTable``, equal series are
one object, and arithmetic on them is computed once and then looked up.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from functools import lru_cache
from math import gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _gauss(a: int, b: int, d: int) -> "GaussRational":
    """(a + b*i)/d in lowest terms; requires d > 0."""
    g = gcd(a, b, d)
    out = GaussRational.__new__(GaussRational)
    if g == 1:
        out.a, out.b, out.d = a, b, d
    else:
        out.a, out.b, out.d = a // g, b // g, d // g
    return out


class GaussRational:
    """A value re + im*i with exact rational parts and i*i = -1.

    Stored as three integers, the value (a + b*i)/d with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields.  ``re`` and ``im``
    give the parts as ``Fraction``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        rd, idn = re.denominator, im.denominator
        # over the lcm of two lowest-terms denominators no common factor is left
        d = rd // gcd(rd, idn) * idn
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // idn)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(x) -> "GaussRational":
        if x.__class__ is GaussRational:
            return x
        if x.__class__ is int:
            return _gauss(x, 0, 1)
        if isinstance(x, (int, Fraction, str)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussRational")

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational.coerce(other)
        d1, d2 = self.d, other.d
        return _gauss(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational.coerce(other)
        d1, d2 = self.d, other.d
        return _gauss(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self):
        return _gauss(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational.coerce(other)
        a1, b1, d1 = self.a, self.b, self.d
        a2, b2, d2 = other.a, other.b, other.d
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __eq__(self, other):
        if other.__class__ is GaussRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a * other.denominator == other.numerator * self.d
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


class TruncSeries:
    """Polynomial in the deformation parameter h truncated at a fixed order.

    Storage is sparse: ``data`` maps an h-power to its nonzero coefficient.
    All arithmetic silently discards terms of degree > order, and two series
    are equal iff they share the order and every coefficient.
    """

    # _home: None, or a weak reference to the InternTable that gave ``_ix``
    __slots__ = ("order", "data", "_home", "_ix")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self._home = None
        self.data = {}
        for k, c in enumerate(coeffs):
            c = GaussRational.coerce(c)
            if not c.is_zero():
                self.data[k] = c

    @staticmethod
    def _from_data(order: int, data: dict) -> "TruncSeries":
        out = TruncSeries.__new__(TruncSeries)
        out.order = order
        out.data = data
        out._home = None
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, order: int) -> "TruncSeries":
        c = GaussRational.coerce(value)
        return TruncSeries._from_data(order, {} if c.is_zero() else {0: c})

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries._from_data(order, {})

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries.const(1, order)

    @staticmethod
    def h_power(k: int, order: int, coeff=1) -> "TruncSeries":
        """coeff * h^k, or zero if k exceeds the order."""
        if k < 0:
            raise ValueError("negative power of h")
        c = GaussRational.coerce(coeff)
        if k > order or c.is_zero():
            return TruncSeries.zero(order)
        return TruncSeries._from_data(order, {k: c})

    @staticmethod
    def coerce(x, order: int) -> "TruncSeries":
        if isinstance(x, TruncSeries):
            if x.order != order:
                raise ValueError(f"order mismatch: {x.order} vs {order}")
            return x
        return TruncSeries.const(x, order)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if other.__class__ is not TruncSeries or other.order != self.order:
            self._check(other)
        return _memoized("add", self, other, TruncSeries._add)

    def _add(self, other):
        out = dict(self.data)
        for k, c in other.data.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return TruncSeries._from_data(self.order, out)

    def __sub__(self, other):
        if other.__class__ is not TruncSeries or other.order != self.order:
            self._check(other)
        return self + -other

    def __neg__(self):
        return _memoized("neg", self, None, TruncSeries._neg)

    def _neg(self, _):
        return TruncSeries._from_data(self.order, {k: -c for k, c in self.data.items()})

    def __mul__(self, other):
        if other.__class__ is not TruncSeries or other.order != self.order:
            if isinstance(other, (int, Fraction, GaussRational)):
                return self.scale(other)
            if not isinstance(other, TruncSeries):
                return NotImplemented
            self._check(other)
        home = self._home
        if home is not other._home:
            # join first, so that a product by one is never memoized
            self, other = _join(self, other)
            home = self._home if self._home is other._home else None
        if home is not None:
            # index 0 is the table's one: a product by it is the other operand
            if not self._ix:
                return other
            if not other._ix:
                return self
        return _memoized("mul", self, other, TruncSeries._mul)

    def _mul(self, other):
        order = self.order
        out: dict = {}
        for i, a in self.data.items():
            for j, b in other.data.items():
                k = i + j
                if k > order:
                    continue
                v = a * b
                prev = out.get(k)
                if prev is None:
                    out[k] = v
                else:
                    s = prev + v
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        return TruncSeries._from_data(order, out)

    def scale(self, c) -> "TruncSeries":
        return _memoized("scale", self, c, TruncSeries._scale)

    def _scale(self, c):
        if c.__class__ is not GaussRational:
            c = GaussRational.coerce(c)
        if c.is_zero():
            return TruncSeries._from_data(self.order, {})
        return TruncSeries._from_data(
            self.order, {k: v * c for k, v in self.data.items()}
        )

    # -- queries ------------------------------------------------------

    def coefficient(self, k: int) -> GaussRational:
        return self.data.get(k, ZERO)

    def is_zero(self) -> bool:
        return not self.data

    def lowest_order(self):
        """Smallest k with a nonzero h^k coefficient, or None if zero."""
        return min(self.data) if self.data else None

    def __eq__(self, other):
        if other.__class__ is not TruncSeries:
            if not isinstance(other, (int, Fraction, GaussRational)):
                return NotImplemented
            other = TruncSeries.const(other, self.order)
        return self.order == other.order and self.data == other.data

    def __hash__(self):
        # the terms' hashes combined in any order, without a GaussRational call
        h = 0
        for k, c in self.data.items():
            h ^= hash((k, c.a, c.b, c.d))
        return h

    def __repr__(self):
        coeffs = tuple(self.data.get(k, ZERO) for k in range(self.order + 1))
        return f"TruncSeries({self.order}, {coeffs!r})"

    def __str__(self):
        parts = []
        for k in sorted(self.data):
            c = self.data[k]
            if k == 0:
                parts.append(str(c))
            else:
                hpow = "h" if k == 1 else f"h^{k}"
                if c == ONE:
                    parts.append(hpow)
                elif c == -ONE:
                    parts.append(f"-{hpow}")
                else:
                    parts.append(f"{c}*{hpow}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text


class InternTable:
    """One problem's canonical series, each with an index unique in the table,
    and per op a memo from the operands' indices (or an index and a plain
    scalar) to the canonical result.  Values point back through the table's
    one weak reference, so its owner's reference count alone frees it.

    Index 0 is always the table's one, interned first, so a product of two
    series of one table tests for a factor 1 with one integer and never
    stores such a product in the ``mul`` memo."""

    def __init__(self, order: int):
        self.ref = weakref.ref(self)
        self.values: dict = {}
        self.canon: list = []  # by index
        self.memos = {op: {} for op in ("mul", "add", "neg", "scale")}
        self.one = self.intern(TruncSeries.one(order))
        assert self.one._ix == 0

    def intern(self, x: TruncSeries) -> TruncSeries:
        """The canonical series equal to ``x``.  A series of no table becomes
        canonical, or carries the index of the canonical one if it exists."""
        if x._home is self.ref and self.canon[x._ix] is x:
            return x
        y = x if x._home is None else TruncSeries._from_data(x.order, x.data)
        c = self.values.setdefault(y, y)
        if c is y:
            y._home, y._ix = self.ref, len(self.canon)
            self.canon.append(y)
        elif x._home is None:
            x._home, x._ix = c._home, c._ix
        return c


def _join(a: TruncSeries, b: TruncSeries):
    """Both series in the live table of ``a``, or else of ``b``; as they are
    if neither has one."""
    for home in (a._home, b._home):
        table = home and home()
        if table is not None:
            return table.intern(a), table.intern(b)
    return a, b


def _memoized(op: str, a: TruncSeries, b, compute):
    """``compute(a, b)`` through the memo ``op`` of the operands' table;
    ``b`` is a series, a plain scalar or None."""
    series = b.__class__ is TruncSeries
    if series and a._home is not b._home:
        a, b = _join(a, b)
    home = a._home
    table = home and home()
    if table is None:
        return compute(a, b)
    memo = table.memos[op]
    # one int for two indices while a table holds fewer than 2**32 values; a
    # plain scalar keys with its class, so no float passes for an equal int
    key = a._ix << 32 | b._ix if series else (a._ix, b.__class__, b)
    out = memo.get(key)
    if out is None:
        out = memo[key] = table.intern(compute(a, b))
    return out


# ASCII digits only: int() and Fraction() also take signs, underscores,
# decimals, exponents and other scripts' digits
_NATURAL = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"[0-9]+(/[0-9]+)?")


@lru_cache(maxsize=4096)
def _parse_product(text: str):
    """Shared literal parser: returns (GaussRational value, h-power).

    Memoized by the text: configs repeat a few literals many times, and a
    GaussRational is never mutated after it is built.
    """
    value = GaussRational(1)
    h_power = 0
    factors = [f.strip() for f in str(text).split("*")]
    if not factors or any(not f for f in factors):
        raise ValueError(f"malformed scalar literal {text!r}")
    for k, tok in enumerate(factors):
        if tok.startswith("-") and k == 0 and tok != "-":
            value = -value
            tok = tok[1:].strip()
            if not tok:
                raise ValueError(f"malformed scalar literal {text!r}")
        if tok == "i":
            value = value * I
        elif tok == "h":
            h_power += 1
        elif tok.startswith("h^"):
            if not _NATURAL.fullmatch(tok[2:]):
                raise ValueError(f"bad power of h in {text!r}")
            h_power += int(tok[2:])
        else:
            try:
                if not _RATIONAL.fullmatch(tok):
                    raise ValueError
                value = value * GaussRational(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad factor {tok!r} in scalar literal {text!r}") from None
    return value, h_power


def parse_scalar_literal(text: str, order: int) -> TruncSeries:
    """Parse a product literal like "-1/2*i*h^2" into a series.

    The grammar is a '*'-separated product of factors: a rational (integer or
    numerator/denominator, in ASCII digits), the imaginary unit i, or a power
    of h (h or h^k).  A leading minus sign may be attached to the first factor.
    """
    value, h_power = _parse_product(text)
    return TruncSeries.h_power(h_power, order, value)


def parse_gauss_literal(text: str) -> GaussRational:
    """Parse an h-free literal like "-2/3*i" into a Gaussian rational."""
    value, h_power = _parse_product(text)
    if h_power:
        raise ValueError(f"literal {text!r} must not involve h here")
    return value

