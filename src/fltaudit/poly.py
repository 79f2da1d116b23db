"""Exact sparse polynomial arithmetic in x, y, z over Python's big integers.

A polynomial is a finite map from exponent triples (ex, ey, ez) to nonzero
integer coefficients.  The representation is canonical: zero coefficients are
never stored, so two polynomials are equal exactly when their term maps are
equal.  All operations are pure and every value is immutable after
construction, which makes polynomials safe to share across worker processes.

The fixed monomial order is graded lexicographic with x > y > z: monomials
are compared first by total degree, then lexicographically on the exponent
triple.  The order determines the leading term used by exact division and the
canonical text rendering.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "MonomialTable",
    "NotDivisible",
    "Polynomial",
    "X",
    "Y",
    "Z",
    "ONE",
    "ZERO",
]

_Exponents = tuple[int, int, int]


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed: no polynomial quotient exists."""


def _grlex_key(m: _Exponents) -> tuple[int, _Exponents]:
    # Graded lex, x > y > z: total degree first, then the exponent triple.
    return (m[0] + m[1] + m[2], m)


class Polynomial:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients."""

    # _table: the polynomial's MonomialTable, built at its first evaluation.
    __slots__ = ("_terms", "_table")

    def __init__(self, terms: Mapping[_Exponents, int] | None = None) -> None:
        clean: dict[_Exponents, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an integer")
                tup = tuple(mono)
                if len(tup) != 3 or any(not isinstance(e, int) or e < 0 for e in tup):
                    raise ValueError(f"bad exponent triple {mono!r}")
                if coeff:
                    key = (tup[0], tup[1], tup[2])
                    merged = clean.get(key, 0) + coeff
                    if merged:
                        clean[key] = merged
                    else:
                        clean.pop(key, None)
        self._terms = clean
        self._table = None

    @classmethod
    def _from_canonical(cls, terms: dict[_Exponents, int]) -> "Polynomial":
        # Internal fast path: `terms` must already be canonical.
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._table = None
        return poly

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError(f"constant must be an integer, got {value!r}")
        return cls._from_canonical({(0, 0, 0): value} if value else {})

    # ------------------------------------------------------------------
    # Inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[_Exponents, int]]:
        """Iterate (exponent triple, coefficient) pairs in unspecified order."""
        return iter(self._terms.items())

    # ------------------------------------------------------------------
    # Ring operations

    def __add__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged = out.get(mono, 0) + coeff
            if merged:
                out[mono] = merged
            else:
                out.pop(mono, None)
        return Polynomial._from_canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_canonical({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial._from_canonical({})
            return Polynomial._from_canonical(
                {m: c * other for m, c in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return Polynomial._from_canonical({})
        if len(a) > len(b):
            a, b = b, a
        out: dict[_Exponents, int] = {}
        for (ax, ay, az), ac in a.items():
            for (bx, by, bz), bc in b.items():
                key = (ax + bx, ay + by, az + bz)
                out[key] = out.get(key, 0) + ac * bc
        return Polynomial._from_canonical({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"polynomial exponent must be >= 0, got {exponent}")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # Evaluation and division

    def evaluate(self, x: int, y: int, z: int) -> int:
        """Exact value at an integer point, from a table built once per polynomial."""
        if self._table is None:
            self._table = MonomialTable((self,))
        return self._table.evaluate(x, y, z)[0]

    def div_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient q with self == q * divisor, else raise NotDivisible.

        Reduction by the divisor's graded-lex leading term.  Over the
        integers this decides exact divisibility for any nonzero divisor:
        if the remainder is a multiple of the divisor, its leading term is
        divisible by the divisor's leading term (monomial and coefficient
        alike), so the greedy reduction can only fail on non-multiples.
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError(f"divisor must be a Polynomial, got {divisor!r}")
        if divisor.is_zero:
            raise ValueError("division by the zero polynomial")
        lead = max(divisor._terms, key=_grlex_key)
        lead_coeff = divisor._terms[lead]
        dx, dy, dz = lead
        dterms = list(divisor._terms.items())
        rem = dict(self._terms)
        quo: dict[_Exponents, int] = {}
        while rem:
            rmono = max(rem, key=_grlex_key)
            rcoeff = rem[rmono]
            qx, qy, qz = rmono[0] - dx, rmono[1] - dy, rmono[2] - dz
            if qx < 0 or qy < 0 or qz < 0:
                raise NotDivisible(
                    f"leading monomial x^{rmono[0]}*y^{rmono[1]}*z^{rmono[2]} "
                    f"is not divisible by the divisor's leading monomial"
                )
            qcoeff, residue = divmod(rcoeff, lead_coeff)
            if residue:
                raise NotDivisible(
                    f"leading coefficient {rcoeff} is not an integer multiple "
                    f"of {lead_coeff}"
                )
            quo[(qx, qy, qz)] = qcoeff
            for (tx, ty, tz), tcoeff in dterms:
                key = (qx + tx, qy + ty, qz + tz)
                merged = rem.get(key, 0) - qcoeff * tcoeff
                if merged:
                    rem[key] = merged
                else:
                    rem.pop(key, None)
        return Polynomial._from_canonical(quo)

    # ------------------------------------------------------------------
    # Comparison and rendering

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0, 0): other} if other else {})
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self._terms, key=_grlex_key, reverse=True):
            coeff = self._terms[mono]
            body = _render_monomial(mono)
            magnitude = abs(coeff)
            if body and magnitude == 1:
                piece = body
            elif body:
                piece = f"{magnitude}*{body}"
            else:
                piece = str(magnitude)
            if not parts:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class MonomialTable:
    """Several polynomials over the union of their monomials, evaluated together.

    A monomial's block is the set of variables whose exponent in it is more
    than half the table's degree in that variable; the block's factor is the
    componentwise minimum of its monomials, and each monomial is its factor
    times a reduced monomial (for A, B, C at n = 24: the factors x^22 y^22,
    y^22 z^22, z^22 x^22, and reduced degrees at most 6).  ``evaluate``
    computes each reduced monomial and each factor once per point, and sums
    each polynomial's nonzero coefficients block by block.
    """

    __slots__ = ("_reduced", "_factors", "_sums", "_degrees")

    def __init__(self, polys: Iterable[Polynomial]) -> None:
        polys = tuple(polys)
        monomials = dict.fromkeys(m for poly in polys for m in poly._terms)
        dx, dy, dz = map(max, zip((0, 0, 0), *monomials))
        blocks: dict[tuple[bool, bool, bool], list[_Exponents]] = {}
        for m in monomials:
            blocks.setdefault((2 * m[0] > dx, 2 * m[1] > dy, 2 * m[2] > dz), []).append(m)
        self._factors = [tuple(map(min, zip(*members))) for members in blocks.values()]
        # Each monomial's block and the index of its reduced monomial.
        reduced: dict[_Exponents, int] = {}
        for b, (members, (fx, fy, fz)) in enumerate(zip(blocks.values(), self._factors)):
            for ex, ey, ez in members:
                rest = (ex - fx, ey - fy, ez - fz)
                monomials[ex, ey, ez] = b, reduced.setdefault(rest, len(reduced))
        self._reduced = list(reduced)
        self._degrees = tuple(map(max, zip((0, 0, 0), *reduced)))
        # Per polynomial, per block it has terms in: (block, coefficients,
        # indices of their reduced monomials).
        self._sums = []
        for poly in polys:
            sums: dict[int, tuple[list[int], list[int]]] = {}
            for m, coeff in poly._terms.items():
                b, i = monomials[m]
                coeffs, index = sums.setdefault(b, ([], []))
                coeffs.append(coeff)
                index.append(i)
            self._sums.append([(b, *pair) for b, pair in sums.items()])

    def evaluate(self, x: int, y: int, z: int) -> tuple[int, ...]:
        """Exact value of each polynomial at an integer point, in input order."""
        dx, dy, dz = self._degrees
        xp, yp, zp = _powers(x, dx), _powers(y, dy), _powers(z, dz)
        get = [xp[ex] * yp[ey] * zp[ez] for ex, ey, ez in self._reduced].__getitem__
        factors = [x**ex * y**ey * z**ez for ex, ey, ez in self._factors]
        return tuple(
            sum(factors[b] * sum(map(mul, coeffs, map(get, index))) for b, coeffs, index in sums)
            for sums in self._sums
        )


def _coerce(value: Union[Polynomial, int]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented  # type: ignore[return-value]


def _powers(base: int, upto: int) -> list[int]:
    vals = [1] * (upto + 1)
    for i in range(1, upto + 1):
        vals[i] = vals[i - 1] * base
    return vals


def _render_monomial(mono: _Exponents) -> str:
    bits = []
    for name, e in zip("xyz", mono):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits)


X = Polynomial._from_canonical({(1, 0, 0): 1})
Y = Polynomial._from_canonical({(0, 1, 0): 1})
Z = Polynomial._from_canonical({(0, 0, 1): 1})
ONE = Polynomial.constant(1)
ZERO = Polynomial.constant(0)
