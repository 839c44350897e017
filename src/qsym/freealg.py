"""Noncommutative polynomials over the generators u[i,j], exact rationals.

Words are tuples of generator labels (i, j); a polynomial maps words to
nonzero Fractions.  The monomial order is degree-lexicographic: compare
total degree first, then the label sequence left to right with (i, j)
ordered naturally.  Deglex is multiplicative and well-founded per degree,
which is what keeps degree-bounded Groebner truncation meaningful.

Each polynomial also has an integer form, computed on first use and
cached: ``(den, {word: int})``, where ``den`` is the lcm of the coefficient
denominators and every coefficient is multiplied by it.  ``normal_form``
reads its reducers from that form, so it runs in integer arithmetic and
converts back to Fractions only in its result.  The Groebner completion
reads each generator's form once and then keeps its own integer rows, on
string words, until it returns the basis.

No floating point enters this module: a float coefficient is a TypeError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Word = tuple  # tuple of (i, j) generator labels; () is the unit


def deglex_key(word: Word):
    return (len(word), word)


def _exact(coeff) -> Fraction:
    if isinstance(coeff, float):
        raise TypeError(f"float coefficient {coeff!r}: coefficients must be "
                        "exact")
    return Fraction(coeff)


class NcPoly:
    """Immutable sparse noncommutative polynomial.

    The leading monomial and the integer form are computed on first use and
    cached; nothing may mutate ``terms`` after construction.
    """

    __slots__ = ("terms", "_lm", "_int")

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if type(coeff) is not Fraction:
                coeff = _exact(coeff)
            if coeff:
                clean[tuple(word)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lm", None)
        object.__setattr__(self, "_int", None)

    # constructors
    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    @staticmethod
    def one() -> "NcPoly":
        return NcPoly({(): 1})

    @staticmethod
    def constant(c) -> "NcPoly":
        return NcPoly({(): c})

    @staticmethod
    def generator(i: int, j: int) -> "NcPoly":
        return NcPoly({((i, j),): 1})

    @staticmethod
    def monomial(word: Word, coeff=1) -> "NcPoly":
        return NcPoly({tuple(word): coeff})

    # structure
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def lm(self) -> Word:
        """Leading monomial under deglex (undefined for the zero polynomial)."""
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            object.__setattr__(self, "_lm", max(self.terms, key=deglex_key))
        return self._lm

    def int_form(self) -> tuple:
        """(den, {word: int}): every coefficient times den, the lcm of the
        coefficient denominators (1 for the zero polynomial)."""
        if self._int is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            object.__setattr__(self, "_int", (den, {
                w: c.numerator * (den // c.denominator)
                for w, c in self.terms.items()}))
        return self._int

    def lc(self) -> Fraction:
        return self.terms[self.lm()]

    def monic(self) -> "NcPoly":
        if not self.terms:
            return self
        c = self.lc()
        return NcPoly({w: v / c for w, v in self.terms.items()})

    # arithmetic
    def __add__(self, other: "NcPoly") -> "NcPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(out)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return NcPoly(out)

    def __neg__(self) -> "NcPoly":
        return NcPoly({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NcPoly":
        c = _exact(c)
        return NcPoly({w: v * c for w, v in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NcPoly(out)

    def conjugate_by_words(self, left: Word, right: Word) -> "NcPoly":
        """left * self * right for plain words, without building monomials."""
        return NcPoly({tuple(left) + w + tuple(right): c
                       for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # display
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=deglex_key, reverse=True):
            coeff = self.terms[word]
            body = "*".join(f"u[{i},{j}]" for i, j in word)
            if not word:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, text))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        return f"NcPoly({self})"


_TERM_SPLIT = re.compile(r"(?=[+-])")
_GEN = re.compile(r"^u\[\s*(\d+)\s*,\s*(\d+)\s*\]$")
_COEFF = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_poly(text: str) -> NcPoly:
    """Parse the linear text grammar, e.g. ``3/2*u[1,2]*u[3,4] - u[2,2] + 1``."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial text")
    total = NcPoly.zero()
    for chunk in _TERM_SPLIT.split(stripped):
        if not chunk:
            continue
        sign = 1
        body = chunk
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        word = []
        for factor in body.split("*"):
            m = _GEN.match(factor)
            if m:
                word.append((int(m.group(1)), int(m.group(2))))
            elif _COEFF.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r} "
                                     f"in {text!r}") from None
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        total = total + NcPoly.monomial(tuple(word), coeff)
    return total
