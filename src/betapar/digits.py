"""Digit strings and alphabets for positional numeration systems.

A digit string is a finite two-sided sequence of integer digits with a
radix-point position.  It is stored most-significant-digit first together
with the exponent of that first digit, so the string ``1,2,2.2`` (digits
1, 2, 2 before the radix point, then a fractional digit 2) has
``digits = (1, 2, 2, 2)`` and ``msd_exponent = 2``.  Every position outside
the stored window is implicitly 0, and the canonical form carries no leading
or trailing zeros; the zero string is the empty tuple.

Serialization uses comma-separated signed decimal digits with an optional
``.`` radix point (``1,2,2.2``, ``-1,0.2``, ``0.0,1``).  Multi-digit
alphabets make unseparated strings ambiguous, hence the commas.

Alphabets are contiguous integer ranges containing 0.

All types here are immutable and hashable; operations return new objects.
"""

from __future__ import annotations


class Immutable:
    """Base of the value types: __init__ sets each slot once through
    object.__setattr__, every later write raises, and a copy, shallow or
    deep, is the value itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Alphabet(Immutable):
    """Contiguous integer digit set {min_digit, ..., max_digit} containing 0."""

    __slots__ = ("min_digit", "max_digit")

    def __init__(self, min_digit, max_digit):
        if not (min_digit <= 0 <= max_digit):
            raise ValueError("alphabet must contain 0: got [%d, %d]" % (min_digit, max_digit))
        object.__setattr__(self, "min_digit", int(min_digit))
        object.__setattr__(self, "max_digit", int(max_digit))

    def __contains__(self, digit):
        return self.min_digit <= digit <= self.max_digit

    def __iter__(self):
        return iter(range(self.min_digit, self.max_digit + 1))

    def __len__(self):
        return self.max_digit - self.min_digit + 1

    @property
    def cardinality(self):
        return len(self)

    def shifted(self, d):
        """Alphabet translated down by d (still must contain 0)."""
        return Alphabet(self.min_digit - d, self.max_digit - d)

    def negated(self):
        return Alphabet(-self.max_digit, -self.min_digit)

    def plus(self, other):
        """Digitwise sumset {x + y : x in self, y in other}."""
        return Alphabet(self.min_digit + other.min_digit, self.max_digit + other.max_digit)

    def __eq__(self, other):
        return (isinstance(other, Alphabet)
                and self.min_digit == other.min_digit
                and self.max_digit == other.max_digit)

    def __hash__(self):
        return hash((self.min_digit, self.max_digit))

    def __repr__(self):
        return "Alphabet(%d, %d)" % (self.min_digit, self.max_digit)

    def __str__(self):
        return "{%d..%d}" % (self.min_digit, self.max_digit)


class DigitString(Immutable):
    """Finite two-sided digit sequence with a radix point.

    ``digits`` is MSD-first; ``digits[i]`` is the coefficient of
    beta**(msd_exponent - i).  Canonical form strips leading and trailing
    zeros; the zero string has ``digits == ()`` and ``msd_exponent == 0``.
    """

    __slots__ = ("digits", "msd_exponent")

    def __init__(self, digits=(), msd_exponent=0):
        digits = tuple(int(d) for d in digits)
        lead = 0
        while lead < len(digits) and digits[lead] == 0:
            lead += 1
        tail = len(digits)
        while tail > lead and digits[tail - 1] == 0:
            tail -= 1
        msd_exponent -= lead
        digits = digits[lead:tail]
        if not digits:
            msd_exponent = 0
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "msd_exponent", msd_exponent)

    @classmethod
    def from_pairs(cls, pairs):
        """Build from (exponent, digit) pairs; repeated exponents add."""
        acc = {}
        for exp, dig in pairs:
            acc[exp] = acc.get(exp, 0) + dig
        if not acc:
            return cls()
        hi = max(acc)
        lo = min(acc)
        return cls(tuple(acc.get(e, 0) for e in range(hi, lo - 1, -1)), hi)

    def is_zero(self):
        return not self.digits

    @property
    def lsd_exponent(self):
        return self.msd_exponent - len(self.digits) + 1

    @property
    def fractional_depth(self):
        """Number of fractional positions, max(0, -lsd_exponent)."""
        if self.is_zero():
            return 0
        return max(0, -self.lsd_exponent)

    def digit_at(self, exponent):
        i = self.msd_exponent - exponent
        if 0 <= i < len(self.digits):
            return self.digits[i]
        return 0

    def support(self):
        """(msd_exponent, lsd_exponent) of the nonzero window; (0, 0) for zero."""
        if self.is_zero():
            return (0, 0)
        return (self.msd_exponent, self.lsd_exponent)

    def iter_pairs(self):
        e = self.msd_exponent
        for d in self.digits:
            yield e, d
            e -= 1

    def alphabet_ok(self, alphabet):
        return all(d in alphabet for d in self.digits)

    def shifted(self, n):
        """Multiply by beta**n: every exponent increases by n."""
        return DigitString(self.digits, self.msd_exponent + n)

    def negated(self):
        return DigitString(tuple(-d for d in self.digits), self.msd_exponent)

    def __add__(self, other):
        """Digitwise (positional) integer sum; no carrying of any kind."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        hi = max(self.msd_exponent, other.msd_exponent)
        lo = min(self.lsd_exponent, other.lsd_exponent)
        out = [0] * (hi - lo + 1)
        a = hi - self.msd_exponent
        out[a:a + len(self.digits)] = self.digits
        b = hi - other.msd_exponent
        n = len(other.digits)
        out[b:b + n] = [s + t for s, t in zip(out[b:b + n], other.digits)]
        return DigitString(out, hi)

    def __sub__(self, other):
        return self + other.negated()

    def __eq__(self, other):
        return (isinstance(other, DigitString)
                and self.digits == other.digits
                and self.msd_exponent == other.msd_exponent)

    def __hash__(self):
        return hash((self.digits, self.msd_exponent))

    def __repr__(self):
        return "DigitString(%r, %d)" % (self.digits, self.msd_exponent)

    def __str__(self):
        return format_digits(self)


def format_digits(s):
    """Serialize to the comma/radix-point format, e.g. ``1,2,2.2``."""
    if s.is_zero():
        return "0"
    int_part = [str(s.digit_at(e)) for e in range(max(s.msd_exponent, 0), -1, -1)]
    frac_part = [str(s.digit_at(e)) for e in range(-1, s.lsd_exponent - 1, -1)]
    out = ",".join(int_part)
    if frac_part:
        out += "." + ",".join(frac_part)
    return out


def parse_digits(text):
    """Parse the comma/radix-point digit-string format."""
    text = text.strip()
    if not text:
        return DigitString()
    if text.count(".") > 1:
        raise ValueError("more than one radix point in %r" % text)
    if "." in text:
        int_text, frac_text = text.split(".")
    else:
        int_text, frac_text = text, ""

    def split(part):
        part = part.strip()
        if not part:
            return []
        return [int(tok) for tok in part.split(",")]

    int_digits = split(int_text)
    frac_digits = split(frac_text)
    digits = int_digits + frac_digits
    if not digits:
        return DigitString()
    msd = len(int_digits) - 1
    return DigitString(tuple(digits), msd)
