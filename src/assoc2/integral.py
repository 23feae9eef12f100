"""Integer twins: integral structures are evaluated over ℤ.

Every structure the workbench builds from integer data (the fixtures,
direct sums, unimodular changes of basis, adjoint representations, the
totals of extensions by integral cocycles) has only ``Fraction`` constants
of denominator 1.  Its *integer twin* is the same structure with each of
those constants replaced by its ``int`` value: the same dataclass, built by
its own constructor, with ``int`` tensors and ``int`` matrices (kept by
``Matrix.as_given``).  The ring-generic evaluators (``tensorops``,
``Matrix @ vector``) then run the unchanged residual generators on it over
``int``, which gives the same values as over ``Fraction`` at a fraction of
the cost.

The choice is made once per structure, never per call: ``twin`` returns
the twin, or ``None`` when some constant is not an integer (or not a
rational number at all, such as a polynomial), and a structure with a
``twin_field`` keeps that answer.  ``on_integers`` is what the cochain
complexes evaluate on: the twin when there is one, the structure itself
otherwise; ``integral_report`` is the same choice for a checker.

Values computed on a twin are ``int``; they are turned back into
``Fraction`` where they leave the library (violations here; the assembled
matrices keep their ``int`` rows for elimination and build a ``Fraction``
view on first read, see ``cochain.assemble``), so no caller sees which
path ran.
"""

from __future__ import annotations

from dataclasses import field, fields, is_dataclass
from fractions import Fraction

from .exactlin import Matrix
from .report import CheckReport, Violation, report_from

_UNKNOWN = object()


class _NotIntegral(Exception):
    pass


def twin_field():
    """The field a structure keeps its twin (or ``False``: none) in."""
    return field(default=_UNKNOWN, init=False, repr=False, compare=False)


def twin(x):
    """The integer twin of ``x`` (a structure dataclass, a ``Matrix``, a
    tensor or a tuple of them), or ``None`` when some scalar of ``x`` is not
    an integer.  ``int`` fields (dimensions, index sets) are kept."""
    try:
        return _convert(x, {})
    except _NotIntegral:
        return None


def on_integers(x):
    """The integer twin of ``x`` when it has one, else ``x`` itself."""
    t = twin(x)
    return x if t is None else t


def integral_report(residuals, *args) -> CheckReport:
    """The report of the residual generator ``residuals(*args)``, evaluated
    on the integer twins of ``args`` when they all have one; both sides of
    every violation are ``Fraction`` on either path (an ``int`` that an
    identity block or a zero block puts there is converted too)."""
    t = twin(args)
    violations = report_from(residuals(*(args if t is None else t))).violations
    return CheckReport([Violation(v.condition, v.where, rational(v.lhs), rational(v.rhs)) for v in violations])


def rational(v) -> tuple:
    """The vector ``v`` with its ``int`` entries made ``Fraction``."""
    return tuple(Fraction(x) if type(x) is int else x for x in v)


def _convert(x, memo: dict):
    kind = type(x)
    if kind is int:
        return x
    if kind is Fraction:
        if x.denominator != 1:
            raise _NotIntegral
        return x.numerator
    key = id(x)
    if key not in memo:
        if kind is tuple:
            memo[key] = tuple(_convert(y, memo) for y in x)
        elif kind is Matrix:
            memo[key] = Matrix.as_given(tuple(tuple(_convert(y, memo) for y in row) for row in x.entries), x.cols)
        elif is_dataclass(x) and not isinstance(x, type):
            memo[key] = _structure(x, memo)
        else:
            raise _NotIntegral
    return memo[key]


def _structure(x, memo: dict):
    """The twin of a structure dataclass, built by its own constructor from
    its converted fields; kept in ``x._twin`` when the class has that field.
    A kept twin also lends its fields to the memo, so that a structure built
    on x's own tensors (the adjoint representation on g's) takes their
    twins from x's instead of converting them again."""
    cached = getattr(x, "_twin", None)
    if cached is False:
        raise _NotIntegral
    if cached is not None and cached is not _UNKNOWN:
        for f in fields(x):
            if f.init:
                memo.setdefault(id(getattr(x, f.name)), getattr(cached, f.name))
        return cached
    try:
        t = type(x)(**{f.name: _convert(getattr(x, f.name), memo) for f in fields(x) if f.init})
    except _NotIntegral:
        if cached is _UNKNOWN:
            x._twin = False
        raise
    if cached is _UNKNOWN:
        x._twin = t
        t._twin = t
    return t
