"""Predicates the benchmark generates, and the numpy oracle that answers them.

A predicate is kept as plain data (a CNF: a tuple of clauses, each a
tuple of literals) so the same object renders to the SQL text the
program receives, to a ``repro.core`` predicate for the engine API, and
to a numpy mask the oracle evaluates.  The oracle never calls into
``repro``: every expected answer comes from the generated arrays alone.
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    "<": operator.lt,
    ">": operator.gt,
}


@dataclasses.dataclass(frozen=True)
class Cmp:
    """``column op value``; ``value`` is an int or another column name
    (attribute-vs-attribute, which SQL lowers to a semi-linear query)."""

    column: str
    op: str
    value: int | str

    def sql(self) -> str:
        return f"{self.column} {self.op} {self.value}"

    def mask(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        right = (
            arrays[self.value] if isinstance(self.value, str) else self.value
        )
        return _OPS[self.op](arrays[self.column], right)


@dataclasses.dataclass(frozen=True)
class Range:
    """``column BETWEEN lo AND hi`` (inclusive)."""

    column: str
    lo: int
    hi: int

    def sql(self) -> str:
        return f"{self.column} BETWEEN {self.lo} AND {self.hi}"

    def mask(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        values = arrays[self.column]
        return (values >= self.lo) & (values <= self.hi)


Literal = Cmp | Range
#: Conjunction of disjunctive clauses.
CNF = tuple[tuple[Literal, ...], ...]


def where_sql(cnf: CNF) -> str:
    parts = []
    for clause in cnf:
        text = " OR ".join(literal.sql() for literal in clause)
        parts.append(f"({text})" if len(clause) > 1 else text)
    return " AND ".join(parts)


def mask(cnf: CNF, arrays: dict[str, np.ndarray]) -> np.ndarray:
    size = len(next(iter(arrays.values())))
    result = np.ones(size, dtype=bool)
    for clause in cnf:
        any_true = np.zeros(size, dtype=bool)
        for literal in clause:
            any_true |= literal.mask(arrays)
        result &= any_true
    return result


def to_repro(cnf: CNF):
    """The same predicate built with the public ``repro.core.col`` API."""
    from repro.core import col

    def literal(item: Literal):
        if isinstance(item, Range):
            return col(item.column).between(item.lo, item.hi)
        right = col(item.value) if isinstance(item.value, str) else item.value
        return _OPS[item.op](col(item.column), right)

    predicate = None
    for clause in cnf:
        term = None
        for item in clause:
            term = literal(item) if term is None else term | literal(item)
        predicate = term if predicate is None else predicate & term
    return predicate


def kth_largest(values: np.ndarray, k: int) -> int:
    """The paper's k-th largest (1-based, duplicates counted)."""
    index = values.size - k
    return int(np.partition(values, index)[index])


def aggregate(func: str, values: np.ndarray, k: int | None = None):
    """Expected value of one aggregate over already-masked values.

    MEDIAN follows the paper's convention: the ceil(n/2)-th largest.
    Aggregates other than COUNT over an empty selection are SQL NULL.
    """
    if func == "COUNT":
        return int(values.size)
    if values.size == 0:
        return None
    if func == "SUM":
        return int(values.sum(dtype=np.int64))
    if func == "AVG":
        return int(values.sum(dtype=np.int64)) / values.size
    if func == "MAX":
        return int(values.max())
    if func == "MIN":
        return int(values.min())
    if func == "MEDIAN":
        return kth_largest(values, (values.size + 1) // 2)
    if func == "KTH":
        return kth_largest(values, k)
    raise ValueError(f"no oracle for aggregate {func!r}")


def same(expected, actual) -> bool:
    """Exact agreement, except that averages compare to 1e-12 relative."""
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            return expected is actual
        return math.isclose(expected, actual, rel_tol=1e-12, abs_tol=0.0)
    return expected == actual
