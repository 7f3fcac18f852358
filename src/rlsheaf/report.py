"""Witness-carrying validation reports shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One violated rule, with a witness that names where it fails."""

    rule: str
    witness: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    """The violations a checker found on its subject, in the order found; `ok` when there are none."""

    subject: str
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def fmt_set(xs) -> str:
    """Canonical `{a,b,c}` rendering with lexicographic element order."""
    return "{" + ",".join(sorted(xs)) + "}"


def set_key(xs) -> tuple:
    """The one order on sets of names: by size, then by sorted elements."""
    t = sorted(xs)
    return (len(t), t)
