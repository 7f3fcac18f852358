"""Hull-kernel, dual hull-kernel, and patch topologies on families of prime filters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import fintop, rlcore
from .report import fmt_set, set_key

Subset = frozenset[str]

FLAVORS = ("hull", "dual", "patch")


@dataclass
class SpectrumConfig:
    """A family `pi` of prime filters of `parent`, kept sorted by `set_key`, and the topology to put on it."""

    parent: rlcore.ResiduatedLattice
    pi: tuple[Subset, ...]
    flavor: str

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        for p in self.pi:
            if not (rlcore.is_filter(self.parent, p) and rlcore.is_prime_filter(self.parent, p)):
                raise ValueError(f"{fmt_set(p)} is not a prime filter")
        self.pi = tuple(sorted(set(self.pi), key=set_key))


def hull(cfg: SpectrumConfig, xs: Iterable[str]) -> tuple[Subset, ...]:
    """h(X) = members of pi containing X."""
    x = frozenset(xs)
    return tuple(p for p in cfg.pi if x <= p)


def default_names(pi: Iterable[Subset]) -> dict[Subset, str]:
    ordered = sorted(set(pi), key=set_key)
    return {f: fmt_set(f) for f in ordered}


def spectral_space(cfg: SpectrumConfig, names: Mapping[Subset, str] | None = None) -> fintop.FiniteSpace:
    """The chosen topology on pi, with filters rendered through `names`.

    The hulls h(x) generate the closed sets of `hull` and the opens of
    `dual`; `patch` is generated by both families.
    """
    nm = dict(names) if names else default_names(cfg.pi)
    points = [nm[p] for p in cfg.pi]

    def named(fam: Iterable[tuple[Subset, ...]]) -> list[frozenset[str]]:
        return [frozenset(nm[p] for p in f) for f in fam]

    hulls = named(hull(cfg, [x]) for x in cfg.parent.carrier)
    complements = [frozenset(points) - h for h in hulls]
    if cfg.flavor == "hull":
        return fintop.topology_from_subbasis(points, complements)
    if cfg.flavor == "dual":
        return fintop.topology_from_subbasis(points, hulls)
    return fintop.topology_from_subbasis(points, hulls + complements)
