"""DOT emission for Hasse diagrams, spaces, and bundles. Presentation only."""

from __future__ import annotations

from . import bundle, fintop, rlcore


def _quote(s: str) -> str:
    """A DOT quoted string naming `s`: a backslash is doubled before each quote is escaped, so no name can
    end its string early and no two names share one."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_dot(name: str, lat: rlcore.ResiduatedLattice) -> str:
    covers = []
    for x in lat.carrier:
        for y in lat.carrier:
            if x != y and lat.le(x, y):
                if not any(z != x and z != y and lat.le(x, z) and lat.le(z, y) for z in lat.carrier):
                    covers.append((x, y))
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=circle];"]
    for x in lat.carrier:
        lines.append(f"  {_quote(x)};")
    for x, y in sorted(covers):
        lines.append(f"  {_quote(x)} -> {_quote(y)};")
    lines.append("}")
    return "\n".join(lines)


def space_dot(name: str, sp: fintop.FiniteSpace) -> str:
    """Specialization order: an edge p -> q when p lies in every open around q."""
    mins = sp.min_nbhd_map
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    for p in sp.sorted_points:
        lines.append(f"  {_quote(p)};")
    for q in sp.sorted_points:
        for p in sorted(mins[q]):
            if p != q:
                lines.append(f"  {_quote(p)} -> {_quote(q)};")
    lines.append("}")
    return "\n".join(lines)


def bundle_dot(name: str, b: bundle.Bundle) -> str:
    lines = [f"digraph {_quote(name)} {{", "  rankdir=TB;"]
    for t in sorted(b.total.points):
        lines.append(f"  {_quote('t:' + t)} [shape=circle];")
    for p in sorted(b.base.points):
        lines.append(f"  {_quote('b:' + p)} [shape=box];")
    for t in sorted(b.total.points):
        lines.append(f"  {_quote('t:' + t)} -> {_quote('b:' + b.proj(t))};")
    lines.append("}")
    return "\n".join(lines)
