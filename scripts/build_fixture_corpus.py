"""Regenerate src/rlsheaf/data/paper_fixtures.json from the programmatic fixtures.

Run from the repository root:  python3 scripts/build_fixture_corpus.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rlsheaf import basechange, bundle, fintop, fixtures, workspace


def corpus_text() -> str:
    """The corpus document, exactly as the bundled file holds it."""
    spec_h_a4 = fixtures.spectrum_space("A4", "spec", "hull")
    pt_f2 = fintop.subspace(spec_h_a4, ["F2"])
    spaces = {
        "point": fixtures.space_point(),
        "sierpinski": fixtures.space_sierpinski(),
        "disc2": fintop.discrete(["m", "n"]),
        "spec_h_a4": spec_h_a4,
        "max_d_a6": fixtures.spectrum_space("A6", "max", "dual"),
        "min_p_a8": fixtures.spectrum_space("A8", "min", "patch"),
        "pt_f2": pt_f2,
    }

    incl = fintop.space_map(pt_f2, spec_h_a4, {"F2": "F2"})
    stalk_f2, _ = basechange.pullback_rl_etale(incl, fixtures.et_spec_h_a4())
    rl_bundles = {
        "etspecha4": (fixtures.et_spec_h_a4(), "spec_h_a4"),
        "etmaxda6": (fixtures.et_max_d_a6(), "max_d_a6"),
        "etminpa8": (fixtures.et_min_p_a8(), "min_p_a8"),
        "a2_over_point": (fixtures.a2_over_point(), "point"),
        "indiscrete_a2_over_point": (fixtures.indiscrete_a2_over_point(), "point"),
        "trivial_a2_over_spec_h_a4": (fixtures.trivial_a2_over_spec_h_a4(), "spec_h_a4"),
        "stalk_f2": (stalk_f2, "pt_f2"),
    }
    ws = workspace.Workspace(lattices={name: fn() for name, fn in fixtures.LATTICES.items()}, spaces=spaces)
    for name, (rb, base_name) in rl_bundles.items():
        # the serializer names a bundle's spaces by identity, so each bundle is put over the registered ones
        ws.spaces[f"total_{name}"] = rb.total
        ws.rl_bundles[name] = bundle.RLBundle(bundle.Bundle(rb.total, ws.spaces[base_name], rb.proj), rb.ops)

    doc = workspace.serialize_workspace(ws)
    for lat in doc["lattices"].values():
        del lat["imp"]  # derived on loading, so the corpus leaves it out
    doc["bundles"] = {}  # the corpus keeps the section, empty

    doc["maps"] = {
        "id_spec_h_a4": {"dom": "spec_h_a4", "cod": "spec_h_a4", "table": {"F2": "F2", "F3": "F3"}},
        "swap_spec_h_a4": {"dom": "spec_h_a4", "cod": "spec_h_a4", "table": {"F2": "F3", "F3": "F2"}},
        "incl_f2": {"dom": "pt_f2", "cod": "spec_h_a4", "table": {"F2": "F2"}},
        "fold_spec_h_a4": {"dom": "spec_h_a4", "cod": "point", "table": {"F2": "pt", "F3": "pt"}},
        "fold_disc2": {"dom": "disc2", "cod": "point", "table": {"m": "pt", "n": "pt"}},
        "pick_f2": {"dom": "point", "cod": "spec_h_a4", "table": {"pt": "F2"}},
        "fold_min_p_a8": {"dom": "min_p_a8", "cod": "point", "table": {"F3": "pt", "F4": "pt"}},
        "fold_max_d_a6": {"dom": "max_d_a6", "cod": "point", "table": {"F2": "pt", "F3": "pt"}},
    }

    doc["rle_spaces"] = {
        "R_speca4": {"base": "spec_h_a4", "etale": "etspecha4"},
        "R_point_a2": {"base": "point", "etale": "a2_over_point"},
        "R_trivial": {"base": "spec_h_a4", "etale": "trivial_a2_over_spec_h_a4"},
        "R_stalk_f2": {"base": "pt_f2", "etale": "stalk_f2"},
    }

    et4 = fixtures.et_spec_h_a4()
    trivial = fixtures.trivial_a2_over_spec_h_a4()
    collapse_table = {}
    for t in sorted(et4.total.points):
        b = et4.proj(t)
        val = "0" if t.startswith("0") else "1"
        collapse_table[t] = fintop.pair_id(b, val)

    doc["morphisms"] = {
        "f_a6_a4": {
            "kind": "rl", "dom": "A6", "cod": "A4",
            "table": {"0": "0", "a": "a", "b": "a", "c": "b", "d": "1", "1": "1"},
        },
        "id_etspecha4": {
            "kind": "bundle", "src": "etspecha4", "dst": "etspecha4",
            "table": {t: t for t in sorted(et4.total.points)},
        },
        "collapse_etspecha4": {
            "kind": "bundle", "src": "etspecha4", "dst": "trivial_a2_over_spec_h_a4",
            "table": collapse_table,
        },
        # a 3-chain of RLE_inv morphisms for the category-law suite
        "rle_m1": {
            "kind": "rle_inv", "src": "R_speca4", "dst": "R_point_a2",
            "base_map": {"F2": "pt", "F3": "pt"},
            "alpha": {
                fintop.pair_id(b, fintop.pair_id("pt", x)): f"{x}_{sfx}"
                for b, sfx in [("F2", "1"), ("F3", "2")]
                for x in ["0", "1"]
            },
        },
        "rle_m2": {
            "kind": "rle_inv", "src": "R_point_a2", "dst": "R_trivial",
            "base_map": {"pt": "F2"},
            "alpha": {
                fintop.pair_id("pt", fintop.pair_id("F2", x)): fintop.pair_id("pt", x)
                for x in ["0", "1"]
            },
        },
        "rle_m3": {
            "kind": "rle_inv", "src": "R_trivial", "dst": "R_point_a2",
            "base_map": {"F2": "pt", "F3": "pt"},
            "alpha": {
                fintop.pair_id(b, fintop.pair_id("pt", x)): fintop.pair_id(b, x)
                for b in ["F2", "F3"]
                for x in ["0", "1"]
            },
        },
        "rle_incl_f2": {
            "kind": "rle_inv", "src": "R_stalk_f2", "dst": "R_speca4",
            "base_map": {"F2": "F2"},
            "alpha": {
                fintop.pair_id("F2", t): fintop.pair_id("F2", t)
                for t in ["0_1", "1_1"]
            },
        },
    }

    doc["expectations"] = {
        "filters": {
            name: {fname: sorted(els) for fname, els in fixtures.FILTER_NAMES[name]}
            for name in ["A4", "A6", "A8"]
        },
        "classification": {
            "A4": {"max": ["F2", "F3"], "min": ["F2", "F3"], "spec": ["F2", "F3"]},
            "A6": {"max": ["F2", "F3"], "min": ["F1"], "spec": ["F1", "F2", "F3"]},
            "A8": {"max": ["F2"], "min": ["F3", "F4"], "spec": ["F2", "F3", "F4"]},
        },
        "spectra": {
            "A4:spec:hull": [[], ["F2"], ["F3"], ["F2", "F3"]],
            "A6:max:dual": [[], ["F2"], ["F3"], ["F2", "F3"]],
        },
        "deviations": {
            "A8:min:patch": {
                "computed": [[], ["F3"], ["F4"], ["F3", "F4"]],
                "listed": [[], ["F3"], ["F4"], ["F3", "F4"], ["F2", "F3", "F4"]],
                "note": "the listed family mentions F2, which is not a minimal prime filter; it is not a topology on the minimal spectrum, so the engine computes the patch topology from first principles",
            }
        },
    }

    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main() -> None:
    text = corpus_text()
    ws = workspace.parse_workspace(text)
    assert not ws.diagnostics
    again = json.dumps(workspace.serialize_workspace(ws), sort_keys=True)
    ws2 = workspace.parse_workspace(again)
    assert workspace.serialize_workspace(ws2) == workspace.serialize_workspace(ws)

    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "rlsheaf" / "data" / "paper_fixtures.json"
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(text) - 1} bytes); round-trip OK")


if __name__ == "__main__":
    main()
