import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dual, kernel, lattice_closure
from rlsheaf import fintop, fixtures, rlcore, spectra

A4 = fixtures.rl_a4()
A6 = fixtures.rl_a6()
A8 = fixtures.rl_a8()


def cfg_for(lat, which, flavor):
    fl = rlcore.all_filters(lat)
    return spectra.SpectrumConfig(lat, fl.select(which), flavor)


def test_hull_and_kernel_examples():
    cfg = cfg_for(A4, "spec", "hull")
    assert spectra.hull(cfg, {"a"}) == (frozenset({"a", "1"}),)
    assert set(spectra.hull(cfg, {"1"})) == set(cfg.pi)
    assert kernel(cfg, []) == frozenset(A4.carrier)
    assert kernel(cfg, list(cfg.pi)) == frozenset({"1"})
    assert set(dual(cfg, {"a"})) == set(cfg.pi) - {frozenset({"a", "1"})}


def test_config_rejects_non_prime_members():
    with pytest.raises(ValueError):
        spectra.SpectrumConfig(A4, (frozenset({"1"}),), "hull")
    with pytest.raises(ValueError):
        spectra.SpectrumConfig(A4, (frozenset({"a", "1"}),), "nope")


def test_spec_h_a4_matches_table6_row1():
    sp = fixtures.spectrum_space("A4", "spec", "hull")
    assert sp.points == {"F2", "F3"}
    assert sp.opens == frozenset(
        {frozenset(), frozenset({"F2"}), frozenset({"F3"}), frozenset({"F2", "F3"})}
    )


def test_max_d_a6_matches_table6_row2():
    sp = fixtures.spectrum_space("A6", "max", "dual")
    assert sp.points == {"F2", "F3"}
    assert len(sp.opens) == 4


def test_min_p_a8_computed_from_first_principles_with_documented_deviation():
    sp = fixtures.spectrum_space("A8", "min", "patch")
    assert sp.points == {"F3", "F4"}
    assert fintop.verify_topology(sp.points, sp.opens).ok
    assert sp.opens == frozenset(
        {frozenset(), frozenset({"F3"}), frozenset({"F4"}), frozenset({"F3", "F4"})}
    )
    # the historical expectation kept in the corpus deviations block is not
    # even a family of subsets of the minimal spectrum
    listed = [set(), {"F3"}, {"F4"}, {"F3", "F4"}, {"F2", "F3", "F4"}]
    assert not all(set(o) <= sp.points for o in listed)
    min_filters = {frozenset({"c", "e", "1"}), frozenset({"f", "1"})}
    assert set(cfg_for(A8, "min", "patch").pi) == min_filters


@given(st.sets(st.sampled_from(sorted(A6.carrier)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_hull_sees_only_the_generated_filter(xs):
    cfg = cfg_for(A6, "spec", "hull")
    assert spectra.hull(cfg, xs) == spectra.hull(cfg, rlcore.generated_filter(A6, xs))


@pytest.mark.parametrize("lat,name", [(A4, "A4"), (A6, "A6"), (A8, "A8")])
@pytest.mark.parametrize("which", ["spec", "max", "min"])
def test_patch_refines_hull_and_dual(lat, name, which):
    names = fixtures.filter_names(name, lat)
    hull_sp = spectra.spectral_space(cfg_for(lat, which, "hull"), names)
    dual_sp = spectra.spectral_space(cfg_for(lat, which, "dual"), names)
    patch_sp = spectra.spectral_space(cfg_for(lat, which, "patch"), names)
    assert hull_sp.opens <= patch_sp.opens
    assert dual_sp.opens <= patch_sp.opens


@pytest.mark.parametrize("lat,name", [(A4, "A4"), (A6, "A6"), (A8, "A8")])
def test_hull_kernel_topology_on_max_is_t1(lat, name):
    names = fixtures.filter_names(name, lat)
    sp = spectra.spectral_space(cfg_for(lat, "max", "hull"), names)
    for p in sp.points:
        assert (sp.points - {p}) in sp.opens


def test_spectral_space_passes_verify_topology():
    for name, lat in [("A4", A4), ("A6", A6), ("A8", A8)]:
        for which in ["spec", "max", "min"]:
            for flavor in ["hull", "dual", "patch"]:
                sp = fixtures.spectrum_space(name, which, flavor)
                assert fintop.verify_topology(sp.points, sp.opens).ok


@pytest.mark.parametrize("lat", [A4, A6, A8], ids=["A4", "A6", "A8"])
def test_every_flavour_matches_the_literal_closure_of_the_hulls(lat):
    primes = rlcore.all_filters(lat).select("spec")
    for r in range(len(primes) + 1):
        for pi in itertools.combinations(primes, r):
            names = spectra.default_names(pi)
            points = frozenset(names.values())
            hulls = [frozenset(names[p] for p in pi if x in p) for x in lat.carrier]
            closed = lattice_closure(points, hulls)
            expected = {
                "hull": frozenset(points - c for c in closed),
                "dual": closed,
                "patch": lattice_closure(points, hulls + [points - h for h in hulls]),
            }
            for flavor, opens in expected.items():
                sp = spectra.spectral_space(spectra.SpectrumConfig(lat, pi, flavor))
                assert sp.points == points
                assert sp.opens == opens, (pi, flavor)
