"""The bases laid on their hubs, and gn's swapped rail edges, are by name
the graphs that hub surgery made: the same vertices, edges and edge labels on
every default-grid point of fb, tfb, df, np3o3 and gn, and on a fixed stride
of the families merged from tfb, df and gn (see hub_reference for the
surgery)."""

import pytest

from antimagic.families import _fan_cells, build_family, family_grid, valid_gn_index_lists
from antimagic.graph import V
from hub_reference import REFERENCES, surgery_cells, use_references

MERGED_STRIDE = 5


def _points(family, **bounds):
    return [params for params, excluded in family_grid(family, **bounds) if excluded is None]


# gb over gn at n <= 60: each gb grid point with each of its first three index lists
GB_OVER_GN = [
    {**params, "indices": indices}
    for params in _points("gb", max_n=60) for indices in valid_gn_index_lists(params["n"])[:3]
]


@pytest.mark.parametrize("k", range(1, 10))
def test_fan_cells_on_private_hubs_are_the_surgery_cells(k):
    n = 2 * k + 1
    d = _fan_cells(k, [V("x", i) for i in range(1, n + 1)], range(n), range(n))
    ref = surgery_cells(k)
    assert (d.names, d.a, d.b, d.labels) == (ref.names, ref.a, ref.b, ref.labels)


@pytest.mark.parametrize("family", sorted(REFERENCES))
def test_a_base_laid_on_its_hubs_is_the_base_made_by_surgery(family):
    for params in _points(family):
        g, f, _ = build_family(family, **params)
        ref_g, ref_f = REFERENCES[family](**params)[0].finish()
        assert g == ref_g and f == ref_f, params


@pytest.mark.parametrize("family", ["fb1", "fb2", "df1", "df2", "df3", "gb"])
def test_a_family_merged_from_a_laid_base_is_the_one_merged_from_surgery(family, monkeypatch):
    points = GB_OVER_GN if family == "gb" else _points(family)
    for params in points[::MERGED_STRIDE]:
        built = build_family(family, **params)
        with monkeypatch.context() as patched:
            use_references(patched)
            assert build_family(family, **params) == built, params
