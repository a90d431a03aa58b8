"""The bases laid on their hubs, gn's swapped rail edges and the families
laid on their merged vertices are by name the graphs that hub surgery and the
merge kernel made: the same vertices, edges and edge labels on every
default-grid point of fb, tfb, df, np3o3, tb and gn, and on a fixed stride of
the twelve other merged families and of gb over gn (see hub_reference for
the surgery)."""

import pytest

from antimagic.families import _fan_cells, build_family, family_grid, valid_gn_index_lists
from antimagic.graph import V
from hub_reference import REFERENCES, finish, surgery_cells, use_references

# every point of the twelve takes about 7 s both ways, every 2nd about 3 s
MERGED_STRIDE = 2


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
    lists = _fan_cells(k, [V("x", i) for i in range(1, n + 1)], range(n), range(n))
    ref = surgery_cells(k)
    assert lists == (ref.names, ref.a, ref.b, ref.labels)


@pytest.mark.parametrize("family", sorted(REFERENCES))
def test_a_base_laid_on_its_hubs_is_the_base_made_by_surgery(family):
    for params in _points(family):
        g, f, _ = build_family(family, **params)
        ref_g, ref_f = finish(REFERENCES[family](**params)[0])
        assert g == ref_g and f == ref_f, params


MERGED = ["fb1", "fb2", "df1", "df2", "df3", "pt1", "pt2", "pt3", "tb1", "tb2", "tb3", "gb"]


@pytest.mark.parametrize(
    "family, over_gn", [*((f, False) for f in MERGED), ("gb", True)], ids=[*MERGED, "gb-over-gn"]
)
def test_a_family_merged_from_a_laid_base_is_the_one_merged_from_surgery(
    family, over_gn, monkeypatch
):
    points = GB_OVER_GN if over_gn else _points(family)
    for params in points[::MERGED_STRIDE]:
        built = build_family(family, **params)
        with monkeypatch.context() as patched:
            use_references(patched)
            assert build_family(family, **params) == built, params
