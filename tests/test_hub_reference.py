"""The bases laid on their hubs, gn's swapped rail edges and the families
laid on their merged vertices are by name the graphs that hub surgery and the
merge kernel made: the same vertices, edges and edge labels on every
default-grid point of fb, tfb, df, np3o3, tb, gn and the twelve other merged
families, and of gb over gn (see hub_reference for the surgery).  The laid
side of a default-grid point is the grid pass's digest; only a mismatch
builds it again, to compare the two by name.  Each test builds each
distinct base of its surgery side once."""

import pytest

from antimagic.families import _join_cells, build_family, family_grid, valid_gn_index_lists
from antimagic.graph import V, _code, _draft
from antimagic.tables import table_m1, table_m3
from grid_pass import digest, grid_pass
from hub_reference import REFERENCES, named, np3o3_cells, surgery_cells, use_references

# gb over gn at n <= 60, off the default grid: each gb grid point with each
# of its first three index lists
GB_OVER_GN = [
    {**params, "indices": indices}
    for params, _ in family_grid("gb", 60)
    for indices in valid_gn_index_lists(params["n"])[:3]
]


@pytest.mark.parametrize("k", range(1, 10))
def test_join_cells_on_private_hubs_are_the_surgery_cells(k):
    n = 2 * k + 1
    hubs = [_code("x", i) for i in range(1, n + 1)]
    names, *ends = _join_cells(table_m1(k), hubs, [(range(n), range(n))])
    ref = surgery_cells(k)
    assert (named(names), *ends) == (ref.names, ref.a, ref.b, ref.labels)


@pytest.mark.parametrize("k", range(1, 8))
def test_three_joins_on_private_hubs_are_the_np3o3_surgery_cells(k):
    # the reference lays each hub edge the other way round, so the two are
    # compared finished: the same graph and the same label on each edge
    n = 2 * k + 1
    hubs = [V("x", i, a) for a in (1, 2, 3) for i in range(1, n + 1)]
    joins = [(range(j * n, (j + 1) * n),) * 2 for j in range(3)]
    names, *ends = _join_cells(table_m3(k), hubs, joins)
    g, f = _draft(named(names), *ends)
    ref_g, ref_f = np3o3_cells(k).finish()
    assert g == ref_g and f == ref_f


def surgery_side(monkeypatch, kept, family, params):
    """The build of ``family`` at ``params`` by surgery, its bases kept in ``kept``."""
    with monkeypatch.context() as patched:
        use_references(patched, kept)
        return build_family(family, **params)


@pytest.mark.parametrize("family", sorted(REFERENCES))
def test_a_base_laid_on_its_hubs_is_the_base_made_by_surgery(family, monkeypatch):
    kept = {}
    for point in grid_pass().points[family]:
        ref_g, ref_f, _ = surgery_side(monkeypatch, kept, family, point.params)
        if digest(ref_g, ref_f) != point.digest:
            g, f, _ = build_family(family, **point.params)
            assert g == ref_g and f == ref_f, point.params


MERGED = ["fb1", "fb2", "df1", "df2", "df3", "pt1", "pt2", "pt3", "tb1", "tb2", "tb3", "gb"]


@pytest.mark.parametrize(
    "family, over_gn", [*((f, False) for f in MERGED), ("gb", True)], ids=[*MERGED, "gb-over-gn"]
)
def test_a_family_merged_from_a_laid_base_is_the_one_merged_from_surgery(
    family, over_gn, monkeypatch
):
    laid = (
        # gb over gn is off the default grid, so its laid side is built here
        [(p, (digest(*b[:2]), b[2])) for p in GB_OVER_GN for b in [build_family(family, **p)]]
        if over_gn else [(p.params, (p.digest, p.instance)) for p in grid_pass().points[family]]
    )
    kept = {}
    for params, laid_side in laid:
        ref_g, ref_f, ref_inst = surgery_side(monkeypatch, kept, family, params)
        if (digest(ref_g, ref_f), ref_inst) != laid_side:
            assert build_family(family, **params) == (ref_g, ref_f, ref_inst), params
