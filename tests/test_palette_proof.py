"""The three closed-form colors of every family are distinct for every valid
parameter, so no palette needs a runtime collision check.

Every family but ``fb`` and ``np3o3`` colors its classes a(10k+6), b(9k+6)
and c(21k+12), each base color scaled by the blocks merged into one vertex:

* ``fb``: 9k+6 < 10k+6 < (7k+4)(6k+3), and ``np3o3``: 25k+15 < 50k+27 <
  (2k+1)(39k+21), for every k >= 1.
* The peanut scales, with k = n/2 >= 1 and a block size s: ``pt`` (1, 1, 1)
  and ``tb``, ``gn`` (2, 1, 1) order 9k+6 < 10k+6 or 20k+12 < 21k+12;
  ``pt1`` (1, s, 1) and ``tb1`` (2, s, 1) have s(9k+6) >= 27k+18 > 21k+12 as
  s >= 3; ``pt2`` (1, 1, s) and ``tb2`` (2, 1, s) have s(21k+12) above both;
  ``pt3`` (s, 1, 1) is 20k+12 in between at s = 2 and >= 30k+18 above at
  s >= 3; ``tb3`` and ``gb`` (2s, 1, 1) have 2s(10k+6) >= 60k+36 on top.
* The fan scales, with 2k+1 = ts for t components of s blades, t and s odd:
  ``tfb``, ``df`` (1, 1, s) and ``df3`` (1, 1, r2*s) order 9k+6 < 10k+6 <
  c(21k+12).  ``fb1``, ``df1`` (t, 1, s) and ``fb2``, ``df2`` (1, t, s), with
  t = r or 2r+1 >= 3, leave only t(10k+6) or t(9k+6) against s(21k+12).
  As 10k+6 = 5ts+1, 9k+6 = (9ts+3)/2 and 21k+12 = (21ts+3)/2:

  - t(10k+6) = s(21k+12) is 10t^2s + 2t = 21ts^2 + 3s.  Modulo s, s | 2t,
    so s | t as s is odd; modulo t, t | 3s.  So t = s or t = 3s, which give
    10s^3 + 2s = 21s^3 + 3s and 90s^3 + 6s = 63s^3 + 3s: no root s >= 1.
  - t(9k+6) = s(21k+12) is 9t^2s + 3t = 21ts^2 + 3s.  Modulo s, s | 3t;
    modulo t, t | 3s.  So t is s/3, s or 3s, which give 27t^3 + 3t = 189t^3
    + 9t, 9s^3 + 3s = 21s^3 + 3s and 81s^3 + 9s = 63s^3 + 3s: no root.

  So k = 2 (mod 4) has distinct colors too.  The forms below are stated
  here from the parameters alone; the exhaustive check runs over odd t,
  s < 400 and even n <= 2,000, and the last test ties them to the
  builders' claims.
"""

import pytest

from grid_pass import grid_pass


def scaled(k, a=1, b=1, c=1):
    """The base colors 10k+6, 9k+6, 21k+12, each scaled by its class's blocks."""
    return (a * (10 * k + 6), b * (9 * k + 6), c * (21 * k + 12))


def fans(t, s, a=1, b=1, c=1):
    """t fans of s blades, 2k+1 = ts; the hubs' color is s(21k+12)."""
    return scaled((t * s - 1) // 2, a, b, c * s)


FORMS = {
    "fb": lambda n: (9 * (n // 2) + 6, 10 * (n // 2) + 6, (7 * (n // 2) + 4) * (3 * n)),
    "tfb": lambda t, s: fans(t, s),
    "df": lambda r, s: fans(2 * r + 1, s),
    "fb1": lambda r, s: fans(r, s, a=r),
    "fb2": lambda r, s: fans(r, s, b=r),
    "df1": lambda r, s: fans(2 * r + 1, s, a=2 * r + 1),
    "df2": lambda r, s: fans(2 * r + 1, s, b=2 * r + 1),
    "df3": lambda r, s, r1: fans(2 * r + 1, s, c=(2 * r + 1) // r1),
    "pt": lambda n: scaled(n // 2),
    "tb": lambda n: scaled(n // 2, a=2),
    "pt1": lambda n, r: scaled(n // 2, b=(n + 1) // r),
    "pt2": lambda n, r: scaled(n // 2, c=(n + 1) // r),
    "pt3": lambda n, r: scaled(n // 2, a=(2 * n + 2) // r),
    "tb1": lambda n, r: scaled(n // 2, a=2, b=(n + 1) // r),
    "tb2": lambda n, r: scaled(n // 2, a=2, c=(n + 1) // r),
    "tb3": lambda n, r: scaled(n // 2, a=2 * (n + 1) // r),
    "gn": lambda n, indices: scaled(n // 2, a=2),
    "gb": lambda n, r, s: scaled(n // 2, a=2 * s),
    "np3o3": lambda n: (25 * (n // 2) + 15, 50 * (n // 2) + 27, n * (39 * (n // 2) + 21)),
}

ODD = range(1, 400, 2)
EVEN_N = range(2, 2001, 2)


def divisors(m, least):
    return [r for r in range(least, m + 1) if m % r == 0]


def valid_params(family):
    """Every valid parameter set, with odd t, s < 400 and n <= 2,000."""
    if family in ("fb", "np3o3"):
        return [{"n": n} for n in range(3, 2001, 2)]
    if family in ("tfb", "fb1", "fb2"):
        key = "t" if family == "tfb" else "r"
        return [{key: t, "s": s} for t in ODD if t >= 3 for s in ODD if s >= 3]
    if family in ("df", "df1", "df2"):
        least = 1 if family == "df" else 3
        return [{"r": t // 2, "s": s} for t in ODD if t >= 3 for s in ODD if s >= least]
    if family == "df3":
        return [
            {"r": t // 2, "s": s, "r1": r1}
            for t in ODD for r1 in divisors(t, 3) if t // r1 >= 3 for s in ODD
        ]
    if family in ("pt", "tb", "gn"):
        return [{"n": n, "indices": (1,)} if family == "gn" else {"n": n} for n in EVEN_N]
    if family == "pt3":
        return [
            {"n": n, "r": r} for n in EVEN_N
            for r in divisors(2 * n + 2, 2) if 2 <= (2 * n + 2) // r <= n + 1
        ]
    least = 1 if family in ("pt1", "pt2") else 3
    out = [
        {"n": n, "r": r} for n in EVEN_N
        for r in divisors(n + 1, least) if (n + 1) // r >= 3
    ]
    if family == "gb":
        out = [{**p, "s": (p["n"] + 1) // p["r"]} for p in out]
    return out


@pytest.mark.parametrize("family", FORMS)
def test_the_three_closed_form_colors_are_distinct(family):
    points = valid_params(family)
    assert points
    for params in points:
        colors = FORMS[family](**params)
        assert len(set(colors)) == 3, (family, params, colors)


@pytest.mark.parametrize("family", FORMS)
def test_the_forms_are_the_builders_claims(family):
    # every non-excluded point of the default grid, as the grid pass built it
    points = grid_pass().points[family]
    assert points
    for point in points:
        claimed = point.instance.expected_palette
        assert claimed == tuple(sorted(FORMS[family](**point.params))), point.params
