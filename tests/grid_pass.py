"""One walk of the default grid per test session: ``sweep_family`` over
``FAMILY_TAGS``, with each call of ``graph._draft`` counted (in every module
of the package that holds it) and ``build_family`` and ``verify_instance``
wrapped, every patch undone before :func:`grid_pass` returns.  Each
non-excluded point keeps what the tests read of its build, every
``STRIDE``-th its texts, and no graph or labeling."""

import functools
import sys
import time
from typing import NamedTuple

import pytest

from antimagic import families, graph, io

STRIDE = 16


class Point(NamedTuple):
    params: dict
    instance: families.FamilyInstance
    drafts: int  # the drafts its build made
    digest: int  # see digest


class GridPass(NamedTuple):
    records: dict[str, list[dict]]  # each family's sweep records
    points: dict[str, list[Point]]  # each family's non-excluded points, in grid order
    stride: dict[str, list[tuple]]  # (params, instance, JSON text, DOT export) of every STRIDE-th
    seconds: float  # the sweep's time.monotonic() span


def digest(g, f) -> int:
    """A hash of a build's vertex set and of its edges with their labels: two
    builds give the same one if ``g == g2 and f == f2``, and, but for a
    chance of about 2**-64, only then.  No sort, so it costs less than a
    digest of the canonical listing; it holds within one process."""
    return hash((frozenset(g.names), frozenset(zip(g._named_edges(), f._array))))


@functools.cache
def grid_pass() -> GridPass:
    records, points, stride, made = {}, {}, {}, [0]
    build, verify, draft = families.build_family, families.verify_instance, graph._draft

    def counted(*lists):
        made[0] += 1
        return draft(*lists)

    def kept(family, **params):
        before = made[0]
        g, f, inst = built = build(family, **params)
        points[family].append(Point(params, inst, made[0] - before, digest(g, f)))
        return built

    def sampled(g, f, inst):  # the sweep verifies each point right after its build
        cert = verify(g, f, inst)
        if (len(points[family]) - 1) % STRIDE == 0:
            text = io.dumps(io.graph_to_doc(g, f, inst, cert))
            stride[family].append((points[family][-1].params, inst, text, io.graph_to_dot(g, f)))
        return cert

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("antimagic") and getattr(module, "_draft", None) is draft:
                patch.setattr(module, "_draft", counted)
        patch.setattr(families, "build_family", kept)
        patch.setattr(families, "verify_instance", sampled)
        started = time.monotonic()
        for family in families.FAMILY_TAGS:
            points[family], stride[family] = [], []
            records[family] = families.sweep_family(family)
        seconds = time.monotonic() - started
    return GridPass(records, points, stride, seconds)
