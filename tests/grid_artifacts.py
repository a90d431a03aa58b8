"""Byte check of the artifacts of the whole default grid.

Builds and certifies every non-excluded default-grid point of every family,
in ``FAMILY_TAGS`` and grid order, and hashes each point's JSON document
followed by its DOT export into one sha256.  Exits 0 when the point count and
the digest are the recorded ones, and 1 otherwise.  The test suite pins every
16th point (``STRIDE_DIGESTS`` in ``test_document_oracle.py``); this pins
them all, in about 12 s on one core of a 2-core x86 machine.

    PYTHONPATH=src python tests/grid_artifacts.py
"""

import hashlib
import sys

from antimagic import families, io

POINTS = 3339
SHA256 = "34823048d2dad3376d63f17e75aaad00172163e0da24945019a70e81efc712b8"


def grid_points() -> list[tuple[str, dict]]:
    """Every non-excluded default-grid point, in ``FAMILY_TAGS`` and grid order."""
    return [
        (family, params)
        for family in families.FAMILY_TAGS
        for params, excluded in families.family_grid(family)
        if excluded is None
    ]


def grid_digest() -> tuple[int, str]:
    """The number of points and the sha256 of their JSON + DOT artifacts."""
    digest, points = hashlib.sha256(), grid_points()
    for family, params in points:
        g, f, inst = families.build_family(family, **params)
        cert = families.verify_instance(g, f, inst)
        text = io.dumps(io.graph_to_doc(g, f, inst, cert))
        digest.update((text + io.graph_to_dot(g, f)).encode())
    return len(points), digest.hexdigest()


def main() -> int:
    count, sha = grid_digest()
    print(f"{count} points, sha256 {sha}")
    if (count, sha) != (POINTS, SHA256):
        print(f"expected {POINTS} points, sha256 {SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
