"""Record the reference outputs that the benchmark checks every item against.

    python3 perfbench/make_reference.py [workload ...]

Run it only at the seed commit of the benchmark: it builds every item any
seed can draw (all points of the default grid, every value of the large
bands, every solve case), records each item's edge count and the first 16 hex
digits of the sha256 of its canonical output, and the digest of pass 0 under
the default seed.  A later commit must reproduce these outputs byte for byte.
"""

from __future__ import annotations

import json
import sys

from run import HERE, import_program, sha256
from workloads import WORKLOADS, item_key

DEFAULT_SEED = 0


def every_item(workload):
    am = workload.am
    if workload.name == "grid":
        for family in am.families.FAMILY_TAGS:
            for params, excluded in am.families.family_grid(family):
                if excluded is None:
                    yield item_key(family, params), lambda f=family, p=params: workload.item(f, p)
    elif workload.name == "large":
        for family, band in workload.bands.items():
            for params in band:
                yield item_key(family, params), lambda f=family, p=params: workload.item(f, p)
    else:
        yield from workload.items(workload.pass_inputs(0))


def main() -> int:
    am = import_program()
    (HERE / "reference").mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(WORKLOADS):
        cls = WORKLOADS[name]
        items, digests = {}, {}
        for key, thunk in every_item(cls(am, {}, DEFAULT_SEED)):
            result = thunk()
            digests[key] = sha256(result.artifact)
            items[key] = [result.edges, digests[key][:16]]
        # the grid sample is stratified by the recorded edge counts
        workload = cls(am, items, DEFAULT_SEED)
        pass0 = "".join(digests[key] + "\n" for key, _ in workload.items(workload.pass_inputs(0)))
        out = {"default_seed": DEFAULT_SEED, "digest": sha256(pass0), "items": items}
        # one item a line keeps the file small and its diffs readable
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(items.items())]
        text = json.dumps({k: v for k, v in out.items() if k != "items"})[:-1]
        (HERE / "reference" / f"{name}.json").write_text(
            text + ', "items": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{name}: {len(items)} items", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
