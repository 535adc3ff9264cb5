#!/usr/bin/env python3
"""Compare drbench's committed artifacts across two checkouts, leaf by leaf.

Usage:

    python3 scripts/compare_artifacts.py OLD_DIR NEW_DIR

The six artifacts are what one run of

    drbench -diff cachesweep,ibl,faultstorm,chaosstorm,verify,telemetry -json DIR

writes: BENCH_figure5, cachesweep, iblsweep and telemetry in drbench/table/v1;
BENCH_faultstorm and chaosstorm in drbench/diff/v1. Each is flattened to
{JSON path: leaf value} with the header (schema, workers, wall clock)
skipped, and the union of the two files' paths is compared with == (floats
included): a path present in only one file is a difference too. Prints
each differing or missing path, then one summary line per file; exits 1 on
any difference, and on any of the six files missing from either directory.
"""

import json
import os
import sys

FILES = ["BENCH_figure5.json", "BENCH_cachesweep.json", "BENCH_iblsweep.json",
         "BENCH_faultstorm.json", "BENCH_chaosstorm.json", "BENCH_telemetry.json"]

# Header fields: not measurements.
HEADER = ("schema", "workers", "wall_clock_seconds")


def flat_doc(v, prefix="", out=None):
    """Flattens any JSON document to {leaf path: value}."""
    if out is None:
        out = {}
    if isinstance(v, dict):
        for k, x in v.items():
            flat_doc(x, prefix + "." + k if prefix else k, out)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            flat_doc(x, "%s[%d]" % (prefix, i), out)
    else:
        out[prefix] = v
    return out


def flatten(path):
    with open(path) as f:
        d = json.load(f)
    return d.get("schema"), flat_doc({k: v for k, v in d.items() if k not in HEADER})


def main(old_dir, new_dir):
    differing = 0
    for name in FILES:
        a, b = os.path.join(old_dir, name), os.path.join(new_dir, name)
        missing = [p for p in (a, b) if not os.path.exists(p)]
        if missing:
            print("%s: missing (%s)" % (name, ", ".join(missing)))
            differing += 1
            continue
        sa, old = flatten(a)
        sb, new = flatten(b)
        keys = list(old) + [k for k in new if k not in old]
        diffs = 0
        for key in keys:
            if key not in new:
                print("%s: %s: only in old (%r)" % (name, key, old[key]))
            elif key not in old:
                print("%s: %s: only in new (%r)" % (name, key, new[key]))
            elif new[key] != old[key]:
                print("%s: %s: old %r, new %r" % (name, key, old[key], new[key]))
            else:
                continue
            diffs += 1
        print("%s: %s -> %s: %d leaves compared, %d differ" % (name, sa, sb, len(keys), diffs))
        differing += diffs
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
