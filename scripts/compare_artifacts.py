#!/usr/bin/env python3
"""Compare drbench's committed artifacts across two checkouts, field by field.

Usage:

    python3 scripts/compare_artifacts.py OLD_DIR NEW_DIR

For each of BENCH_figure5.json, BENCH_cachesweep.json, BENCH_iblsweep.json and
BENCH_profile.json present in both directories, every measured value of the
old file is looked up at its place in the new one and compared with ==
(floats included). Either side may use either the old per-experiment schemas
(drbench/figure5/v1, cachesweep/v1, iblsweep/v1, profile/v1) or the one table
layout (drbench/table/v1); the old point parameters (bytes, bits,
direct_mapped, ...) are not measurements and are skipped.
BENCH_faultstorm.json, BENCH_chaosstorm.json (drbench/diff/v1) and
BENCH_telemetry.json (drbench/telemetry/v1) are compared as whole documents,
every leaf at its JSON path. The header (schema, workers, wall clock) is
skipped everywhere. Prints each differing or missing field, then one summary
line per file; exits 1 on any difference.
"""

import json
import os
import sys

FILES = ["BENCH_figure5.json", "BENCH_cachesweep.json", "BENCH_iblsweep.json", "BENCH_profile.json",
         "BENCH_faultstorm.json", "BENCH_chaosstorm.json", "BENCH_telemetry.json"]

# Header fields: not measurements.
HEADER = ("schema", "workers", "wall_clock_seconds")

# Old per-cell counter fields and the core.Stats field each one reports.
STATS = {
    "evictions": "Evictions",
    "regenerations": "Regenerations",
    "cache_resizes": "CacheResizes",
    "bb_live_bytes": "BBCacheLiveBytes",
    "trace_live_bytes": "TraceCacheLiveBytes",
    "context_switches": "ContextSwitches",
    "ibl_misses": "IBLMisses",
    "ibl_collisions": "IBLCollisions",
    "ibl_max_probe": "IBLMaxProbe",
    "ibl_resizes": "IBLResizes",
    "ibl_replaced": "IBLReplaced",
    "flags_elisions": "FlagsElisions",
    "inline_checks_elided": "InlineChecksElided",
    "blocks_built": "BlocksBuilt",
    "traces_built": "TracesBuilt",
}


def flat_old(d):
    """Flattens a per-experiment artifact to {field path: value}."""
    if "configs" in d:
        points = d["configs"]
    elif "points" in d:
        points = [p["name"] for p in d["points"]]
    else:
        points = ["default"]  # the profile's single column
    out = {"points": points}
    if "total_simulated_cycles" in d:
        out["total_simulated_cycles"] = d["total_simulated_cycles"]
    means = d.get("means")
    if isinstance(means, dict):
        for k, v in means.items():
            out["means." + k] = v
    elif means is not None:
        out["means.all"] = means
    for row in d["rows"]:
        b = row["benchmark"]
        out[b + ".class"] = row["class"]
        for k, v in row.items():
            if k in ("benchmark", "class"):
                continue
            if isinstance(v, list) and k != "top":
                for i, x in enumerate(v):
                    out["%s.%s.%s" % (b, points[i], k)] = x
            else:
                out["%s.%s.%s" % (b, points[0], k)] = v
    return out


def flat_new(d):
    """Flattens a drbench/table/v1 artifact into flat_old's vocabulary."""
    points = [p["name"] for p in d["points"]]
    out = {"points": points, "total_simulated_cycles": d["total_simulated_cycles"]}
    for k, v in d["means"].items():
        out["means." + k] = v
    for row in d["rows"]:
        b = row["benchmark"]
        out[b + ".class"] = row["class"]
        for i, p in enumerate(points):
            cell = row["cells"][i]
            key = "%s.%s." % (b, p)
            out[key + "normalized"] = row["normalized"][i]
            out[key + "cycles"] = row["cycles"][i]
            out[key + "ticks"] = cell["ticks"]
            for k in ("phase_ticks", "fragments", "top", "events", "events_dropped"):
                if k in cell:
                    out[key + k] = cell[k]
            for old, field in STATS.items():
                out[key + old] = cell["stats"].get(field, 0)
    return out


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
    schema = d["schema"]
    if schema in ("drbench/diff/v1", "drbench/telemetry/v1"):
        return schema, flat_doc({k: v for k, v in d.items() if k not in HEADER})
    return schema, (flat_new(d) if schema == "drbench/table/v1" else flat_old(d))


def main(old_dir, new_dir):
    differing = 0
    for name in FILES:
        a, b = os.path.join(old_dir, name), os.path.join(new_dir, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            continue
        sa, old = flatten(a)
        sb, new = flatten(b)
        diffs = 0
        for key, want in old.items():
            if key not in new:
                print("%s: %s: missing (old %r)" % (name, key, want))
                diffs += 1
            elif new[key] != want:
                print("%s: %s: old %r, new %r" % (name, key, want, new[key]))
                diffs += 1
        print("%s: %s -> %s: %d fields compared, %d differ" % (name, sa, sb, len(old), diffs))
        differing += diffs
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
