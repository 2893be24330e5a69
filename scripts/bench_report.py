#!/usr/bin/env python3
"""Aggregate the checked-in BENCH_*.json reports into EXPERIMENTS.md.

Every benchmark binary that opts into machine-readable reporting
(bench/bench_json.h) writes BENCH_<name>.json; the headline numbers that
pass each PR's acceptance bars are checked in at the repo root. This
script folds all of them into one trajectory table inside EXPERIMENTS.md
(between the bench_report markers) so the measured numbers the prose
quotes are regenerable from the artifacts rather than hand-copied.

Each report name is registered below with the params/row keys its schema
promises and how to compute its headline metric. Unknown report names or
missing keys are *schema drift* and fail the run: a bench must not
silently change shape out from under the trajectory table (or the CI
archiving step). Register the new shape here in the same change.

Usage:
  scripts/bench_report.py            rewrite the EXPERIMENTS.md block
  scripts/bench_report.py --check    verify schemas + block freshness (CI)
"""

import argparse
import json
import os
import sys

BEGIN_MARK = "<!-- bench_report:begin (generated by scripts/bench_report.py) -->"
END_MARK = "<!-- bench_report:end -->"


def headline_prefilter(report):
    p = report["params"]
    return (
        f"{p['match_stage_speedup']:.2f}x match-stage speedup, "
        f"{p['candidate_reduction']:.2f}x exact-verification candidate "
        f"reduction at eps={p['epsilon']:.3f}"
    )


def headline_batched_probe(report):
    p = report["params"]
    return (
        f"{p['probe_stage_speedup']:.2f}x probe-stage speedup "
        f"(batched+{p['max_isa']} over scalar per-region)"
    )


def headline_simd_kernels(report):
    best = max(report["rows"], key=lambda r: r["speedup_vs_scalar"])
    return (
        f"best kernel {best['kernel']} ({best['isa']}): "
        f"{best['speedup_vs_scalar']:.2f}x over scalar at "
        f"dim={report['params']['dim']}"
    )


def headline_server_c10k(report):
    p = report["params"]
    best = max(report["rows"], key=lambda r: r["qps"])
    return (
        f"{best['qps']:.0f} qps at {best['clients']} pipelined clients "
        f"with {p['idle_connections']} idle connections "
        f"({p['rss_bytes_per_idle_conn'] / 1024:.1f} KiB RSS/idle conn)"
    )


def headline_paged_tree(report):
    rows = {(r["corpus"], r["backend"]): r for r in report["rows"]}
    arena = rows[("table1", "arena")]
    dynamic = rows[("table1", "dynamic")]
    built = rows[("synthetic", "arena")]
    paged = rows[("synthetic", "paged")]
    return (
        f"arena probe p50 {arena['probe_p50_ms']:.3f} ms vs dynamic "
        f"{dynamic['probe_p50_ms']:.3f} ms; arena resident "
        f"{built['resident_tree_bytes_per_region']:.0f} B/region at "
        f"{built['entries']} entries, STR build "
        f"{built['open_seconds']:.2f} s vs page decode "
        f"{paged['open_seconds']:.2f} s"
    )


def workload_paged_tree(report):
    p = report["params"]
    return (f"{p['images']} images ({p['regions']} regions) + "
            f"{p['synthetic_entries']} synthetic entries")


def workload_images(report):
    return f"{report['params']['images']} images"


def workload_c10k(report):
    return f"{report['params']['num_images']} images"


def workload_simd(report):
    return f"batches of {report['params']['batch_count']}"


# name -> (required params keys, required row keys, workload, headline).
# Keys are a *floor*: extra keys are fine (rows may grow fields), missing
# ones are drift.
SCHEMAS = {
    "prefilter": (
        {"images", "regions", "epsilon", "queries", "repetitions",
         "match_stage_speedup", "candidate_reduction"},
        {"kind", "extract_seconds", "probe_seconds", "filter_seconds",
         "match_seconds", "rank_seconds", "total_seconds",
         "prefilter_candidates_in", "prefilter_candidates_out"},
        workload_images,
        headline_prefilter,
    ),
    "batched_probe": (
        {"images", "regions", "epsilon", "max_isa", "probe_stage_speedup"},
        {"config", "batched", "isa", "probe_seconds", "probes_per_second",
         "nodes_visited"},
        workload_images,
        headline_batched_probe,
    ),
    "paged_tree": (
        {"images", "regions", "synthetic_entries", "epsilon", "queries",
         "repetitions"},
        {"corpus", "backend", "entries", "probe_p50_ms", "probe_p99_ms",
         "open_seconds", "resident_tree_bytes_per_region"},
        workload_paged_tree,
        headline_paged_tree,
    ),
    "simd_kernels": (
        {"dim", "batch_count", "max_isa"},
        {"kernel", "isa", "ns_per_call", "speedup_vs_scalar"},
        workload_simd,
        headline_simd_kernels,
    ),
    "server_c10k": (
        {"num_images", "idle_connections", "pipeline_depth",
         "rss_bytes_per_idle_conn"},
        {"clients", "qps", "p50_ms", "p99_ms"},
        workload_c10k,
        headline_server_c10k,
    ),
}


def fail(message):
    print(f"bench_report.py: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_reports(root):
    reports = []
    for entry in sorted(os.listdir(root)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        path = os.path.join(root, entry)
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            fail(f"{entry}: unreadable report: {error}")
        for key in ("name", "params", "rows"):
            if key not in report:
                fail(f"{entry}: missing top-level '{key}'")
        if f"BENCH_{report['name']}.json" != entry:
            fail(f"{entry}: file name does not match report name "
                 f"'{report['name']}'")
        reports.append((entry, report))
    return reports


def check_schema(entry, report):
    if report["name"] not in SCHEMAS:
        fail(f"{entry}: unregistered report name '{report['name']}' — "
             "register its schema in scripts/bench_report.py")
    params_keys, row_keys, _, _ = SCHEMAS[report["name"]]
    missing = params_keys - set(report["params"])
    if missing:
        fail(f"{entry}: params missing {sorted(missing)} (schema drift)")
    if not report["rows"]:
        fail(f"{entry}: report has no rows")
    for i, row in enumerate(report["rows"]):
        missing = row_keys - set(row)
        if missing:
            fail(f"{entry}: row {i} missing {sorted(missing)} "
                 "(schema drift)")


def render_block(reports):
    lines = [
        BEGIN_MARK,
        "",
        "## Benchmark trajectory (checked-in BENCH_*.json)",
        "",
        "Aggregated by `scripts/bench_report.py` from the JSON reports at",
        "the repo root; regenerate with the bench binaries, then rerun the",
        "script. CI runs it with `--check`, which fails on schema drift or",
        "a stale table.",
        "",
        "| report | workload | rows | headline |",
        "|---|---|---|---|",
    ]
    for entry, report in reports:
        _, _, workload, headline = SCHEMAS[report["name"]]
        lines.append(
            f"| `{entry}` | {workload(report)} | {len(report['rows'])} "
            f"| {headline(report)} |"
        )
    lines += ["", END_MARK]
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--check", action="store_true",
                        help="verify instead of rewriting (CI mode)")
    args = parser.parse_args()

    reports = load_reports(args.root)
    if not reports:
        fail(f"no BENCH_*.json reports found under {args.root}")
    for entry, report in reports:
        check_schema(entry, report)

    experiments = os.path.join(args.root, "EXPERIMENTS.md")
    with open(experiments) as f:
        text = f.read()
    block = render_block(reports)

    if BEGIN_MARK in text:
        begin = text.index(BEGIN_MARK)
        end = text.index(END_MARK)
        if end < begin:
            fail("EXPERIMENTS.md bench_report markers are out of order")
        end += len(END_MARK)
        updated = text[:begin] + block + text[end:]
    else:
        updated = text.rstrip("\n") + "\n\n" + block + "\n"

    if args.check:
        if updated != text:
            fail("EXPERIMENTS.md trajectory table is stale — rerun "
                 "scripts/bench_report.py")
        print(f"bench_report.py: {len(reports)} reports OK, table fresh")
        return
    if updated != text:
        with open(experiments, "w") as f:
            f.write(updated)
        print(f"bench_report.py: rewrote trajectory table "
              f"({len(reports)} reports)")
    else:
        print(f"bench_report.py: table already fresh ({len(reports)} reports)")


if __name__ == "__main__":
    main()
