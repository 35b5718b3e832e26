#!/usr/bin/env python3
"""Diff two bench_suite artifacts (BENCH_<rev>.json) cell by cell.

Standard library only, like validate_bench_json.py. Cases are grouped into
(config, family, shard) cells -- shard is the v5 contention-phase shard
count, None for grid cases, so each shard count of the contention sweep is
its own cell and a QPS change at 8 shards is never averaged away against
1 shard. For every cell present in both artifacts the mean wall-clock, mean
makespan ratio, and served fraction (solve-cache hits plus v4 in-flight
dedup joins -- both answer a case without dispatching a fresh solve) are
compared, and the wall-clock delta is judged against a regression threshold
(default +20%). Cells that exist in only one artifact are listed but never
fail the run (new solvers/families join the sweep over time), and older
artifacts (v1: no per-case counters; v2: no cache_hit; v3: no dedup_join;
v4: no shard; v5: no fallback_used) compare fine against v6 ones -- missing
fields read as absent/zero/None.

Cells whose baseline mean wall-clock sits below the --min-wall floor
(default 100 us) are printed but never flagged: at that scale the delta is
timer and scheduler noise, not a regression signal. Cells whose served
fraction CHANGED between the runs are annotated and exempted too: a wall
delta caused by more (or fewer) cache hits / dedup joins reflects serving
behavior, not solver performance. Shard-bearing (contention) cells are
likewise printed but never flagged: they are closed-loop throughput sweeps
whose wall time tracks host load and core count, and their artifact
contract is the outcome digest (enforced by bench_suite itself), not the
wall clock. The same exemption covers v7 latency-histogram cells
(bench_load's open-loop replay rows): their wall_seconds is the replay
horizon -- a function of the trace, not the solver -- and their latency
percentiles track host load; their contract is the reference-solve digest
and trace_digest, both enforced by bench_load itself. They are printed
informationally and never flagged.

Exit status: 0 when no cell regressed, 1 on a wall-clock regression beyond
the threshold, 2 on usage/IO errors. CI runs this informationally
(continue-on-error) against the checked-in smoke baseline; run it locally
against a baseline from the pre-change tree for a real same-machine signal:

  python3 bench/compare_bench_json.py OLD.json NEW.json [--threshold 0.20] [--min-wall 1e-4]

With --outcomes the run instead diffs solver outcomes, case by case: cases
are matched on (config, family, seed, shard), and every case present in
both artifacts must agree on status, makespan, lower_bound, iterations and
(where both carry one) the outcome digest. Exit 1 on any changed case;
cases found in only one artifact are listed but never fail the run. This is
the check for refactors that promise byte-identical schedules:

  python3 bench/compare_bench_json.py OLD.json NEW.json --outcomes
"""

import json
import sys


def load_cells(path):
    """(config, family, shard) -> means over ok cases: wall, ratio, served.

    "Served" = cache_hit (v3) or dedup_join (v4): either way the case was
    answered without a fresh dispatch. Absent (older artifacts) or null
    counts as not-served, so pre-cache baselines read as a 0.0 fraction.
    shard (v5) is None on grid cases; pre-v5 artifacts read as all-None.
    Cells with any v7 latency-histogram (open-loop load) case are marked
    informational: wall time there measures the replay horizon, not solver
    cost.
    """
    artifact = load_artifact(path)
    sums = {}
    for case in artifact.get("cases", []):
        if case.get("status") != "ok" or case.get("wall_seconds") is None:
            continue
        key = (case.get("config", case.get("solver", "?")), case.get("family", "?"),
               case.get("shard"))
        cell = sums.setdefault(key, {"wall": 0.0, "ratio": 0.0, "hits": 0.0, "count": 0,
                                     "load": False})
        cell["wall"] += case["wall_seconds"]
        cell["ratio"] += case.get("ratio") or 0.0
        cell["hits"] += 1.0 if (case.get("cache_hit") or case.get("dedup_join")) else 0.0
        cell["count"] += 1
        if "latency_histogram" in case:
            cell["load"] = True
    for cell in sums.values():
        cell["wall"] /= cell["count"]
        cell["ratio"] /= cell["count"]
        cell["hits"] /= cell["count"]
    return artifact.get("rev", "?"), sums


OUTCOME_FIELDS = ("status", "makespan", "lower_bound", "iterations", "digest")


def load_artifact(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: cannot read artifact: {err}", file=sys.stderr)
        sys.exit(2)


def load_outcomes(path):
    """(config, family, seed, shard) -> the case's outcome fields."""
    cases = {}
    for case in load_artifact(path).get("cases", []):
        key = (case.get("config", case.get("solver", "?")), case.get("family", "?"),
               case.get("seed"), case.get("shard"))
        cases[key] = {field: case.get(field) for field in OUTCOME_FIELDS}
    return cases


def compare_outcomes(old_path, new_path):
    old, new = load_outcomes(old_path), load_outcomes(new_path)

    def label(key):
        shard = f" shard {key[3]}" if key[3] is not None else ""
        return f"{key[0]} {key[1]} seed {key[2]}{shard}"

    def sort_key(key):
        return tuple("" if part is None else str(part) for part in key)

    shared = sorted(set(old) & set(new), key=sort_key)
    changed = 0
    for key in shared:
        diffs = [f"{field} {old[key][field]!r} -> {new[key][field]!r}"
                 for field in OUTCOME_FIELDS
                 if old[key][field] != new[key][field]
                 and not (field == "digest" and None in (old[key][field], new[key][field]))]
        if diffs:
            changed += 1
            print(f"CHANGED {label(key)}: " + "; ".join(diffs))
    for key in sorted(set(old) - set(new), key=sort_key):
        print(f"only in {old_path}: {label(key)}")
    for key in sorted(set(new) - set(old), key=sort_key):
        print(f"only in {new_path}: {label(key)}")
    print(f"{changed} changed of {len(shared)} common cases "
          f"({len(set(old) - set(new))} only in old, {len(set(new) - set(old))} only in new)")
    return 1 if changed else 0


def main(argv):
    threshold = 0.20
    min_wall = 1e-4
    outcomes = False
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--threshold":
            try:
                threshold = float(next(it))
            except (StopIteration, ValueError):
                print("--threshold expects a number", file=sys.stderr)
                return 2
        elif arg == "--min-wall":
            try:
                min_wall = float(next(it))
            except (StopIteration, ValueError):
                print("--min-wall expects a number (seconds)", file=sys.stderr)
                return 2
        elif arg == "--outcomes":
            outcomes = True
        elif arg in ("-h", "--help"):
            print(__doc__.strip())
            return 0
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if outcomes:
        return compare_outcomes(paths[0], paths[1])

    base_rev, base = load_cells(paths[0])
    new_rev, new = load_cells(paths[1])

    def sort_key(key):
        return (key[0], key[1], -1 if key[2] is None else key[2])

    def fam_label(key):
        return f"{key[1]}@s{key[2]}" if key[2] is not None else key[1]

    shared = sorted(set(base) & set(new), key=sort_key)
    if not shared:
        print("no (config, family) cells in common; nothing to compare", file=sys.stderr)
        return 2

    print(f"baseline {base_rev} ({paths[0]}) vs {new_rev} ({paths[1]}), "
          f"wall regression threshold +{threshold:.0%} "
          f"(cells under {min_wall * 1e3:g} ms baseline wall exempt as noise; "
          f"cells whose served fraction -- cache hits + dedup joins -- changed "
          f"exempt as serving behavior)")
    header = f"{'config':<18} {'family':<16} {'wall old':>10} {'wall new':>10} " \
             f"{'delta':>8} {'ratio old':>10} {'ratio new':>10} {'srv% old':>9} {'srv% new':>9}"
    print(header)
    print("-" * len(header))
    regressions = []
    for key in shared:
        old_cell, new_cell = base[key], new[key]
        delta = (new_cell["wall"] - old_cell["wall"]) / old_cell["wall"] \
            if old_cell["wall"] > 0 else 0.0
        hits_changed = abs(new_cell["hits"] - old_cell["hits"]) > 1e-9
        is_load = old_cell["load"] or new_cell["load"]
        regressed = (delta > threshold and old_cell["wall"] >= min_wall and not hits_changed
                     and key[2] is None and not is_load)
        flag = " <-- REGRESSION" if regressed else ""
        if hits_changed and delta > threshold:
            flag = " (wall delta tracks served-fraction change; exempt)"
        elif is_load and delta > threshold:
            flag = " (open-loop load cell; informational)"
        if regressed:
            regressions.append(key)
        print(f"{key[0]:<18} {fam_label(key):<16} {old_cell['wall'] * 1e3:>9.3f}m {new_cell['wall'] * 1e3:>9.3f}m "
              f"{delta:>+7.1%} {old_cell['ratio']:>10.4f} {new_cell['ratio']:>10.4f} "
              f"{old_cell['hits']:>8.0%} {new_cell['hits']:>8.0%}{flag}")
    for key in sorted(set(base) - set(new), key=sort_key):
        print(f"{key[0]:<18} {fam_label(key):<16} (only in baseline)")
    for key in sorted(set(new) - set(base), key=sort_key):
        print(f"{key[0]:<18} {fam_label(key):<16} (only in new run)")

    if regressions:
        print(f"\n{len(regressions)} cell(s) regressed more than +{threshold:.0%} wall-clock",
              file=sys.stderr)
        return 1
    print(f"\nno wall-clock regression beyond +{threshold:.0%} across {len(shared)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
