#!/usr/bin/env python3
"""Regression gate over the committed BENCH_*.json baselines.

Validates every baseline in the repository root (or the directory given as
the first argument):

  all files     schema_version >= 2 header present; the git stamp records a
                clean revision (bench_report refuses to write a BENCH_*
                baseline from a dirty tree; this catches one smuggled in
                with --allow-dirty).
  scale         registry_overhead_pct and recorder_overhead_pct under the
                2% hot-path budget; a nonempty results table.
  analysis      the accelerated degree-MC sweep agrees with the seed
                baseline configuration (max mean-indegree difference),
                every point of the accelerated sweep converged, and the
                prediction cache actually serves repeats.
  telemetry     zero watchdog violations, nonempty registry histograms
                (the degree histograms must actually be wired), the
                "observe" phase attributed as a coordinator phase, and the
                export plane holding its contract: a valid
                sfgossip.snapshot/v1 delta-encoded schema header,
                exporter_overhead_pct under the 2% hot-path budget,
                bit-identical fingerprints with exporters attached, and
                ordered (p50 <= p90 <= p99) outdegree quantile estimates.
  drift         the correctly parameterized run finished with zero drift
                violations inside the degree-TVD limits, and the
                mis-parameterized run tripped the monitor and dumped a
                nonempty flight trace.
  forensics     every analyzer leg attributed all of its incidents to the
                injected cause with zero left unknown, the rendered JSON
                report was byte-identical across renders, and the whole
                load->index->attribute->render pass stayed inside the
                wall-clock budget recorded in the baseline.
  chaos         every fault-plane leg holds its gate: the partition and
                mass-kill legs degraded and recovered within their round
                budgets, the regional burst leg recovered and ended fully
                in band, and the undeclared-spike leg still tripped the
                drift monitor (declared-window accounting must not blunt
                detection of faults nobody declared). The sustained-spike
                pair must split: the retuned leg survives with zero drift
                violations, at least one applied retune, and the degree
                lanes back in band, while the unattended leg trips the
                monitor.
  arena         the protocol x scenario x loss detection matrix is complete
                ({sf, swim, a2a} x {partition_heal, mass_kill,
                regional_burst} x {0, 0.02, 0.10}), every leg reproduced
                its fingerprint across two back-to-back runs, SWIM detected
                every mass-kill victim at every live observer (completeness
                1.0) with false-positive pair-spells under budget and all
                refuted at loss <= 2%, and the S&F legs recovered within
                the same round budgets BENCH_chaos.json commits (the arena
                must not need looser S&F gates than the chaos baseline).

Run directly or via ctest (registered as check_bench_baselines). Exits
nonzero listing every failed check; prints one OK line per file otherwise.
"""

import glob
import json
import os
import sys

HOT_PATH_BUDGET_PCT = 2.0
DEGREE_MC_AGREEMENT = 1e-6
# Observation overhead budget (observed vs bare at the reference n). The
# cost is the stride-10 quiescent probe: an O(n*s) walk over every packed
# view row plus the watchdog scan, amortized over 10 rounds of useful work.
# Packed 4-byte entries halved the probe's traffic relative to the unpacked
# seed engine (20.7% there), so a sampling regression past this budget means
# the probe degraded structurally, not that the workload got faster.
OBS_BUDGET_PCT = 25.0
# Memory-footprint gate for the 10M-node leg: the packed SoA layout budgets
# ~171 B/node (160 B slot row + degree/live side arrays + the driver's live
# lists); 220 leaves allocator and mailbox headroom without letting a
# per-node regression (e.g. an unpacked entry sneaking back in) pass.
BYTES_PER_NODE_BUDGET = 220.0
BYTES_PER_NODE_MIN_N = 10_000_000
# Single-worker throughput gate at the n = 50k operating point: >= 1.5x the
# unpacked seed engine's committed 8.93M actions/sec.
SINGLE_THREAD_GATE_N = 50_000
SINGLE_THREAD_FLOOR_APS = 1.5 * 8.93e6


def fail(errors, path, message):
    errors.append(f"{os.path.basename(path)}: {message}")


def check_header(doc, path, errors):
    schema = doc.get("schema_version")
    if not isinstance(schema, int) or schema < 2:
        fail(errors, path, f"schema_version {schema!r} (need >= 2)")
    git = doc.get("git")
    if not isinstance(git, str) or not git:
        fail(errors, path, "missing git stamp")
    elif git == "unknown" or git.endswith("-dirty"):
        fail(errors, path, f"baseline written from a dirty tree (git: {git})")


def check_scale(doc, path, errors):
    results = doc.get("results")
    if not results:
        fail(errors, path, "empty results table")
        return
    for key in ("registry_overhead_pct", "recorder_overhead_pct"):
        pct = doc.get(key)
        if not isinstance(pct, (int, float)):
            fail(errors, path, f"missing {key}")
        elif pct >= HOT_PATH_BUDGET_PCT:
            fail(errors, path,
                 f"{key} = {pct:.2f}% (budget < {HOT_PATH_BUDGET_PCT}%)")
    obs = doc.get("obs_overhead_pct")
    if not isinstance(obs, (int, float)):
        fail(errors, path, "missing obs_overhead_pct")
    elif obs >= OBS_BUDGET_PCT:
        fail(errors, path,
             f"obs_overhead_pct = {obs:.2f}% (budget < {OBS_BUDGET_PCT}%; "
             "the stride-10 quiescent probe got structurally slower)")
    # Memory footprint at the 10M-node operating point. The baseline must
    # actually contain such a leg — the headline scale claim is void if the
    # big run silently disappears from the table.
    big = [r for r in results
           if r.get("driver", "").startswith("sharded")
           and r.get("n", 0) >= BYTES_PER_NODE_MIN_N]
    if not big:
        fail(errors, path,
             f"no sharded leg with n >= {BYTES_PER_NODE_MIN_N}")
    for r in big:
        bpn = r.get("bytes_per_node")
        if not isinstance(bpn, (int, float)) or bpn <= 0:
            fail(errors, path,
                 f"n={r.get('n')}: missing/zero bytes_per_node")
        elif bpn > BYTES_PER_NODE_BUDGET:
            fail(errors, path,
                 f"n={r.get('n')}: bytes_per_node = {bpn:.1f} "
                 f"(budget <= {BYTES_PER_NODE_BUDGET:.0f})")
    # Single-worker throughput at n = 50k: the packed hot path plus
    # shard-blocked scheduling must clear 1.5x the unpacked seed engine on
    # one thread, independent of how many cores the bench box has.
    best_1t = max((r.get("actions_per_sec", 0.0) for r in results
                   if r.get("driver") == "sharded_flat"
                   and r.get("n") == SINGLE_THREAD_GATE_N
                   and r.get("threads") == 1), default=0.0)
    if best_1t <= 0.0:
        fail(errors, path,
             f"no sharded_flat leg at n={SINGLE_THREAD_GATE_N} threads=1")
    elif best_1t < SINGLE_THREAD_FLOOR_APS:
        fail(errors, path,
             f"single-thread n={SINGLE_THREAD_GATE_N} throughput "
             f"{best_1t:.3g} actions/sec "
             f"(floor {SINGLE_THREAD_FLOOR_APS:.3g})")
    # When the winning speedup configuration is oversubscribed, the honest
    # single-worker companion figure must ride along.
    if doc.get("speedup_oversubscribed") is True:
        if not any(k.startswith("speedup_vs_sequential_at_n")
                   and k.endswith("_1t") for k in doc):
            fail(errors, path,
                 "speedup is oversubscribed but the _1t companion "
                 "speedup key is missing")


def check_analysis(doc, path, errors):
    degree = doc.get("degree_mc", {})
    diff = degree.get("max_mean_indegree_diff")
    if not isinstance(diff, (int, float)):
        fail(errors, path, "missing degree_mc.max_mean_indegree_diff")
    elif diff > DEGREE_MC_AGREEMENT:
        fail(errors, path,
             f"accelerated degree MC disagrees with baseline by {diff:g}")

    points = degree.get("after", {}).get("points", [])
    if not points:
        fail(errors, path, "degree_mc.after.points is empty")
    for point in points:
        if point.get("converged") is not True:
            fail(errors, path,
                 f"degree MC point loss={point.get('loss')!r} did not "
                 "converge")
    if not doc.get("prediction_cache", {}).get("hits"):
        fail(errors, path,
             "prediction cache served no hits (repeat solve not cached)")


def check_telemetry(doc, path, errors):
    sim = doc.get("simulation", {})
    violations = sim.get("watchdog", {}).get("violations")
    if violations != 0:
        fail(errors, path, f"watchdog violations = {violations!r} (want 0)")
    if not sim.get("registry", {}).get("histograms"):
        fail(errors, path, "registry histograms are empty "
             "(degree histograms not wired)")
    phases = {p.get("phase"): p for p in sim.get("phases", [])}
    observe = phases.get("observe")
    if observe is None:
        fail(errors, path, "no 'observe' phase in the profiler dump")
    elif observe.get("coordinator") is not True:
        fail(errors, path, "'observe' phase not marked as coordinator "
             "(its nanos would be misattributed to shard 0)")
    elif "per_shard_nanos" in observe:
        fail(errors, path,
             "'observe' phase still carries per_shard_nanos")

    export = doc.get("export")
    if not isinstance(export, dict):
        fail(errors, path, "missing 'export' section (exporter overhead "
             "leg not wired)")
        return
    schema = export.get("snapshot_schema", {})
    if schema.get("name") != "sfgossip.snapshot" or \
       schema.get("version") != 1 or \
       schema.get("delta_encoded") is not True:
        fail(errors, path, f"bad snapshot_schema header {schema!r} (want "
             "name='sfgossip.snapshot', version=1, delta_encoded=true)")
    pct = export.get("exporter_overhead_pct")
    if not isinstance(pct, (int, float)):
        fail(errors, path, "missing exporter_overhead_pct")
    elif pct >= HOT_PATH_BUDGET_PCT:
        fail(errors, path,
             f"exporter_overhead_pct = {pct:.2f}% "
             f"(budget < {HOT_PATH_BUDGET_PCT}%)")
    if export.get("fingerprint_match") is not True:
        fail(errors, path, "exporter-attached run changed the simulation "
             "fingerprint (export plane must draw zero RNG)")
    if not export.get("snapshots"):
        fail(errors, path, "exporter leg captured no snapshots")
    q = export.get("outdegree_quantiles", {})
    p50, p90, p99 = (q.get(k) for k in ("p50", "p90", "p99"))
    if not all(isinstance(v, (int, float)) for v in (p50, p90, p99)):
        fail(errors, path, "missing outdegree quantiles in export section")
    elif not (0 < p50 <= p90 <= p99):
        fail(errors, path,
             f"outdegree quantiles not ordered: p50={p50} p90={p90} "
             f"p99={p99}")


def check_drift(doc, path, errors):
    gates = doc.get("gates", {})
    if gates.get("clean_zero_violations") is not True:
        fail(errors, path, "clean run gate failed")
    if gates.get("misparam_tripped") is not True:
        fail(errors, path, "mis-parameterized run gate failed")
    clean = doc.get("clean", {})
    if clean.get("violation_transitions") != 0:
        fail(errors, path,
             f"clean run had {clean.get('violation_transitions')!r} "
             "drift violations")
    probe = clean.get("last_probe", {})
    for stat, limit in (("tvd_out", "tvd_out_limit"),
                        ("tvd_in", "tvd_in_limit")):
        value, bound = probe.get(stat), probe.get(limit)
        if not isinstance(value, (int, float)) or \
           not isinstance(bound, (int, float)):
            fail(errors, path, f"missing {stat}/{limit} in clean last_probe")
        elif value >= bound:
            fail(errors, path,
                 f"clean {stat} = {value:g} outside its limit {bound:g}")
    mis = doc.get("misparam", {})
    if not mis.get("violation_transitions"):
        fail(errors, path, "mis-parameterized run never escalated to "
             "VIOLATION")
    if mis.get("dump_written") is not True or not mis.get("dump_events"):
        fail(errors, path, "mis-parameterized run did not dump a nonempty "
             "flight trace")


def check_chaos(doc, path, errors):
    gates = doc.get("gates", {})
    for gate in ("partition_recovered", "mass_failure_recovered",
                 "burst_survived", "undeclared_tripped",
                 "retune_survived", "retune_off_tripped"):
        if gates.get(gate) is not True:
            fail(errors, path, f"chaos gate {gate} failed")
    budgets = doc.get("budgets", {})
    for leg, label, budget_key in (
            ("partition_heal", "split", "partition_rounds"),
            ("mass_failure", "mass-kill", "mass_kill_rounds"),
            ("burst_survival", "rack-burst", "burst_rounds")):
        run = doc.get(leg, {})
        budget = budgets.get(budget_key)
        if not isinstance(budget, int):
            fail(errors, path, f"missing budgets.{budget_key}")
            continue
        episode = next((e for e in run.get("episodes", [])
                        if e.get("label") == label), None)
        if episode is None:
            fail(errors, path, f"{leg}: no '{label}' episode recorded")
            continue
        if episode.get("degraded") is not True:
            fail(errors, path,
                 f"{leg}: '{label}' never degraded (fault had no effect)")
        if episode.get("recovered") is not True:
            fail(errors, path, f"{leg}: '{label}' never recovered")
        rounds = episode.get("recovery_rounds")
        if not isinstance(rounds, int):
            fail(errors, path, f"{leg}: missing recovery_rounds")
        elif rounds > budget:
            fail(errors, path,
                 f"{leg}: recovered in {rounds} rounds "
                 f"(budget {budget})")
        if run.get("unrecovered") != 0:
            fail(errors, path,
                 f"{leg}: {run.get('unrecovered')!r} unrecovered episode(s)")
        if not run.get("faulted") and leg != "mass_failure":
            fail(errors, path, f"{leg}: fault plane dropped no messages")
    spike = doc.get("undeclared_spike", {})
    if not spike.get("violation_transitions"):
        fail(errors, path,
             "undeclared spike never escalated the drift monitor")
    if not any(e.get("label") == "undeclared" and e.get("degraded")
               for e in spike.get("episodes", [])):
        fail(errors, path,
             "undeclared spike opened no undeclared recovery episode")
    retune = doc.get("loss_retune", {})
    if retune.get("violation_transitions") != 0:
        fail(errors, path,
             f"retuned spike escalated the drift monitor "
             f"({retune.get('violation_transitions')!r} violations)")
    if not retune.get("retunes_applied"):
        fail(errors, path, "retuned spike installed no new configuration")
    if retune.get("degree_in_band") is not True:
        fail(errors, path,
             "retuned spike ended with the degree lanes out of band")
    if retune.get("unrecovered") != 0:
        fail(errors, path,
             f"retuned spike left {retune.get('unrecovered')!r} "
             f"unrecovered episode(s)")
    bare = doc.get("loss_retune_off", {})
    if not bare.get("violation_transitions"):
        fail(errors, path,
             "unattended sustained spike never escalated the drift monitor")


def check_forensics(doc, path, errors):
    gates = doc.get("gates", {})
    for gate in ("declared_attributed", "churn_attributed",
                 "loss_attributed", "analyze_within_budget"):
        if gates.get(gate) is not True:
            fail(errors, path, f"forensics gate {gate} failed")
    budget = doc.get("analyze_budget_seconds")
    if not isinstance(budget, (int, float)) or budget <= 0:
        fail(errors, path, "missing analyze_budget_seconds")
        budget = None
    for leg in ("declared_partition", "undeclared_mass_kill",
                "undeclared_loss_spike"):
        a = doc.get(leg)
        if not isinstance(a, dict):
            fail(errors, path, f"missing {leg} leg")
            continue
        incidents = a.get("incidents")
        if not isinstance(incidents, int) or incidents <= 0:
            fail(errors, path, f"{leg}: no incidents detected "
                 "(the injected fault left no trace)")
        if a.get("unknown") != 0:
            fail(errors, path,
                 f"{leg}: {a.get('unknown')!r} incident(s) left unknown")
        if a.get("matched") != incidents:
            fail(errors, path,
                 f"{leg}: {a.get('matched')!r}/{incidents!r} incidents "
                 f"attributed to {a.get('expected_cause')!r}")
        if a.get("deterministic") is not True:
            fail(errors, path, f"{leg}: report render not deterministic")
        seconds = a.get("analyze_seconds")
        if not isinstance(seconds, (int, float)):
            fail(errors, path, f"{leg}: missing analyze_seconds")
        elif budget is not None and seconds >= budget:
            fail(errors, path,
                 f"{leg}: analyze took {seconds:g}s (budget {budget:g}s)")
        if not a.get("trace_events") or not a.get("snapshots"):
            fail(errors, path,
                 f"{leg}: empty artifact set (trace_events="
                 f"{a.get('trace_events')!r}, "
                 f"snapshots={a.get('snapshots')!r})")


# The arena's S&F recovery budgets must equal the committed chaos budgets
# (BENCH_chaos.json "budgets"): the arena is not allowed to quietly loosen
# the recovery story the chaos baseline gates on.
ARENA_SF_PARTITION_BUDGET = 200
ARENA_SF_MASS_KILL_BUDGET = 360
ARENA_PROTOCOLS = ("sf", "swim", "a2a")
ARENA_SCENARIOS = ("partition_heal", "mass_kill", "regional_burst")
ARENA_LOSSES = (0.0, 0.02, 0.1)
ARENA_GATED_LOSS = 0.02  # swim + sf gates apply at loss <= this


def check_arena(doc, path, errors):
    gates = doc.get("gates", {})
    for gate in ("matrix_complete", "deterministic", "swim_complete",
                 "swim_fp_under_budget", "sf_partition_recovered",
                 "sf_mass_kill_recovered"):
        if gates.get(gate) is not True:
            fail(errors, path, f"arena gate {gate} failed")
    budgets = doc.get("budgets", {})
    fp_budget = budgets.get("swim_fp_events")
    if not isinstance(fp_budget, int) or fp_budget <= 0:
        fail(errors, path, "missing budgets.swim_fp_events")
        fp_budget = None
    for key, expected in (("sf_partition_rounds", ARENA_SF_PARTITION_BUDGET),
                          ("sf_mass_kill_rounds", ARENA_SF_MASS_KILL_BUDGET)):
        if budgets.get(key) != expected:
            fail(errors, path,
                 f"budgets.{key} = {budgets.get(key)!r} (must equal the "
                 f"committed chaos budget {expected})")

    legs = doc.get("legs", [])
    by_cell = {}
    for leg in legs:
        by_cell[(leg.get("protocol"), leg.get("scenario"),
                 leg.get("loss"))] = leg
    for protocol in ARENA_PROTOCOLS:
        for scenario in ARENA_SCENARIOS:
            for loss in ARENA_LOSSES:
                if (protocol, scenario, loss) not in by_cell:
                    fail(errors, path,
                         f"matrix cell {protocol} x {scenario} x "
                         f"loss={loss} missing")
    for leg in legs:
        name = (f"{leg.get('protocol')} x {leg.get('scenario')} x "
                f"loss={leg.get('loss')}")
        if leg.get("deterministic") is not True:
            fail(errors, path,
                 f"{name}: not bit-identical across its two runs")
        if not leg.get("sent"):
            fail(errors, path, f"{name}: no traffic recorded")
        detection = leg.get("detection", {})
        gated = (isinstance(leg.get("loss"), (int, float))
                 and leg["loss"] <= ARENA_GATED_LOSS)
        if leg.get("protocol") == "swim" and \
           leg.get("scenario") == "mass_kill" and gated:
            if detection.get("completeness") != 1.0 or \
               not detection.get("events") or \
               detection.get("complete") != detection.get("events"):
                fail(errors, path,
                     f"{name}: completeness "
                     f"{detection.get('completeness')!r} "
                     f"({detection.get('complete')!r}/"
                     f"{detection.get('events')!r} events complete, "
                     "want every victim at every live observer)")
            fp = detection.get("fp_events")
            if fp_budget is not None and \
               (not isinstance(fp, int) or fp > fp_budget):
                fail(errors, path,
                     f"{name}: fp_events {fp!r} over budget {fp_budget}")
            if detection.get("fp_unresolved") != 0:
                fail(errors, path,
                     f"{name}: {detection.get('fp_unresolved')!r} "
                     "false-positive spell(s) never refuted")
        if leg.get("protocol") == "sf" and gated and \
           leg.get("scenario") in ("partition_heal", "mass_kill"):
            budget = (ARENA_SF_PARTITION_BUDGET
                      if leg["scenario"] == "partition_heal"
                      else ARENA_SF_MASS_KILL_BUDGET)
            label = ("split" if leg["scenario"] == "partition_heal"
                     else "mass-kill")
            episode = next((e for e in leg.get("episodes", [])
                            if e.get("label") == label), None)
            if episode is None:
                fail(errors, path, f"{name}: no '{label}' episode")
                continue
            if episode.get("degraded") is not True:
                fail(errors, path,
                     f"{name}: '{label}' never degraded "
                     "(fault had no effect)")
            if episode.get("recovered") is not True:
                fail(errors, path, f"{name}: '{label}' never recovered")
            rounds = episode.get("recovery_rounds")
            if not isinstance(rounds, int) or rounds > budget:
                fail(errors, path,
                     f"{name}: recovered in {rounds!r} rounds "
                     f"(budget {budget})")
            if leg.get("unrecovered") != 0:
                fail(errors, path,
                     f"{name}: {leg.get('unrecovered')!r} unrecovered "
                     "episode(s)")


CHECKS = {
    "scale_trajectory": check_scale,
    "analysis_pipeline": check_analysis,
    "telemetry": check_telemetry,
    "drift_oracle": check_drift,
    "chaos_faults": check_chaos,
    "forensics": check_forensics,
    "arena": check_arena,
}


def main(argv):
    root = argv[1] if len(argv) > 1 else "."
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"error: no BENCH_*.json baselines under {root}",
              file=sys.stderr)
        return 1
    errors = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            fail(errors, path, f"unreadable: {exc}")
            continue
        check_header(doc, path, errors)
        kind = doc.get("benchmark")
        checker = CHECKS.get(kind)
        if checker is None:
            fail(errors, path, f"unknown benchmark kind {kind!r}")
        else:
            checker(doc, path, errors)
        print(f"checked {os.path.basename(path)} ({kind})")
    if errors:
        print(f"\n{len(errors)} baseline check(s) failed:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"all {len(paths)} baselines pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
