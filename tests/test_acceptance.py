"""Acceptance suite: one test per criterion, printing a pass/fail line each.

These are the exit criteria for the package. They are heavier than the unit
tests (several multi-100k-update replays); run with ``pytest
tests/test_acceptance.py -s`` to watch the per-criterion lines appear.
"""

import io
import math
import random

import pytest

from colorbench import RandVertexColoring
from colorbench import harness, verify
from colorbench.det_coloring import DetParams
from colorbench.harness import TraceSpec, generate, make_engine, run

N = 1000
OPS = 100_000
DELTAS = (8, 32, 128)

# 12 grid combos plus 8 extra seeds: the criterion's 20 seeded traces.
C1_SPECS = [
    TraceSpec(N, d, OPS, 1000 + 17 * i, mode)
    for i, (mode, d) in enumerate(
        [(m, d) for m in harness.MODES for d in DELTAS]
    )
] + [
    TraceSpec(N, DELTAS[i % 3], OPS, 5000 + 31 * i, harness.MODES[i % 4])
    for i in range(8)
]

CSV_TRACES = 4  # per-update CSVs kept for the determinism criterion


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def c1():
    """Replay every criterion-1 trace through all four engines once.

    Returns light per-run summaries (plus captured CSVs for the first few
    traces); engines and graphs are discarded to keep memory flat.
    """
    summaries = []
    csvs = {}
    for idx, spec in enumerate(C1_SPECS):
        events = generate(spec)
        for engine_name in harness.ENGINES:
            buf = io.StringIO() if idx < CSV_TRACES else None
            res = run(
                events,
                engine_name,
                spec.n,
                spec.delta,
                seed=spec.seed,
                audit_every=1000,
                metrics_out=buf,
            )
            eng = res.engine_obj
            summaries.append(
                {
                    "trace": idx,
                    "spec": spec,
                    "engine": engine_name,
                    "exit": res.exit_code,
                    "failed": list(res.failed_checks),
                    "chain_max": res.totals.get("chain_len_max", 0),
                    "claim_checks": getattr(eng, "claim_checks", 0),
                    "recolors": res.totals.get("recolor_calls", 0),
                    "max_color": max(
                        getattr(eng, "max_color_seen", 0),
                        max(eng.chi) if hasattr(eng, "chi") else 0,
                    ),
                    "palette": getattr(eng, "palette", None),
                    "levels": eng.hier.L if isinstance(eng, RandVertexColoring) else 0,
                }
            )
            if buf is not None:
                csvs[(idx, engine_name)] = buf.getvalue()
    return {"summaries": summaries, "csvs": csvs}


def test_criterion_1_properness_all_engines(c1):
    bad = [
        (s["trace"], s["engine"], s["failed"])
        for s in c1["summaries"]
        if s["exit"] != 0
    ]
    _line(
        1,
        not bad,
        f"oracle audits clean on {len(c1['summaries'])} runs "
        f"(20 traces x 4 engines, n={N}, {OPS} ops)" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_2_hierarchy_invariants_every_update():
    worst = None
    for beta in (2, 4, 21):
        spec = TraceSpec(200, 32, 10_000, 60 + beta, "uniform-random")
        events = generate(spec)
        g, eng = make_engine("rand-vc", 200, 32, seed=beta, beta=beta)
        for i, ev in enumerate(events, start=1):
            g.apply(ev)
            report, _ = verify.recount_band_invariants(g, eng.hier)
            if not report.passed:
                worst = (beta, i, report.violations[:3])
                break
            if i % 1000 == 0:
                assert verify.check_hierarchy(g, eng.hier).passed
        if worst:
            break
    _line(
        2,
        worst is None,
        "band invariants recounted after each of 10k updates, beta in {2,4,21}: "
        + ("zero violations" if worst is None else str(worst)),
    )


def test_criterion_3_blank_unique_floor(c1):
    # Part 1: the floor was asserted inside every RECOLOR of the criterion-1
    # runs (the engine raises on violation, which would have failed audits).
    rand_runs = [s for s in c1["summaries"] if s["engine"] == "rand-vc"]
    checks = sum(s["claim_checks"] for s in rand_runs)
    recolors = sum(s["recolors"] for s in rand_runs)
    ok = checks >= recolors > 0

    # Part 2: exact agreement with the brute-force classification on 500
    # sampled vertices of random small graphs.
    rng = random.Random(303)
    samples = 0
    while samples < 500:
        n = rng.randrange(5, 51)
        delta = rng.choice((4, 8, 16))
        g, eng = make_engine("rand-vc", n, delta, seed=samples, beta=2)
        for ev in generate(TraceSpec(n, delta, 400, samples, "uniform-random")):
            g.apply(ev)
        for _ in range(min(25, n)):
            v = rng.randrange(n)
            blank, unique, rest = verify.brute_blank_unique(
                g, eng.chi, eng.hier, v, eng.palette
            )
            view = eng.blank_unique(v)
            ok = ok and (
                set(view.blank) == blank
                and set(view.unique) == unique
                and set(view.twice_plus) == rest
                and 2 * (len(blank) + len(unique)) >= 2 + eng.hier.below_degree(v)
            )
            samples += 1
    _line(
        3,
        ok,
        f"floor asserted at all {checks} recolor draws; brute-force classification "
        f"agrees on {samples} sampled vertices",
    )


def test_criterion_4_randomized_palette_and_chains(c1):
    rand_runs = [s for s in c1["summaries"] if s["engine"] == "rand-vc"]
    ok = all(s["max_color"] <= s["palette"] for s in rand_runs)
    ok = ok and all(s["chain_max"] <= s["levels"] - 3 for s in rand_runs)

    # Adaptive palettes: every vertex within degree+1 after every update.
    for mode in ("uniform-random", "sliding-window"):
        spec = TraceSpec(200, None, 10_000, 71, mode)
        events = generate(spec)
        g, eng = make_engine("rand-vc", 200, None, seed=7)
        chi = eng.chi
        adj = g._adj
        for ev in events:
            g.apply(ev)
            if not all(chi[v] <= len(adj[v]) + 1 for v in range(200)):
                ok = False
                break
    _line(
        4,
        ok,
        "colors within delta+1 (fixed) and degree+1 after every adaptive update; "
        "chains within the level range",
    )


def test_criterion_5_det_invariant_and_iteration_bounds():
    ok = True
    detail = []
    for delta, mode in ((32, "uniform-random"), (128, "conflict-heavy")):
        spec = TraceSpec(200, delta, 10_000, 80 + delta, mode)
        events = generate(spec)
        g, eng = make_engine("det-vc", 200, delta)
        L = eng.params.levels
        allowed = eng.params.max_allowed
        nstar = eng.nstar
        prev_phi = 0
        for ev in events:
            r = g.apply(ev)
            # Invariant 3 audited after every update
            for v in range(200):
                nv = nstar[v * (L + 1) : (v + 1) * (L + 1)]
                if any(len(nv[j]) > allowed[j] for j in range(L + 1)):
                    ok = False
            # structural potential step within the update footprint
            if abs(r.stats["phi_before"] - prev_phi) > 2 * (L + 1):
                ok = False
            prev_phi = r.stats["phi_after"]
        ok = ok and eng.fix_iterations_total > 0
        ok = ok and eng.pair_count_violations == 0
        ok = ok and eng.drop_bound_violations == 0
        ok = ok and eng.argmin_bound_violations == 0
        ok = ok and eng.flip_budget_violations == 0
        ok = ok and verify.check_tuple_state(g, eng).passed
        detail.append(f"delta={delta}: {eng.fix_iterations_total} repair iterations")
    _line(
        5,
        ok,
        "class-size bound after every update; pair-count, potential-drop and "
        "argmin guarantees on 100% of iterations (" + "; ".join(detail) + ")",
    )


def test_criterion_6_parameter_checks_exact():
    ok = True
    lines = []
    for delta in (2**8, 2**12, 2**16, 2**20):
        p = DetParams.compute(delta)
        lam, L = p.radix, p.levels
        ok = ok and math.log2(delta) <= lam
        ok = ok and lam**L <= p.eta * delta <= (lam + 1) ** L
        ok = ok and delta * (lam + 1) ** L < (lam * (lam - 1)) ** L  # exact ints
        lines.append(f"2^{delta.bit_length()-1}: L={L} lam={lam}")
    _line(6, ok, "parameter inequalities hold exactly (" + ", ".join(lines) + ")")


def test_criterion_7_edge_coloring_worst_case():
    delta = 1024
    bound = 8 * math.ceil(math.log2(2 * delta))
    events = generate(TraceSpec(N, delta, OPS, 777, "uniform-random"))
    g, eng = make_engine("edge-c", N, delta)
    worst = 0
    for ev in events:
        worst = max(worst, g.apply(ev).stats["tree_visits"])
    ok = worst <= bound
    ok = ok and eng.invariant_checks > 0 and eng.invariant_failures == 0
    ok = ok and eng.max_color_seen <= 2 * delta - 1
    ok = ok and verify.check_edge_coloring(g, eng.palette)[0].passed

    # adaptive palettes under heavy deletion churn
    res = run(
        generate(TraceSpec(N, None, OPS, 778, "sliding-window")),
        "edge-c",
        N,
        None,
        audit_every=1000,
    )
    ok = ok and res.exit_code == 0
    _line(
        7,
        ok,
        f"worst tree visits {worst} <= {bound}; 0 of {eng.invariant_checks} search "
        f"invariant checks failed; palettes within bounds (fixed and adaptive)",
    )


def test_criterion_8_amortized_trend():
    means = {}
    for delta in (8, 32, 128, 512):
        events = generate(TraceSpec(N, delta, OPS, 300 + delta, "uniform-random"))
        res = run(events, "rand-vc", N, delta, seed=42, audit_every=0)
        means[delta] = res.totals["cum_cells_touched"] / OPS
    ds = sorted(means)
    ratios = [means[b] / means[a] for a, b in zip(ds, ds[1:])]
    ok = all(r <= 2.5 for r in ratios)
    _line(
        8,
        ok,
        "mean cells/update "
        + ", ".join(f"delta={d}: {means[d]:.2f}" for d in ds)
        + "; successive ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " all <= 2.5",
    )


def test_criterion_9_determinism(c1):
    mismatches = []
    for (idx, engine_name), first in sorted(c1["csvs"].items()):
        spec = C1_SPECS[idx]
        events = generate(spec)
        buf = io.StringIO()
        run(
            events,
            engine_name,
            spec.n,
            spec.delta,
            seed=spec.seed,
            audit_every=1000,
            metrics_out=buf,
        )
        if buf.getvalue() != first:
            mismatches.append((idx, engine_name))
    _line(
        9,
        not mismatches,
        f"{len(c1['csvs'])} rerun metrics CSVs byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_10_oracle_self_tests():
    ok = True
    # range_count versus naive sums, exhaustively for small palettes
    for delta in range(1, 17):
        n = 20
        g, eng = make_engine("edge-c", n, delta, seed=delta)
        for ev in generate(TraceSpec(n, delta, 400, delta, "uniform-random")):
            g.apply(ev)
        for v in range(0, n, 5):
            held = set(g._adj[v].values())
            for a in range(1, 2 * delta + 1):
                acc = 0
                for b in range(a, 2 * delta + 1):
                    ok = ok and eng.range_count(v, a, b) == acc
                    acc += 1 if b in held else 0

    # state rebuild equivalence after 10^4 random updates, exact
    g, eng = make_engine("rand-vc", 300, 16, seed=5, beta=2)
    for ev in generate(TraceSpec(300, 16, 10_000, 90, "uniform-random")):
        g.apply(ev)
    ok = ok and verify.rebuild_upper_color_counts(g, eng.hier, eng.chi) == eng.mu
    ok = ok and verify.check_hierarchy(g, eng.hier).passed

    g, eng = make_engine("det-vc", 300, 16, seed=6)
    for ev in generate(TraceSpec(300, 16, 10_000, 91, "uniform-random")):
        g.apply(ev)
    ok = ok and verify.check_tuple_state(g, eng).passed
    _line(
        10,
        ok,
        "tree range counts match naive sums exhaustively (delta <= 16); "
        "color tables and prefix classes match full rebuilds after 10k updates",
    )
