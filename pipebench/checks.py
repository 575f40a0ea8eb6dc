"""Correctness checks on each stage's output, made apart from the program.

Every check returns a list of problems; an empty list means the output
passed. None of them calls into `dinctr`: AUC and GAUC are recomputed by
counting pairs, the rank order is re-derived from p*bid, and the click
rate is held against the generator's own probabilities.
"""

from __future__ import annotations

import math

import numpy as np

COMPARE_METRICS = ("auc", "gauc_impressions", "gauc_clicks", "log_loss", "accuracy")
CLAIM_MARGIN = 0.01  # din GAUC must beat base by this much (the acceptance suite's threshold)
CLAIM_FLOOR = 0.60  # and exceed this absolute value
CTR_SIGMAS = 5.0  # binomial bound on empirical vs. expected click rate
METRIC_TOL = 1e-9  # recomputed AUC/GAUC vs. the report (only summation order differs)
P_REL_TOL = 1e-9  # rank p vs. predict p for the same impression (batch shape differs)


def pair_auc(scores, labels) -> float | None:
    """(concordant + 0.5 * tied) / (#pos * #neg) by counting every pair.

    None when one class is missing (the AUC is undefined there).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = ties = 0
    step = max(1, 4_000_000 // neg.size)
    for i in range(0, pos.size, step):
        diff = pos[i : i + step, None] - neg[None, :]
        wins += int(np.count_nonzero(diff > 0))
        ties += int(np.count_nonzero(diff == 0))
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def pair_gauc(scores, labels, groups) -> tuple[float, int, int]:
    """Impression-weighted mean of per-group pair-counted AUCs.

    Groups with a single class are skipped. Returns (value, used, skipped).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    members: dict = {}
    for i, g in enumerate(groups):
        members.setdefault(g, []).append(i)
    total = weighted = 0.0
    used = skipped = 0
    for idx in members.values():
        a = pair_auc(s[idx], y[idx])
        if a is None:
            skipped += 1
            continue
        used += 1
        total += len(idx)
        weighted += len(idx) * a
    if used == 0:
        return math.nan, used, skipped
    return weighted / total, used, skipped


def check_generate(summary: dict, labels, true_probs, impressions: int) -> list[str]:
    """Record count matches the config; click rate within a binomial bound."""
    problems = []
    if summary.get("n_records") != impressions:
        problems.append(f"generate reports {summary.get('n_records')} records, config asks {impressions}")
    if len(labels) != impressions:
        problems.append(f"dataset holds {len(labels)} records, config asks {impressions}")
    if len(true_probs) != len(labels):
        problems.append(f"metadata holds {len(true_probs)} probabilities for {len(labels)} records")
        return problems
    p = np.asarray(true_probs, dtype=np.float64)
    ctr = float(np.mean(labels))
    sd = math.sqrt(float(np.sum(p * (1.0 - p)))) / p.size
    if abs(ctr - float(p.mean())) > CTR_SIGMAS * sd:
        problems.append(f"click rate {ctr:.4f} is off the generator's mean p {p.mean():.4f} by more than {CTR_SIGMAS} sd")
    return problems


def check_train(summary: dict, epochs: int) -> list[str]:
    problems = []
    if summary.get("epochs_run") != epochs:
        problems.append(f"train ran {summary.get('epochs_run')} epochs, config asks {epochs}")
    for key in ("final_train_loss", "final_val_loss", "final_val_gauc"):
        v = summary.get(key)
        if not isinstance(v, float) or not math.isfinite(v):
            problems.append(f"train {key} is {v!r}")
    return problems


def check_eval(report: dict, val_p, val_labels, val_users) -> list[str]:
    """AUC and impression-weighted GAUC recomputed from predict's p."""
    problems = []
    if report.get("n_records") != len(val_labels):
        problems.append(f"eval scored {report.get('n_records')} records, validation holds {len(val_labels)}")
        return problems
    a = pair_auc(val_p, val_labels)
    if a is None or not abs(a - report["auc"]) <= METRIC_TOL:
        problems.append(f"eval auc {report['auc']!r} != pair-counted {a!r}")
    g, used, skipped = pair_gauc(val_p, val_labels, val_users)
    rg = report["gauc_impressions"]
    if not abs(g - rg["value"]) <= METRIC_TOL:
        problems.append(f"eval gauc {rg['value']!r} != pair-counted {g!r}")
    if (rg["n_groups_used"], rg["n_groups_skipped"]) != (used, skipped):
        problems.append(f"eval groups used/skipped {rg['n_groups_used']}/{rg['n_groups_skipped']} != {used}/{skipped}")
    return problems


def parse_compare(text: str) -> dict[str, dict[str, float]]:
    """The `eval --compare` CSV as {column: {metric: value}}."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    header = rows[0][1:]
    return {col: {row[0]: float(row[1 + j]) for row in rows[1:]} for j, col in enumerate(header)}


def report_value(report: dict, metric: str) -> float:
    v = report[metric]
    return v["value"] if isinstance(v, dict) else v


def check_compare(text: str, report: dict, claim: bool) -> list[str]:
    """The din column equals the single eval; optionally the paper's margin."""
    try:
        table = parse_compare(text)
    except (IndexError, ValueError) as exc:
        return [f"compare output is not a metric table: {exc}"]
    if set(table) != {"din", "base"}:
        return [f"compare columns {sorted(table)} != ['base', 'din']"]
    problems = []
    for metric in COMPARE_METRICS:
        got, want = table["din"].get(metric), report_value(report, metric)
        if got != want:
            problems.append(f"compare din {metric} {got!r} != eval {want!r}")
    if claim and not problems:
        din, base = table["din"]["gauc_impressions"], table["base"]["gauc_impressions"]
        if not (din - base >= CLAIM_MARGIN and din > CLAIM_FLOOR):
            problems.append(f"din GAUC {din:.4f} vs base {base:.4f}: margin < {CLAIM_MARGIN} or din <= {CLAIM_FLOOR}")
    return problems


def check_predict(inputs: list[dict], outputs: list[dict]) -> list[str]:
    """One finite p in (0, 1) per input line, in input order."""
    if len(outputs) != len(inputs):
        return [f"predict wrote {len(outputs)} lines for {len(inputs)} inputs"]
    for i, (rec, out) in enumerate(zip(inputs, outputs)):
        if (out.get("user_id"), out.get("ad_id")) != (rec["user_id"], rec["ad_id"]):
            return [f"predict line {i + 1} is for {out.get('user_id')}/{out.get('ad_id')}, input has {rec['user_id']}/{rec['ad_id']}"]
        p = out.get("p")
        if not isinstance(p, float) or not (0.0 < p < 1.0):
            return [f"predict line {i + 1}: p = {p!r} is not a finite probability in (0, 1)"]
    return []


def check_rank(candidates: list[dict], ranked: list[dict], predict_p: dict[str, float]) -> list[str]:
    """A permutation of the candidates, sorted by p*bid desc then ad_id asc,
    with ecpm = p*bid and each p equal to predict's p for the same impression."""
    bids = {c["ad_id"]: c["bid"] for c in candidates}
    if sorted(r.get("ad_id") for r in ranked) != sorted(bids):
        return ["rank output is not a permutation of the candidates"]
    prev = None
    for i, r in enumerate(ranked):
        ad, p, bid, ecpm = r["ad_id"], r.get("p"), r.get("bid"), r.get("ecpm")
        if not all(isinstance(v, float) and math.isfinite(v) for v in (p, bid, ecpm)):
            return [f"rank line {i + 1}: non-finite or missing p/bid/ecpm"]
        if bid != bids[ad]:
            return [f"rank line {i + 1}: bid {bid!r} != candidate bid {bids[ad]!r}"]
        if ecpm != p * bid:
            return [f"rank line {i + 1}: ecpm {ecpm!r} != p*bid {p * bid!r}"]
        if not math.isclose(p, predict_p[ad], rel_tol=P_REL_TOL, abs_tol=0.0):
            return [f"rank line {i + 1}: p {p!r} != predict p {predict_p[ad]!r} for {ad}"]
        if prev is not None and (ecpm > prev[0] or (ecpm == prev[0] and ad <= prev[1])):
            return [f"rank line {i + 1}: ({ad}, ecpm {ecpm!r}) is out of order after {prev[1]}"]
        prev = (ecpm, ad)
    return []
