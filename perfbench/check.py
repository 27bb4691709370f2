#!/usr/bin/env python3
"""Check a benchmark run's artifacts against references computed here.

    python3 perfbench/check.py MANIFEST.json RESULT.json

MANIFEST.json (written by run.py) names the input files and one artifact
per op. The references share no code with the package: the hierarchy
and prediction files are parsed here, LCA heights come from ancestor
paths, risks from a dense ``P @ C`` product, rankings from a stable
argsort, and metrics from gathers into the LCA table. ``hier_risk`` is
imported only to prove the reports round-trip through its loaders.

Integer fields (``n_mistakes``, the severity histogram, cost matrix
entries) must match exactly and float fields within ``FLOAT_RTOL`` /
``FLOAT_ATOL``, except where near-ties allow otherwise. The dense
product sums in a different order than the package's kernel, so two
risks closer than ``TIE_TOL`` may rank either way. A row is ambiguous at
a ranking boundary (top-1, or top-k for each requested k) when a group
of risks within ``TIE_TOL`` of each other straddles the boundary and its
classes differ in LCA height to the truth. Each ambiguous row widens the
tolerance of the affected fields by the most one row can move them: one
count for integer fields, H/N for top-1 means, H/(k*N) per swapped class
for distance@k (H is the tree height), 2/N for ECE. MCE is not compared
when any row is ambiguous. Likelihood rankings use the exact validated
probabilities, so they never have ambiguous rows. The ambiguous counts
are reported under ``notes``.

RESULT.json gets ``{"ok": {op: bool}, "errors": {op: msg}, "notes":
{...}, "env": {"numpy": ..., "blas": ...}}``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from hier_risk.dataio import (calibration_report_to_json,
                              load_calibration_report, load_metrics_report,
                              metrics_report_to_json)

FLOAT_RTOL = 1e-12
FLOAT_ATOL = 1e-12
TIE_TOL = 1e-9            # absolute; risks are at most the tree height
PROB_FLOOR = 1e-12        # calibration's documented log floor
BINS = 15                 # the calibrate subcommand's default
LOG_T_STEP = 2e-3         # well above the fit's 1e-4 bracket in log T
LOG_T_BRACKET = math.log(64.0)


class Mismatch(Exception):
    pass


# ---------------------------------------------------------------- inputs

def read_hierarchy(path):
    """Leaf names in class order, the K x K LCA-height table, tree height."""
    parent: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            child, par = line.split("\t")
            parent[child] = par
    nodes = set(parent) | set(parent.values())
    leaves = sorted(nodes - set(parent.values()))
    paths = []
    for leaf in leaves:
        path = [leaf]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        paths.append(path[::-1])
    height = {n: 0 for n in nodes}
    for path in paths:
        for up, node in enumerate(reversed(path)):
            height[node] = max(height[node], up)
    names = sorted(nodes)
    index = {n: i for i, n in enumerate(names)}
    depth = max(len(p) for p in paths)
    K = len(leaves)
    anc = np.full((K, depth), -1, dtype=np.int64)
    for i, path in enumerate(paths):
        anc[i, :len(path)] = [index[n] for n in path]
    same = np.logical_and.accumulate(anc[:, None, :] == anc[None, :, :],
                                     axis=2)
    shared = same.sum(axis=2)
    node_h = np.array([height[n] for n in names], dtype=np.int64)
    lca_node = anc[np.arange(K)[:, None], np.minimum(shared, depth) - 1]
    lca = node_h[lca_node]
    np.fill_diagonal(lca, 0)
    return leaves, lca, int(node_h.max())


def read_predictions(path, leaves):
    """Validated (N, K) probabilities in class order and truth indices.

    Rows whose sum is not exactly 1.0 are divided by it, the documented
    validation rule the package applies at load.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[1].split(",")
    if header[0] != "truth" or sorted(header[1:]) != leaves:
        raise Mismatch(f"{path}: header does not match the hierarchy")
    col = {n: i for i, n in enumerate(leaves)}
    rows = [l.split(",") for l in lines[2:]]
    truth = np.array([col[r[0]] for r in rows], dtype=np.int64)
    raw = np.array([r[1:] for r in rows], dtype=np.float64)
    P = np.empty_like(raw)
    P[:, [col[n] for n in header[1:]]] = raw
    sums = P.sum(axis=1)
    fix = sums != 1.0
    P[fix] /= sums[fix, None]
    return P, truth


def shuffled_lca(lca, seed):
    """LCA table after the documented leaf shuffle: Fisher-Yates over
    positions with PCG64(seed), t = K-1 down to 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = list(range(lca.shape[0]))
    for t in range(len(perm) - 1, 0, -1):
        j = int(rng.integers(0, t + 1))
        perm[t], perm[j] = perm[j], perm[t]
    pos = np.argsort(perm)
    return lca[np.ix_(pos, pos)]


# -------------------------------------------------------------- rankings

def rank(P, lca, basis):
    """Stable ranking per row and its sorted scores (risks, or None)."""
    if basis == "likelihood":
        return np.argsort(-P, axis=1, kind="stable"), None
    R = P @ lca.astype(np.float64)
    order = np.argsort(R, axis=1, kind="stable")
    return order, np.take_along_axis(R, order, axis=1)


def near_ties(ranked, keys, b):
    """Per row, how many classes a near-tie can swap across boundary b
    (0 when the tied classes all share the same key)."""
    swaps = np.zeros(ranked.shape[0], dtype=np.int64)
    if b >= ranked.shape[1]:
        return swaps
    lo, hi = ranked[:, b - 1], ranked[:, b]
    for r in np.nonzero(hi - lo <= TIE_TOL)[0]:
        group = ((ranked[r] >= lo[r] - TIE_TOL)
                 & (ranked[r] <= hi[r] + TIE_TOL))
        if len(set(keys[r][group].tolist())) > 1:
            inside = int(group[:b].sum())
            swaps[r] = min(inside, int(group.sum()) - inside)
    return swaps


def reference_report(P, truth, lca, height, basis, ks):
    N, K = P.shape
    order, ranked = rank(P, lca, basis)
    D = lca[truth[:, None], order]
    sev = D[:, 0]
    mask = sev > 0
    ties = {b: (near_ties(ranked, D, b) if ranked is not None
                else np.zeros(N, np.int64)) for b in sorted({1, *ks})}
    return {
        "top1_error": float(np.mean(order[:, 0] != truth)),
        "distance_at_k": {k: float(np.mean(D[:, :k].sum(axis=1) / k))
                          for k in ks},
        "severity_over_mistakes": (float(sev[mask].mean()) if mask.any()
                                   else None),
        "severity_over_all": float(sev.mean()),
        "n_mistakes": int(mask.sum()),
        "histogram": {h: int(c) for h, c in enumerate(
            np.bincount(sev[mask], minlength=height + 1)) if h >= 1},
        "ties": {b: int(s.sum()) for b, s in ties.items()},
        "ambiguous_rows": {b: int((s > 0).sum()) for b, s in ties.items()},
    }


def close(got, want, slack=0.0) -> bool:
    return abs(got - want) <= slack + FLOAT_ATOL + FLOAT_RTOL * abs(want)


def compare_report(rep, ref, N, height, what):
    a = ref["ties"][1]
    checks = [
        ("n_mistakes", abs(rep.n_mistakes - ref["n_mistakes"]) <= a),
        ("histogram keys", sorted(rep.histogram) == sorted(ref["histogram"])),
        ("top1_error", close(rep.top1_error, ref["top1_error"], a / N)),
        ("severity_over_all", close(rep.severity_over_all,
                                    ref["severity_over_all"],
                                    a * height / N)),
        ("distance_at_k keys",
         sorted(rep.distance_at_k) == sorted(ref["distance_at_k"])),
    ]
    if sorted(rep.histogram) == sorted(ref["histogram"]):
        checks.append(("histogram", all(
            abs(rep.histogram[h] - ref["histogram"][h]) <= a
            for h in ref["histogram"])))
    if sorted(rep.distance_at_k) == sorted(ref["distance_at_k"]):
        for k, want in ref["distance_at_k"].items():
            slack = ref["ties"][k] * height / (k * N)
            checks.append((f"distance_at_k[{k}]",
                           close(rep.distance_at_k[k], want, slack)))
    som, want = rep.severity_over_mistakes, ref["severity_over_mistakes"]
    if a == 0:
        checks.append(("severity_over_mistakes",
                       (som is None and want is None) or (
                           som is not None and want is not None
                           and close(som, want))))
    elif want is not None and ref["n_mistakes"] > a:
        checks.append(("severity_over_mistakes", som is not None and close(
            som, want, 2 * a * height / (ref["n_mistakes"] - a))))
    bad = [name for name, ok in checks if not ok]
    if bad:
        raise Mismatch(f"{what}: {', '.join(bad)} differ from the reference")


# ------------------------------------------------------------- artifacts

def check_build_costs(path, leaves, lca):
    lines = Path(path).read_text(encoding="utf-8").rstrip("\n").split("\n")
    if lines[0].split(",") != ["", *leaves]:
        raise Mismatch("header differs from the hierarchy's classes")
    rows = [l.split(",") for l in lines[1:]]
    if [r[0] for r in rows] != leaves:
        raise Mismatch("row labels differ from the hierarchy's classes")
    got = np.array([r[1:] for r in rows], dtype=np.int64)
    if got.shape != lca.shape or not np.array_equal(got, lca):
        raise Mismatch("cost entries differ from the reference LCA table")


def check_eval(path, inputs, basis, ks, notes):
    rep = load_metrics_report(path)
    if metrics_report_to_json(rep) != Path(path).read_text(encoding="utf-8"):
        raise Mismatch("report does not round-trip byte for byte")
    P, truth, lca, height = inputs()
    ref = reference_report(P, truth, lca, height, basis, ks)
    notes["eval.ambiguous_rows"] = ref["ambiguous_rows"]
    compare_report(rep, ref, P.shape[0], height, "eval")


def check_shuffle_eval(path, inputs, ks, seed, workdir, notes):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    P, truth, lca, height = inputs()
    tables = {"original": lca, "shuffled": shuffled_lca(lca, seed)}
    if sorted(doc) != ["crm", "likelihood"]:
        raise Mismatch("top-level keys must be crm and likelihood")
    for basis, sub in doc.items():
        if sorted(sub) != ["original", "shuffled"]:
            raise Mismatch(f"{basis}: keys must be original and shuffled")
        for tree, body in sub.items():
            part = Path(workdir) / f"shuffle-{basis}-{tree}.json"
            part.write_text(json.dumps(body))
            rep = load_metrics_report(part)
            ref = reference_report(P, truth, tables[tree], height, basis, ks)
            notes[f"shuffle-eval.{basis}.{tree}.ambiguous_rows"] = \
                ref["ambiguous_rows"]
            compare_report(rep, ref, P.shape[0], height,
                           f"{basis}/{tree}")


def mean_nll(P, truth, T):
    z = np.log(np.maximum(P, PROB_FLOOR)) / T
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), truth]))


def calibration_bins(P, truth, top):
    n = P.shape[0]
    conf = P[np.arange(n), top]
    correct = (top == truth).astype(np.float64)
    idx = np.clip(np.ceil(conf * BINS).astype(np.int64) - 1, 0, BINS - 1)
    counts = np.bincount(idx, minlength=BINS)
    csum = np.bincount(idx, weights=conf, minlength=BINS)
    hits = np.bincount(idx, weights=correct, minlength=BINS)
    nz = counts > 0
    gap = np.zeros(BINS)
    gap[nz] = np.abs(hits[nz] / counts[nz] - csum[nz] / counts[nz])
    return float(np.sum(counts / n * gap)), float(gap[nz].max())


def crm_top1(P, truth, lca):
    order, ranked = rank(P, lca, "crm")
    top = order[:, 0]
    # A near-tie at top-1 matters when it changes confidence or outcome.
    key = P[np.arange(P.shape[0])[:, None], order] + 2.0 * (
        order == truth[:, None])
    return top, int((near_ties(ranked, key, 1) > 0).sum())


def check_calibrate(path, inputs, val_path, notes):
    rep = load_calibration_report(path)
    if (calibration_report_to_json(rep)
            != Path(path).read_text(encoding="utf-8")):
        raise Mismatch("report does not round-trip byte for byte")
    if rep.confidence_source != "crm-selected":
        raise Mismatch(f"confidence source {rep.confidence_source!r}")
    P, truth, lca, _ = inputs()
    leaves = inputs.leaves
    V, vtruth = read_predictions(val_path, leaves)
    T = rep.temperature
    if not abs(math.log(T)) <= LOG_T_BRACKET + 1e-12:
        raise Mismatch(f"temperature {T} outside [1/64, 64]")
    nll = mean_nll(V, vtruth, T)
    if T != 1.0:
        nearby = [mean_nll(V, vtruth, T * math.exp(s))
                  for s in (-LOG_T_STEP, LOG_T_STEP)]
        if not (nll <= min(nearby) and nll < mean_nll(V, vtruth, 1.0)):
            raise Mismatch(f"temperature {T} is not a validation NLL "
                           "minimum")
    notes["calibrate.temperature"] = T
    z = np.log(np.maximum(P, PROB_FLOOR)) / T
    e = np.exp(z - z.max(axis=1, keepdims=True))
    post = e / e.sum(axis=1, keepdims=True)
    sums = post.sum(axis=1)
    fix = sums != 1.0
    post[fix] /= sums[fix, None]
    n = P.shape[0]
    for tag, probs, got_ece, got_mce in (
            ("pre", P, rep.ece_pre, rep.mce_pre),
            ("post", post, rep.ece_post, rep.mce_post)):
        top, amb = crm_top1(probs, truth, lca)
        ref_ece, ref_mce = calibration_bins(probs, truth, top)
        notes[f"calibrate.{tag}.ambiguous_rows"] = amb
        if not close(got_ece, ref_ece, 2 * amb / n):
            raise Mismatch(f"ece_{tag} {got_ece!r} vs reference {ref_ece!r}")
        if amb == 0 and not close(got_mce, ref_mce):
            raise Mismatch(f"mce_{tag} {got_mce!r} vs reference {ref_mce!r}")


class Inputs:
    """Parses the hierarchy and test predictions once, on first use."""

    def __init__(self, hierarchy, predictions):
        self.leaves, self.lca, self.height = read_hierarchy(hierarchy)
        self.predictions = predictions
        self._P = None

    def __call__(self):
        if self._P is None:
            self._P = read_predictions(self.predictions, self.leaves)
        return (*self._P, self.lca, self.height)


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy too old to report its build
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text())
    inputs = Inputs(manifest["hierarchy"], manifest["predictions"])
    ks = manifest["k"]
    ok, errors, notes = {}, {}, {}
    for op, path in manifest["artifacts"].items():
        try:
            if op == "build-costs":
                check_build_costs(path, inputs.leaves, inputs.lca)
            elif op == "eval":
                check_eval(path, inputs, manifest["basis"], ks, notes)
            elif op == "shuffle-eval":
                check_shuffle_eval(path, inputs, ks, manifest["shuffle_seed"],
                                   manifest["workdir"], notes)
            elif op == "calibrate":
                check_calibrate(path, inputs, manifest["val_predictions"],
                                notes)
            else:
                raise Mismatch(f"no check for op {op!r}")
            ok[op] = True
        except Exception as e:  # any failure fails this artifact only
            ok[op] = False
            errors[op] = f"{type(e).__name__}: {e}"
    Path(sys.argv[2]).write_text(json.dumps(
        {"ok": ok, "errors": errors, "notes": notes, "env": versions()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
