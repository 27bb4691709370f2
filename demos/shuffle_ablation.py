# Shuffling which class sits on which leaf keeps the tree's shape and
# destroys its meaning. This script builds a model whose confusions
# really are tree-shaped (when it errs, it errs toward the sibling),
# then scores it against the true tree and a shuffled one.

import numpy as np

from hier_risk import (PredictionSet, SynthConfig, full_report,
                       gen_taxonomy, shuffle_leaves)

K = 16
N = 20_000


def sibling_confused_model(tax, seed):
    # 45% of the mass on the truth, 30% on its sibling, the rest is
    # Dirichlet noise. Balanced-binary leaves pair up as (0,1), (2,3),
    # and so on, so the sibling of class t is t xor 1.
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = rng.integers(0, K, size=N)
    rows = rng.dirichlet(np.full(K, 0.2), size=N) * 0.25
    rows[np.arange(N), truth] += 0.45
    rows[np.arange(N), truth ^ 1] += 0.30
    rows /= rows.sum(axis=1, keepdims=True)
    names = tax.class_names
    return PredictionSet(rows, truth.astype(np.int64), names)


def main():
    tax = gen_taxonomy(SynthConfig(seed=42, K=K, N=0,
                                   tree_mode="balanced-binary"))
    preds = sibling_confused_model(tax, seed=5)
    shuffled = shuffle_leaves(tax, seed=0)

    header = f"{'tree':<10} {'basis':<12} {'top1 err':>9} {'severity':>9} {'d@5':>8}"
    print(header)
    for tree_name, tree in (("original", tax), ("shuffled", shuffled)):
        for basis in ("likelihood", "crm"):
            r = full_report(preds, tree, basis, (1, 5))
            sev = r.severity_over_mistakes
            print(f"{tree_name:<10} {basis:<12} {r.top1_error:>9.4f}"
                  f" {sev:>9.3f} {r.distance_at_k[5]:>8.4f}")

    print()
    print("Three things to notice. The likelihood ranking never looks at")
    print("the tree, so its top-1 error is identical on both rows, but")
    print("its measured mistake severity jumps from 1.0 (every mistake a")
    print("sibling) to well over 3 once the labels are scrambled. On the")
    print("true tree the expected-cost ranking cuts distance@5 sharply")
    print("without giving up any top-1 accuracy. On the shuffled tree it")
    print("starts trading correct answers for its hedge, because the")
    print("costs no longer point at the classes this model confuses.")


if __name__ == "__main__":
    main()
