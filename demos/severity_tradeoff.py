# Why a mistakes-only severity mean can reward a strictly worse model.
#
# Two models score the same 20 samples. Model B makes every mistake
# model A makes, plus five more. Averaging severity over mistakes only,
# B looks better, because its extra mistakes are mild siblings that
# drag the mean down. Averaging over all samples keeps the ordering
# honest. metric_flaw_check tells you, before aggregating, whether a
# batch of extra mistakes will flip the mistakes-only mean this way.

import numpy as np

from hier_risk import (PredictionSet, batch_apply, evaluate,
                       metric_flaw_check, parse_taxonomy)

EDGES = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"


def ranked_towards(winners, K):
    rows = np.full((len(winners), K), 0.1 / (K - 1))
    rows[np.arange(len(winners)), winners] = 0.9
    preds = PredictionSet(rows, np.zeros(len(winners), dtype=np.int64),
                          ["a", "b", "c", "d"])
    return batch_apply(preds, None, "likelihood")


def main():
    tax = parse_taxonomy(EDGES)
    truth = np.zeros(20, dtype=np.int64)   # every sample is class a

    # A: 15 correct, 5 cross-branch mistakes (severity 2 each).
    # B: the same, plus 5 sibling mistakes (severity 1 each).
    model_a = ranked_towards([0] * 15 + [2] * 5, 4)
    model_b = ranked_towards([0] * 10 + [2] * 5 + [1] * 5, 4)

    for name, model in (("A", model_a), ("B", model_b)):
        r = evaluate(model, truth, tax)
        print(f"model {name}: {r.n_mistakes:>2} mistakes, severity over "
              f"mistakes {r.severity_over_mistakes:.2f}, over all samples "
              f"{r.severity_over_all:.2f}")

    print()
    print("B is strictly worse yet its mistakes-only mean is lower.")
    ok = metric_flaw_check(d_h=10, m=5, d_l=5, n=5)
    print(f"metric_flaw_check(10, 5, 5, 5) = {ok}: adding the five")
    print("severity-1 mistakes cannot raise the mistakes-only mean, so a")
    print("drop in that metric alone never certifies an improvement.")


if __name__ == "__main__":
    main()
