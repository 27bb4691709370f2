"""Walk through one re-ranking decision on a four-class pet taxonomy.

The likelihood vector below is deliberately split: the single most
likely class is a dog, but the two cat breeds together carry more mass.
Picking the argmax risks a worst-case mistake (wrong branch, cost 2),
while the expected-cost pick hedges toward the heavier branch.
"""

import numpy as np

from hier_risk import (build_cost_matrix, conditional_risk, crm_rerank,
                       likelihood_rank, parse_taxonomy)

EDGES = """\
husky\tdog
labrador\tdog
siamese\tcat
tabby\tcat
dog\tpet
cat\tpet
"""


def show(title, perm, names, scores):
    # scores are indexed by class, the permutation says which to read
    order = ", ".join(f"{names[k]} ({scores[k]:.3f})" for k in perm)
    print(f"{title}: {order}")


def main():
    tax = parse_taxonomy(EDGES)
    names = tax.class_names
    C = build_cost_matrix(tax)

    print("leaves:", ", ".join(names))
    print("pairwise confusion costs:")
    for i, row in enumerate(C.entries):
        print(f"  {names[i]:<9}", " ".join(str(int(v)) for v in row))

    p = np.array([0.36, 0.08, 0.29, 0.27])
    print("\nlikelihoods:   ",
          {n: float(v) for n, v in zip(names, p)})
    print("expected costs:",
          {n: round(float(r), 3) for n, r in zip(names, conditional_risk(p, C))})

    lik = likelihood_rank(p)
    crm = crm_rerank(p, C)
    print()
    show("by likelihood   ", lik.permutation, names, lik.scores)
    show("by expected cost", crm.permutation, names, crm.scores)

    top_l, top_r = names[lik.permutation[0]], names[crm.permutation[0]]
    print(f"\nargmax says {top_l}, expected cost says {top_r}:")
    print("betting on the cat branch caps the damage when the sample is")
    print("feline, which the likelihoods say it probably is (0.56 vs 0.44).")


if __name__ == "__main__":
    main()
