"""How bilateral matching aggregates context sets, and what the leaky slot
does when one context is junk.

The matcher scores groups: each left entity against a stack of its own
candidates, with the left side's projection H @ W held by the caller."""

import numpy as np

from synmatch import matcher

rng = np.random.default_rng(42)
d = 6

# two entities, three encoded contexts each; entity B's contexts echo A's
# first two (synonyms seen in similar sentences), plus one off-topic row
base = rng.normal(size=(2, d))
H = np.vstack([base + 0.05 * rng.normal(size=(2, d)), rng.normal(size=(1, d))])
G = np.vstack([base + 0.05 * rng.normal(size=(2, d)), rng.normal(size=(1, d))])
W = np.eye(d)


def match(left, candidates, leaky=False):
    """One group: the left entity's contexts against each candidate's."""
    return matcher.match_score(left[None], left[None] @ W, np.stack(candidates)[None], leaky)


# A against B, and A against itself, in one group: row 0 and row 1 of every field
result = match(H, [G, H])
print("match matrix m_fwd of A against B (columns sum to 1):")
print(np.round(result.m_fwd[0], 3))
print("informativeness of A's contexts:", np.round(result.a_h[0], 3))
print("informativeness of B's contexts:", np.round(result.a_g[0], 3))
print("synonym score:", round(result.score[0], 4))

# a self pair scores exactly 1 with the identity bilinear form
print("self pair score:", result.score[1])

# now poison one of A's contexts with a big off-manifold row and watch the
# leaky slot absorb its influence
junk = -3.0 * np.ones((1, d))
H_noisy = np.vstack([H[:2], junk])

plain = match(H_noisy, [G])
leaky = match(H_noisy, [G], leaky=True)
print("score with junk context, no leaky:", round(plain.score[0], 4))
print("score with junk context, leaky:   ", round(leaky.score[0], 4))
print("leak share per column of B:", np.round(leaky.leak_fwd[0], 3))

# the leak share plus the column mass still forms a distribution
col_total = leaky.m_fwd[0].sum(axis=0) + leaky.leak_fwd[0]
print("column mass + leak share:", np.round(col_total, 12))
