"""How bilateral matching aggregates context sets, and what the leaky slot
does when one context is junk."""

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

result = matcher.match_score(H, G, W)
print("match matrix m_fwd (columns sum to 1):")
print(np.round(result.m_fwd, 3))
print("informativeness of A's contexts:", np.round(result.a_h, 3))
print("informativeness of B's contexts:", np.round(result.a_g, 3))
print("synonym score:", round(result.score, 4))

# a self pair scores exactly 1 with the identity bilinear form
self_result = matcher.match_score(H, H, W)
print("self pair score:", self_result.score)

# now poison one of A's contexts with a big off-manifold row and watch the
# leaky slot absorb its influence
junk = -3.0 * np.ones((1, d))
H_noisy = np.vstack([H[:2], junk])

plain = matcher.match_score(H_noisy, G, W)
leaky = matcher.match_score(H_noisy, G, W, leaky=True)
print("score with junk context, no leaky:", round(plain.score, 4))
print("score with junk context, leaky:   ", round(leaky.score, 4))
print("leak share per column of B:", np.round(leaky.leak_fwd, 3))

# the leak share plus the column mass still forms a distribution
col_total = leaky.m_fwd.sum(axis=0) + leaky.leak_fwd
print("column mass + leak share:", np.round(col_total, 12))
