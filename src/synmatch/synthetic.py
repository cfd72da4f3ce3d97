"""Synthetic corpus generator with a known synonym structure.

Each synonym cluster owns a handful of signature tokens.  A context line for
an entity mixes signature tokens with shared background tokens at a
configurable noise fraction and embeds the entity token at a random
position.  Embeddings place each cluster's signature and entity tokens
around a common random direction, so both the cosine-KNN candidate stage
and the context encoder have signal to find, while background tokens are
isotropic noise.
"""

import os

import numpy as np

from .corpus import check_count
from .embeddings import save_embeddings
from .errors import DataError
from .rng import stream_rng

SIGNATURE_TOKENS_PER_CLUSTER = 8


def _unit(v):
    return v / np.linalg.norm(v)


def generate(out_dir, clusters, entities_per_cluster=3, contexts_per_entity=30,
             vocab_size=2000, noise=0.3, embed_dim=16, tokens_per_context=12,
             seed=0):
    """Write corpus.txt, synsets.tsv and embeddings.txt under out_dir.

    Returns a dict with the three file paths.  vocab_size counts the
    non-entity tokens (cluster signatures plus shared background); entity
    tokens come on top.
    """
    for name, value, floor in (("clusters", clusters, 1),
                               ("entities_per_cluster", entities_per_cluster, 2),
                               ("contexts_per_entity", contexts_per_entity, 1),
                               ("embed_dim", embed_dim, 1),
                               ("tokens_per_context", tokens_per_context, 0)):
        check_count(name, value, floor)
    if not 0.0 <= noise <= 1.0:
        raise DataError(f"noise fraction {noise} outside [0, 1]")
    n_signature = clusters * SIGNATURE_TOKENS_PER_CLUSTER
    n_background = vocab_size - n_signature
    if n_background < 1:
        raise DataError(f"vocab_size {vocab_size} leaves no background tokens "
                        f"for {clusters} clusters")
    rng = stream_rng(seed, "synth")

    background = [f"w{i}" for i in range(n_background)]
    signatures = [[f"c{ci}t{k}" for k in range(SIGNATURE_TOKENS_PER_CLUSTER)]
                  for ci in range(clusters)]
    entities = [[f"ent{ci}_{j}" for j in range(entities_per_cluster)]
                for ci in range(clusters)]

    lines = []
    for ci in range(clusters):
        for ent in entities[ci]:
            for _ in range(contexts_per_entity):
                toks = []
                for _ in range(tokens_per_context):
                    if rng.random() < noise:
                        toks.append(background[rng.integers(n_background)])
                    else:
                        toks.append(signatures[ci][rng.integers(SIGNATURE_TOKENS_PER_CLUSTER)])
                toks.insert(int(rng.integers(len(toks) + 1)), ent)
                lines.append(" ".join(toks))
    rng.shuffle(lines)

    directions = rng.normal(size=(clusters, embed_dim))
    vectors = {}
    for ci in range(clusters):
        axis = _unit(directions[ci])
        for tok in signatures[ci]:
            vectors[tok] = _unit(axis + 0.30 * rng.normal(size=embed_dim))
        for tok in entities[ci]:
            vectors[tok] = _unit(axis + 0.25 * rng.normal(size=embed_dim))
    for tok in background:
        vectors[tok] = _unit(rng.normal(size=embed_dim))

    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.txt")
    synset_path = os.path.join(out_dir, "synsets.tsv")
    embed_path = os.path.join(out_dir, "embeddings.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(synset_path, "w", encoding="utf-8") as fh:
        for members in entities:
            fh.write("\t".join(members) + "\n")
    save_embeddings(embed_path, vectors, np.array(list(vectors.values())))
    return {"corpus": corpus_path, "synsets": synset_path, "embeddings": embed_path}
