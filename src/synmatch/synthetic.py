"""Synthetic corpus generator with a known synonym structure.

Each synonym cluster owns a handful of signature tokens.  A context line for
an entity mixes signature tokens with shared background tokens at a
configurable noise fraction and embeds the entity token at a random
position.  Embeddings place each cluster's signature and entity tokens
around a common random direction, so both the cosine-KNN candidate stage
and the context encoder have signal to find, while background tokens are
isotropic noise.
"""

import numbers
import os

import numpy as np

from .corpus import check_count
from .embeddings import save_embeddings
from .errors import DataError
from .rng import stream_rng

SIGNATURE_TOKENS_PER_CLUSTER = 8


def generate(out_dir, clusters=40, entities_per_cluster=3, contexts_per_entity=30,
             vocab_size=2000, noise=0.3, embed_dim=16, tokens_per_context=12,
             seed=0):
    """Write corpus.txt, synsets.tsv and embeddings.txt under out_dir.

    Returns a dict with the three file paths.  vocab_size counts the
    non-entity tokens (cluster signatures plus shared background); entity
    tokens come on top.  The counts pass `corpus.check_count`, noise is a
    real fraction in [0, 1] (a bool is not one), and counts whose arrays
    numpy cannot allocate are a DataError before any array or file is made.
    Every random choice is drawn for the whole corpus or vocabulary in one
    array call, and the same seed writes the same files.  contexts_per_entity
    counts lines written, and ingest drops repeated lines: at a small
    tokens_per_context an entity has fewer distinct contexts.
    """
    counts = (("clusters", clusters, 1), ("entities_per_cluster", entities_per_cluster, 2),
              ("contexts_per_entity", contexts_per_entity, 1), ("vocab_size", vocab_size, 1),
              ("embed_dim", embed_dim, 1), ("tokens_per_context", tokens_per_context, 0))
    for name, value, floor in counts:
        check_count(name, value, floor)
    if (isinstance(noise, bool) or not isinstance(noise, numbers.Real)
            or not 0.0 <= noise <= 1.0):
        raise DataError(f"noise must be a real fraction in [0, 1], got {noise!r}")
    # numpy makes no array past intp-max bytes, 8-byte items here; Python ints do not wrap
    n_entities = int(clusters) * int(entities_per_cluster)
    if 8 * max(n_entities * int(contexts_per_entity) * (int(tokens_per_context) + 1),
               (int(vocab_size) + n_entities) * int(embed_dim)) > np.iinfo(np.intp).max:
        raise DataError(", ".join(f"{name}={value}" for name, value, _ in counts)
                        + ": arrays past what numpy can allocate")
    n_signature = clusters * SIGNATURE_TOKENS_PER_CLUSTER
    n_background = vocab_size - n_signature
    if n_background < 1:
        raise DataError(f"vocab_size {vocab_size} leaves no background tokens "
                        f"for {clusters} clusters")
    rng = stream_rng(seed, "synth")

    # token ids index names, the embedding file's row order: each cluster's
    # signature tokens then its entities, and the background after them all
    entities = [[f"ent{ci}_{j}" for j in range(entities_per_cluster)]
                for ci in range(clusters)]
    names = [tok for ci, members in enumerate(entities)
             for tok in [f"c{ci}t{k}" for k in range(SIGNATURE_TOKENS_PER_CLUSTER)] + members]
    names += [f"w{i}" for i in range(n_background)]
    per_cluster = SIGNATURE_TOKENS_PER_CLUSTER + entities_per_cluster

    # contexts_per_entity lines for each entity, entity by entity, each line's
    # cluster and the entity's place in it
    ci, j = np.divmod(np.repeat(np.arange(n_entities),
                                contexts_per_entity), entities_per_cluster)
    first = ci[:, None] * per_cluster             # the cluster's first signature token
    shape = (len(ci), tokens_per_context)
    ids = np.where(rng.random(shape) < noise,
                   clusters * per_cluster + rng.integers(n_background, size=shape),
                   first + rng.integers(SIGNATURE_TOKENS_PER_CLUSTER, size=shape))
    # the entity, kept in a last column, goes in slot s of its line:
    # position k takes token k before the slot and token k - 1 after it
    ids = np.hstack([ids, first + SIGNATURE_TOKENS_PER_CLUSTER + j[:, None]])
    slot = rng.integers(tokens_per_context + 1, size=(len(ci), 1))
    k = np.arange(tokens_per_context + 1)
    ids = np.take_along_axis(ids, np.where(k == slot, tokens_per_context, k - (k > slot)),
                             axis=1)
    words = np.array(names, dtype=object)[ids[rng.permutation(len(ids))]]

    axes = rng.normal(size=(clusters, 1, embed_dim))
    axes /= np.linalg.norm(axes, axis=2, keepdims=True)
    spread = (axes + 0.30 * rng.normal(size=(clusters, SIGNATURE_TOKENS_PER_CLUSTER, embed_dim)),
              axes + 0.25 * rng.normal(size=(clusters, entities_per_cluster, embed_dim)))
    matrix = np.vstack([np.concatenate(spread, axis=1).reshape(-1, embed_dim),
                        rng.normal(size=(n_background, embed_dim))])
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)

    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.txt")
    synset_path = os.path.join(out_dir, "synsets.tsv")
    embed_path = os.path.join(out_dir, "embeddings.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(" ".join, words.tolist())) + "\n")
    with open(synset_path, "w", encoding="utf-8") as fh:
        for members in entities:
            fh.write("\t".join(members) + "\n")
    save_embeddings(embed_path, names, matrix)
    return {"corpus": corpus_path, "synsets": synset_path, "embeddings": embed_path}
