"""Pretrained word embeddings: text-format load/save, cosine KNN.

The file format is the usual text dump: an optional "count dim" header line,
then one "token f1 ... fd" line per word.  Candidate generation for synonym
discovery is an exact brute-force cosine scan over the entity universe.
"""

import numpy as np
from dataclasses import dataclass, field

from .corpus import PAD, PAD_TOKEN, UNK, UNK_TOKEN
from .errors import DataError, UnknownEntityError


@dataclass
class EmbeddingTable:
    matrix: np.ndarray          # (vocab size, embed dim) float64
    vocab: object

    @property
    def dim(self):
        return self.matrix.shape[1]


@dataclass
class NeighborList:
    query: int
    neighbors: list = field(default_factory=list)  # (entity id, cosine), best first


def _parse_header(parts):
    if len(parts) != 2:
        return None
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    return count, dim


def load_embeddings(path, vocab):
    """Read a text embedding file and align rows to vocabulary ids.

    Vocabulary tokens missing from the file share the UNK row, which is the
    mean of all vectors in the file.  The PAD row is zero.  A file that
    supplies vectors for the special tokens themselves overrides both.
    """
    vectors = {}
    dim = None
    total = np.zeros(0)
    n_read = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            if lineno == 1 and _parse_header(parts):
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise DataError(f"line {lineno}: no values after token")
                total = np.zeros(dim)
            elif len(values) != dim:
                raise DataError(
                    f"line {lineno}: expected {dim} values, got {len(values)}")
            vec = np.array([float(x) for x in values])
            total += vec
            n_read += 1
            if token in vocab:
                vectors[vocab.get(token)] = vec
    if n_read == 0:
        raise DataError(f"no embedding vectors in {path}")

    matrix = np.zeros((len(vocab), dim))
    unk_row = vectors.pop(UNK, total / n_read)
    pad_row = vectors.pop(PAD, np.zeros(dim))
    matrix[UNK] = unk_row
    matrix[PAD] = pad_row
    for tid in range(2, len(vocab)):
        matrix[tid] = vectors.get(tid, unk_row)
    return EmbeddingTable(matrix=matrix, vocab=vocab)


def save_embeddings(path, table):
    """Write every vocabulary row (specials included) with 6-decimal precision."""
    v, dim = table.matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v} {dim}\n")
        for tid in range(v):
            values = " ".join("%.6f" % x for x in table.matrix[tid])
            fh.write(f"{table.vocab.token(tid)} {values}\n")


def cosine(u, v):
    """Cosine similarity; either vector having zero norm gives 0."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def nearest_neighbors(table, entity, k, universe):
    """Top-k entities from `universe` by cosine similarity to `entity`.

    Exact brute-force scan: one matrix product over the universe rows.  The
    query itself is excluded, a zero-norm row (or query) scores 0, and ties
    break toward the smaller entity id so results are reproducible.
    """
    if k < 0:
        raise DataError(f"number of neighbors must be non-negative, got {k}")
    qid = entity if not isinstance(entity, str) else table.vocab.get(entity)
    if isinstance(entity, str) and entity not in table.vocab:
        raise UnknownEntityError(f"unknown entity {entity!r}")
    q = table.matrix[int(qid)]
    ids = np.array([eid for eid in universe if eid != qid], dtype=np.intp)
    rows = table.matrix[ids]
    norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(q)
    dots = rows @ q
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
    best = np.lexsort((ids, -cos))[:k]
    return NeighborList(query=int(qid),
                        neighbors=[(int(ids[j]), float(cos[j])) for j in best])
