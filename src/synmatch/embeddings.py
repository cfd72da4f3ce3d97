"""Pretrained word embeddings: text-format load/save, cosine KNN.

The file format is the usual text dump: an optional "count dim" header line,
then one "token f1 ... fd" line per word.  Candidate generation for synonym
discovery is an exact brute-force cosine scan over the entity universe.
"""

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .corpus import PAD, UNK, check_count, entity_ids, open_text
from .errors import DataError


@dataclass
class EmbeddingTable:
    """The word vectors by vocabulary id.  The matrix stays float64, so KNN
    cosines keep their bits; the float32 model casts it once per encode."""
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


# lines parsed per numpy conversion: bounds the text held at once
PARSE_BLOCK = 4096


def _parse_rows(linenos, texts, dim):
    """(n, dim) values of the lines' texts, parsed row by row as float() parses
    them; DataError naming the first line with the wrong number of values,
    else the first with a value that is not a number."""
    rows = [text.split() for text in texts]
    for lineno, row in zip(linenos, rows):
        if len(row) != dim:
            raise DataError(f"line {lineno}: expected {dim} values, got {len(row)}")
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            try:
                np.array(row, dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        raise


def _parse_block(linenos, texts, dim):
    """(n, dim) float64 values of the lines' value texts; DataError naming
    the first line that is malformed, or else holds a value that is not finite.

    numpy's C parser converts the block in one call.  It skips empty rows,
    rejects some spellings float() takes ("1_0", non-ASCII digits) and names
    no file line, so on any failure the block is parsed again row by row.
    """
    values = None
    if "" not in texts:
        try:
            values = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(texts), dim):
        values = _parse_rows(linenos, texts, dim)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"line {linenos[np.argmin(finite)]}: value is not finite")
    return values


def _read_blocks(path):
    """Yield (tokens, values) for successive blocks of an embedding file."""
    dim = None
    linenos, tokens, texts = [], [], []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split(None, 1)
            if not parts:
                continue
            if dim is None:
                fields = raw.split()
                if lineno == 1 and _parse_header(fields):
                    continue
                dim = len(fields) - 1
                if dim == 0:
                    raise DataError(f"line {lineno}: no values after token")
            linenos.append(lineno)
            tokens.append(parts[0])
            texts.append(parts[1] if len(parts) == 2 else "")
            if len(texts) == PARSE_BLOCK:
                yield tokens, _parse_block(linenos, texts, dim)
                linenos, tokens, texts = [], [], []
    if texts:
        yield tokens, _parse_block(linenos, texts, dim)


def load_embeddings(path, vocab):
    """Read a text embedding file and align rows to vocabulary ids.

    Vocabulary tokens missing from the file share the UNK row, which is the
    mean of all vectors in the file.  The PAD row is zero.  A file that
    supplies vectors for the special tokens themselves overrides both; a
    token given twice keeps its last vector.  A value that is not a finite
    number is a DataError naming its line.
    """
    matrix = total = None
    n_read = 0
    written = np.zeros(len(vocab), dtype=bool)
    for tokens, values in _read_blocks(path):
        if matrix is None:
            matrix = np.empty((len(vocab), values.shape[1]))
            total = np.zeros(values.shape[1])
        # a running sum in file order: a pairwise sum would round the mean differently
        total = np.add.accumulate(np.vstack([total, values]))[-1]
        n_read += len(values)
        ids = np.fromiter(map(vocab.token_to_id.get, tokens, repeat(-1)),
                          dtype=np.intp, count=len(tokens))
        ids, last = np.unique(ids[::-1], return_index=True)   # a token's last row wins
        known = ids >= 0
        matrix[ids[known]] = values[len(values) - 1 - last[known]]
        written[ids[known]] = True
    if n_read == 0:
        raise DataError(f"no embedding vectors in {path}")
    if not np.isfinite(total).all():
        raise DataError(f"the vectors in {path} sum past the float range; "
                        f"their mean, the UNK row, is not finite")

    if not written[UNK]:
        matrix[UNK] = total / n_read
    if not written[PAD]:
        matrix[PAD] = 0.0
    written[[UNK, PAD]] = True
    matrix[~written] = matrix[UNK]
    return EmbeddingTable(matrix=matrix, vocab=vocab)


def save_embeddings(path, tokens, matrix):
    """Write a "count dim" header, then each token with its row of matrix,
    values at 6-decimal precision, in one write."""
    line = "%s" + " %.6f" * matrix.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % matrix.shape
                 + "".join(line % (tok, *row) for tok, row in zip(tokens, matrix.tolist())))


def nearest_neighbors(table, entities, k, universe):
    """Top-k entities from `universe` by cosine similarity to each of `entities`;
    one NeighborList per query, in order.

    Exact brute-force scan.  The universe rows are gathered and their norms
    taken once per call, each the square root of the row's sum of squares, the
    sum np.linalg.norm takes; each query's cosines are one matrix-vector
    product over the rows left once the query itself is excluded, the product a
    one-query scan takes, so a query gets the same bits alone or in a batch
    (neither the product over all rows nor one product for all queries does).
    Queries and universe pass `corpus.entity_ids` over the table's rows, k
    `corpus.check_count`.  A zero-norm row (or query) scores 0, and ties break
    toward the smaller entity id so results are reproducible.
    """
    check_count("k", k, 0)
    qids = entity_ids(entities, table.vocab, len(table.matrix)).tolist()
    ids = entity_ids(universe, table.vocab, len(table.matrix))
    # take copies the rows fancy indexing would, in about two thirds of the time
    rows = table.matrix.take(ids, axis=0)
    row_norms = np.sqrt((rows * rows).sum(axis=1))
    out = []
    for qid in qids:
        q = table.matrix[qid]
        keep = (ids != qid).nonzero()[0]
        kept, dots = ids.take(keep), rows.take(keep, axis=0) @ q
        norms = row_norms.take(keep) * np.sqrt(q.dot(q))
        cos = np.divide(dots, norms, out=np.zeros(len(dots)), where=norms != 0.0)
        best = np.lexsort((kept, -cos))[:k]
        out.append(NeighborList(qid, list(zip(kept[best].tolist(), cos[best].tolist()))))
    return out
