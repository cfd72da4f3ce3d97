"""Corpus ingestion: vocabulary, per-entity context retrieval, synset splits, pair sampling.

The corpus is plain text, one tokenized sentence per line, tokens separated by
whitespace.  Multi-word entities must already be joined into single tokens
(e.g. "new_york_city").  Synsets live in a separate file, one group per line,
entity tokens separated by tabs.  Ingest and index loads keep the lines as flat
token arrays; a line's tuple of ids is built only when a window is cut from it.
"""

import logging
import numbers
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, repeat

import numpy as np

from .errors import DataError, NoContextError, UnknownEntityError

log = logging.getLogger(__name__)

UNK = 0
PAD = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
READ_BLOCK = 1 << 16   # characters of whole corpus lines ingest reads at a time
SPLITS = ("train", "valid", "test")   # an index file codes each as its place + 1


def is_integer(x):
    """Whether x is a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_count(name, value, floor):
    """The count check (P, T, k, knn_k and others): a DataError naming `name`
    unless value is an integer (a bool is not one) of at least floor."""
    if not is_integer(value) or value < floor:
        kind = "a positive" if floor else "a non-negative"
        raise DataError(f"{name} must be {kind} integer (at least {floor}), got {value!r}")


def entity_id(entity, vocab, n):
    """The id rule: the id `entity` names among n.  A name resolves through
    vocab, or is unknown; a Python or numpy integer, not a bool, must lie in
    [0, n); anything else is not an integer.  Each is an UnknownEntityError."""
    if isinstance(entity, str):
        if entity not in vocab:
            raise UnknownEntityError(f"unknown entity {entity!r}")
        return vocab.get(entity)
    if not is_integer(entity):
        raise UnknownEntityError(f"entity id {entity!r} is not an integer")
    if not 0 <= entity < n:
        raise UnknownEntityError(f"entity id {entity} outside [0, {n})")
    return int(entity)


def entity_ids(entities, vocab, n):
    """entity_id of each element as one intp array: a 1-d integer np.asarray of
    ids in [2, n) takes only a range check (a max of ids - 2 as uint64) before
    the cast; all else, names, floats, np.uint64 among signed ints, bad ids and
    ids 0 and 1 (what bools among ints become), goes element by element."""
    try:
        ids = np.asarray(entities)
    except ValueError:   # a ragged nesting, as in [2, [3, 4]]: check each element
        ids = np.empty(0)
    if (ids.dtype.kind in "iu" and ids.ndim == 1 and ids.size and np.maximum.reduce(
            np.subtract(ids, 2, dtype=np.uint64, casting="unsafe")) < n - 2):
        return ids.astype(np.intp, copy=False)
    return np.array([entity_id(e, vocab, n) for e in entities], dtype=np.intp)


class Vocabulary:
    """Token <-> id map in first-appearance order.

    Ids 0 and 1 are reserved for <unk> and <pad>, also when those tokens
    appear among `tokens`.
    """

    def __init__(self, tokens=()):
        self.token_to_id = dict.fromkeys(chain((UNK_TOKEN, PAD_TOKEN), tokens))
        self.id_to_token = list(self.token_to_id)
        self.token_to_id.update(zip(self.id_to_token, range(len(self.id_to_token))))

    def get(self, token):
        """Id for token, UNK if the token is not in the vocabulary."""
        return self.token_to_id.get(token, UNK)

    def token(self, tid):
        return self.id_to_token[tid]

    def __contains__(self, token):
        return token in self.token_to_id

    def __len__(self):
        return len(self.id_to_token)


@dataclass(frozen=True)
class ContextWindow:
    """One occurrence of an entity with surrounding tokens, at most T of them."""

    token_ids: tuple
    entity_pos: int

    def __post_init__(self):
        if not 0 <= self.entity_pos < len(self.token_ids):
            raise DataError(
                f"entity_pos {self.entity_pos} outside window of "
                f"length {len(self.token_ids)}")

    def __len__(self):
        return len(self.token_ids)


@dataclass
class SynsetStore:
    """Groups of synonym entity ids plus an optional train/valid/test split."""

    synsets: list = field(default_factory=list)   # list of tuples of entity ids
    split: dict = field(default_factory=dict)     # synset index -> one of SPLITS

    def __post_init__(self):
        for si, label in self.split.items():
            if label not in SPLITS:
                raise DataError(f"synset {si} has split label {label!r}; "
                                f"a split is one of {', '.join(SPLITS)}")
        seen = {}
        for si, members in enumerate(self.synsets):
            for e in members:
                if e in seen:
                    raise DataError(
                        f"entity id {e} appears in synsets {seen[e]} and {si}")
                seen[e] = si
        self._synset_of = seen

    def synset_of(self, entity_id):
        """Index of the synset holding entity_id, or None."""
        return self._synset_of.get(entity_id)

    def are_synonyms(self, a, b):
        sa = self._synset_of.get(a)
        return sa is not None and sa == self._synset_of.get(b)

    def entities(self, split=None):
        """All entity ids, or only those whose synset is in the given split."""
        out = []
        for si, members in enumerate(self.synsets):
            if split is None or self.split.get(si) == split:
                out.extend(members)
        return out

    def synset_ids(self, split):
        return [si for si in range(len(self.synsets)) if self.split.get(si) == split]

    def __len__(self):
        return len(self.synsets)


@dataclass(frozen=True)
class TrainingPair:
    a: int
    b: int
    label: int  # 1 = synonym, 0 = not


@dataclass(frozen=True)
class TrainingTriplet:
    anchor: int
    positive: int
    negative: int


@dataclass
class CorpusData:
    """Everything ingest() produces: vocabulary, token lines, occurrence index, synsets.

    The corpus is stored flat: line li is tokens[line_start[li]:line_start[li + 1]].
    The occurrence index is derived from those arrays on construction: token id t
    occurs at the flat positions occ[occ_start[t]:occ_start[t + 1]] of tokens, in
    corpus order.  line(li) builds line li's tuple on first use and keeps it; like
    the scorer, that assumes the token arrays are never written in place.
    """

    vocab: Vocabulary
    tokens: np.ndarray        # (n_tokens,) int32 token ids, line after line
    line_start: np.ndarray    # (n_lines + 1,) int64 offsets of the lines in tokens
    store: SynsetStore
    line_slots: list = field(init=False, repr=False, compare=False)   # filled by line()
    occ_start: np.ndarray = field(init=False, repr=False)   # (len(vocab) + 1,) int64
    occ: np.ndarray = field(init=False, repr=False)         # (n_tokens,) int64
    # the evaluation.Scorer of the last model scored on this corpus; set by
    # evaluation._scorer.  The Scorer refers back weakly: no reference cycle
    scorer: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.line_slots = [None] * (len(self.line_start) - 1)
        # Stable, so each token's positions stay in corpus order.  Ids cast to
        # the narrowest unsigned type: numpy radix-sorts 8- and 16-bit keys.
        narrow = self.tokens.astype(np.min_scalar_type(len(self.vocab) - 1))
        self.occ = np.argsort(narrow, kind="stable")
        self.occ_start = np.zeros(len(self.vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.tokens, minlength=len(self.vocab)),
                  out=self.occ_start[1:])

    @property
    def lines(self):
        """Every line's tuple, built afresh: slow, and it fills no slot of line()."""
        return unflatten(self.tokens, self.line_start)

    def line(self, li):
        """Line li as a tuple of Python ints, built on first use and kept."""
        got = self.line_slots[li]
        if got is None:
            a, b = self.line_start[li:li + 2].tolist()
            got = self.line_slots[li] = tuple(self.tokens[a:b].tolist())
        return got


def unflatten(flat, starts):
    """Tuples of Python ints flat[starts[i]:starts[i + 1]], one per run."""
    flat, starts = flat.tolist(), starts.tolist()
    return [tuple(flat[a:b]) for a, b in zip(starts, starts[1:])]


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 are a
    DataError naming the file and the line they are on."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}, line {_undecodable_line(path)}: not UTF-8 text "
                        f"({exc.reason})") from exc


def _undecodable_line(path):
    """Number of the first line, counted at newline bytes, that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


def read_synset_lines(path):
    """Read the synset file: one group per line, entity tokens tab-separated."""
    groups = []
    with open_text(path) as fh:
        for raw in fh:
            members = [t for t in raw.rstrip("\n").split("\t") if t]
            if members:
                groups.append(members)
    return groups


def ingest(corpus_path, synset_path, min_count=5):
    """Build a CorpusData from a corpus file and a synset file.

    Duplicate corpus lines are dropped.  Synset entities that never occur in
    the corpus, or occur fewer than min_count times, are dropped from the
    store (with a warning); their contexts would be too thin to encode.  A
    name repeated within its synset line is kept once (with a warning); the
    same name on two lines is a DataError.
    """
    check_count("min_count", min_count, 0)
    token_lines = {}   # each distinct line's tokens, in file order
    with open_text(corpus_path) as fh:
        while block := fh.readlines(READ_BLOCK):
            token_lines.update(zip(map(tuple, map(str.split, block)), repeat(None)))
    token_lines.pop((), None)
    # a list, so the dict's table is freed before the token arrays are made: kept
    # beside them, over many ingests it raised perfbench's peak RSS by 0.3-1.5 MB
    token_lines = list(token_lines)
    line_start = np.cumsum(np.fromiter(chain((0,), map(len, token_lines)), np.int64,
                                       len(token_lines) + 1))
    # a token's id is assigned on its first lookup, the next after those given so far
    ids = defaultdict(count(PAD + 1).__next__, ((UNK_TOKEN, UNK), (PAD_TOKEN, PAD)))
    tokens = np.fromiter(map(ids.__getitem__, chain.from_iterable(token_lines)),
                         dtype=np.int32, count=int(line_start[-1]))
    vocab = Vocabulary(ids)
    data = CorpusData(vocab=vocab, tokens=tokens, line_start=line_start, store=SynsetStore())
    counts = np.diff(data.occ_start)

    synsets = []
    for members in read_synset_lines(synset_path):
        kept = []
        for i, surface in enumerate(members):
            if surface in members[:i]:
                log.warning("synset entity %r repeats within its line; kept once", surface)
                continue
            if surface not in vocab:
                log.warning("synset entity %r never occurs in the corpus; dropped", surface)
                continue
            tid = vocab.get(surface)
            freq = int(counts[tid])
            if freq < min_count:
                log.warning("entity %r occurs %d time(s), fewer than min_count=%d; dropped",
                            surface, freq, min_count)
                continue
            kept.append(tid)
        if kept:
            synsets.append(tuple(kept))

    data.store = SynsetStore(synsets=synsets)
    return data


def window_around(token_ids, pos, T):
    """Cut a window of at most T tokens around position pos.

    The entity keeps floor((T-1)/2) tokens on its left and the remainder on
    its right; when the sentence boundary cuts one side short, the budget
    shifts to the other side so the window stays full whenever possible.
    """
    n = len(token_ids)
    if n <= T:
        return ContextWindow(tuple(token_ids), pos)
    left = (T - 1) // 2
    start = pos - left
    end = start + T
    if start < 0:
        start, end = 0, T
    elif end > n:
        start, end = n - T, n
    return ContextWindow(tuple(token_ids[start:end]), pos - start)


def retrieve_contexts(data, entity, P, T, rng):
    """Sample P context windows for an entity.

    Occurrences are drawn uniformly, without replacement when the entity has
    at least P of them, with replacement otherwise.  The entity resolves
    through `entity_id` over the vocabulary; P and T are positive integers.
    """
    eid = entity_id(entity, data.vocab, len(data.vocab))
    check_count("P", P, 1)
    check_count("T", T, 1)
    lo, hi = data.occ_start[eid:eid + 2].tolist()
    count = hi - lo
    if count == 0:
        raise NoContextError(f"entity id {eid} has no occurrences in the corpus")
    at = data.occ[lo + rng.choice(count, size=P, replace=count < P)]
    lis = np.searchsorted(data.line_start[1:], at, side="right")
    return [window_around(data.line(li), pos, T)
            for li, pos in zip(lis.tolist(), (at - data.line_start[lis]).tolist())]


def split_synsets(store, valid_frac, test_frac, rng):
    """Assign each synset to train, valid or test.

    Splitting whole synsets keeps evaluation entities disjoint from training
    entities.  A fraction is a real number in [0, 1), not a bool: exactly 0
    yields an empty split, a positive one that rounds to zero synsets is an error.
    """
    n = len(store.synsets)
    for name, frac in (("valid", valid_frac), ("test", test_frac)):
        if isinstance(frac, bool) or not isinstance(frac, numbers.Real) or not 0 <= frac < 1:
            raise DataError(f"{name} fraction must be a real number in [0, 1), got {frac!r}")
    n_valid = round(n * valid_frac)
    n_test = round(n * test_frac)
    if valid_frac > 0 and n_valid == 0:
        raise DataError(f"valid fraction {valid_frac} of {n} synsets rounds to zero")
    if test_frac > 0 and n_test == 0:
        raise DataError(f"test fraction {test_frac} of {n} synsets rounds to zero")
    n_train = n - n_valid - n_test
    if n_train <= 0:
        raise DataError(f"no synsets left for training ({n} total, "
                        f"{n_valid} valid, {n_test} test)")
    # the first n_test synsets of a seeded permutation are test, the next n_valid valid
    names = ["test"] * n_test + ["valid"] * n_valid + ["train"] * n_train
    return SynsetStore(synsets=list(store.synsets),
                       split=dict(zip(rng.permutation(n).tolist(), names)))


def _positive_pool(store, split="train"):
    pool = []
    for si in store.synset_ids(split):
        members = store.synsets[si]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pool.append((members[i], members[j]))
    return pool


def _random_non_synonym(store, entities, anchor, rng):
    for _ in range(1000):
        k = entities[rng.integers(len(entities))]
        if k != anchor and not store.are_synonyms(anchor, k):
            return k
    raise DataError("could not sample a non-synonym entity; "
                    "the train split has no usable negatives")


def sample_pairs(store, n, rng):
    """Sample n labeled pairs from the train split, one negative per positive.

    Positives come from within train synsets, negatives pair a train entity
    with a uniformly random non-synonym train entity; (n + 1) // 2 of the n
    are positive, so positives never fall short of negatives.
    """
    pool = _positive_pool(store)
    if not pool:
        raise DataError("train split contains no positive pair")
    entities = store.entities("train")
    n_pos = (n + 1) // 2
    pairs = []
    for i in rng.integers(len(pool), size=n_pos):
        a, b = pool[i]
        if rng.integers(2):
            a, b = b, a
        pairs.append(TrainingPair(a, b, 1))
    for _ in range(n - n_pos):
        a = entities[rng.integers(len(entities))]
        pairs.append(TrainingPair(a, _random_non_synonym(store, entities, a, rng), 0))
    rng.shuffle(pairs)
    return pairs


def sample_triplets(store, n, rng):
    """Sample n (anchor, positive, negative) triplets from the train split."""
    pool = _positive_pool(store)
    if not pool:
        raise DataError("train split contains no positive pair")
    entities = store.entities("train")
    out = []
    for i in rng.integers(len(pool), size=n):
        a, p = pool[i]
        if rng.integers(2):
            a, p = p, a
        out.append(TrainingTriplet(a, p, _random_non_synonym(store, entities, a, rng)))
    return out
