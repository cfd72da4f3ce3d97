"""Corpus to training items, step by step: ingest a tiny corpus, look at its
occurrence index and context windows, save the index, split synsets, and
sample pairs and triplets."""

import os
import tempfile

import numpy as np

from synmatch import cli, corpus
from synmatch.rng import stream_rng

work = tempfile.mkdtemp(prefix="synmatch_demo_")

lines = []
for i in range(6):
    lines.append(f"the city of metropolis grew fast in year {i}")
    lines.append(f"locals call metropolis the big town since {i}")
    lines.append(f"megacity reports heavy traffic downtown at {i} pm")
    lines.append(f"the megacity skyline keeps rising over {i} cranes")
    lines.append(f"villageton stayed quiet with {i} farms nearby")
    lines.append(f"a market day in villageton draws {i} visitors")
    lines.append(f"hamletville counts {i} houses along one road")
    lines.append(f"the creek behind hamletville flooded {i} times")

corpus_path = os.path.join(work, "corpus.txt")
with open(corpus_path, "w") as fh:
    fh.write("\n".join(lines) + "\n")

synset_path = os.path.join(work, "synsets.tsv")
with open(synset_path, "w") as fh:
    fh.write("metropolis\tmegacity\n")
    fh.write("villageton\thamletville\n")

data = corpus.ingest(corpus_path, synset_path, min_count=5)
print(f"vocabulary size {len(data.vocab)}, {len(data.line_start) - 1} lines kept")
print(f"synsets: {[[data.vocab.token(e) for e in s] for s in data.store.synsets]}")

# the occurrence index is CSR: one run of flat token positions per token id,
# in corpus order; retrieval samples from the entity's run and finds each
# pick's line by a binary search of the line offsets
eid = corpus.entity_id("metropolis", data.vocab, len(data.vocab))
lo, hi = data.occ_start[eid], data.occ_start[eid + 1]
first = data.occ[lo:lo + 3]
lis = np.searchsorted(data.line_start[1:], first, side="right")
pairs = list(zip(lis.tolist(), (first - data.line_start[lis]).tolist()))
print(f"metropolis occurs {hi - lo} times; first flat positions {first.tolist()}, "
      f"as (line, position) pairs {pairs}")

# the index file holds plain arrays (no pickle); loading derives the
# occurrence index again from the token ids and builds no line's tuple
index_path = os.path.join(work, "index.npz")
cli.save_index(index_path, data)
again = cli.load_index(index_path)
same = all(np.array_equal(getattr(again, name), getattr(data, name))
           for name in ("tokens", "line_start"))
print(f"index.npz: {os.path.getsize(index_path)} bytes; reloaded lines equal: {same}")

# context windows center on the entity and shift at sentence edges
rng = stream_rng(0, "eval")
windows = corpus.retrieve_contexts(data, eid, P=3, T=5, rng=rng)
for w in windows:
    toks = [data.vocab.token(t) for t in w.token_ids]
    toks[w.entity_pos] = toks[w.entity_pos].upper()
    print("window:", " ".join(toks))

# whole synsets go to one side of the split, never individual entities
split_store = corpus.split_synsets(data.store, valid_frac=0.0, test_frac=0.5,
                                   rng=stream_rng(0, "ingest"))
for name in ("train", "test"):
    ents = sorted(data.vocab.token(e) for e in split_store.entities(name))
    print(f"{name} entities: {ents}")

# training items: labeled pairs for the siamese loss, triplets for the margin
# loss; sample here from an everything-is-train store so both synsets play
full = corpus.split_synsets(data.store, valid_frac=0.0, test_frac=0.0,
                            rng=stream_rng(0, "ingest"))
pair_rng = stream_rng(0, "train")
pairs = corpus.sample_pairs(full, 4, rng=pair_rng)
for p in pairs:
    print(f"pair {data.vocab.token(p.a)} / {data.vocab.token(p.b)} label={p.label}")
triplets = corpus.sample_triplets(full, 2, pair_rng)
for t in triplets:
    print(f"triplet anchor={data.vocab.token(t.anchor)} "
          f"pos={data.vocab.token(t.positive)} neg={data.vocab.token(t.negative)}")
