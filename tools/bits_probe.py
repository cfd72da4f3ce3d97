"""Print one SHA-256 over the bits of training, evaluation and discovery.

For each perfbench workload at seed 501 (data and TrainConfig read from
perfbench/workloads.py), and for valid-split runs of both objectives on the
train_tier1 layout at noise 0.9, it hashes:
  - the training history and the SHA-256 of each trained parameter;
  - the EvalReport fields on the held-out split, as float.hex;
  - the first 40 `discover` results over the store, and one `discover_many`
    over the held-out split;
  - one `score_pair`.
Two checkouts that print the same hash give those results bit for bit.

Before that hash, the last line, it prints two lines per dataset: "<name>
data <SHA-256 of its corpus, synsets and embeddings files>", then "<name>
index <SHA-256 of what ingest made of them: the vocabulary, the token ids,
the line offsets and the synsets>", so that a change of the generated data
or of ingest can be told from a change of the rest of the library.  After
each training run it prints "<run> dtypes <weight>=<dtype> ...", the dtypes
of the trained weights (float32 each), so that a weight that turns float64
shows by name, not only as a new hash.

It imports src/ and perfbench/ of the checkout it sits in:

    python tools/bits_probe.py

The BLAS thread count defaults to 1 (OPENBLAS_NUM_THREADS), as every bit
comparison of this project is taken at one thread; a value already set in
the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True          # leave no cache files under perfbench/

import numpy as np

from synmatch import corpus, embeddings, evaluation, synthetic, training
from synmatch.rng import stream_rng

import workloads

SEED = 501
DISCOVER_QUERIES = 40
VALID_FRAC = 0.25


def bits(x):
    """A JSON-ready form of x with every float as float.hex."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {str(k): bits(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def param_hashes(params):
    return {name: hashlib.sha256(np.ascontiguousarray(w, dtype="<f8").tobytes()).hexdigest()
            for name, w in sorted(params.items())}


def result_bits(result):
    return bits([result.query, result.ranked, result.candidates, result.accepted])


def index_digest(data):
    """SHA-256 of an ingest result, before any split."""
    parts = [data.vocab.id_to_token, data.tokens.tolist(), data.line_start.tolist(),
             data.store.synsets]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def load(out_dir, data_args, valid_frac):
    """The generated dataset, split and with its embeddings; prints its digests."""
    paths = synthetic.generate(out_dir, seed=SEED, **data_args)
    digest = hashlib.sha256()
    for key in ("corpus", "synsets", "embeddings"):
        digest.update(Path(paths[key]).read_bytes())
    print(os.path.basename(out_dir), "data", digest.hexdigest())
    data = corpus.ingest(paths["corpus"], paths["synsets"])
    print(os.path.basename(out_dir), "index", index_digest(data))
    data.store = corpus.split_synsets(data.store, valid_frac, workloads.TEST_FRAC,
                                      stream_rng(SEED, "ingest"))
    return data, embeddings.load_embeddings(paths["embeddings"], data.vocab)


def probe(name, data, table, config):
    """The bits of one training run and of scoring with its model; prints
    the trained weights' dtypes."""
    params, history = training.train(config, data, table)
    print(name, "dtypes", " ".join(f"{k}={w.dtype}" for k, w in sorted(params.items())))
    report = evaluation.evaluate(params, config, data, table, split="test", seed=SEED,
                                 knn_k=workloads.KNN_K)
    store = sorted(data.store.entities())
    test = sorted(data.store.entities("test"))
    found = [evaluation.discover(params, config, data, table, q, k=workloads.KNN_K,
                                 threshold=workloads.THRESHOLD, seed=SEED)
             for q in store[:DISCOVER_QUERIES]]
    many = evaluation.discover_many(params, config, data, table, test, k=workloads.KNN_K,
                                    threshold=workloads.THRESHOLD, seed=SEED, universe=test)
    pair = evaluation.score_pair(params, config, data, table.matrix, test[0], test[1],
                                 seed=SEED)
    return {"history": bits(history), "params": param_hashes(params),
            "report": bits(dataclasses.asdict(report)),
            "discover": [result_bits(r) for r in found],
            "discover_many": [result_bits(r) for r in many], "score_pair": pair.hex()}


def main():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in workloads.WORKLOADS.items():
            data, table = load(os.path.join(tmp, name), w.data, workloads.VALID_FRAC)
            out[name] = probe(name, data, table, w.config(SEED))
        tier1 = workloads.WORKLOADS["train_tier1"]
        # noisy contexts, so that validation AUC moves between epochs
        data, table = load(os.path.join(tmp, "valid"), dict(tier1.data, noise=0.9), VALID_FRAC)
        for objective in training.OBJECTIVES:
            config = dataclasses.replace(tier1.config(SEED), objective=objective, epochs=3,
                                         pairs_per_epoch=0)
            out[f"valid/{objective}"] = probe(f"valid/{objective}", data, table,
                                              config.validate())
    print(hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest())


if __name__ == "__main__":
    main()
