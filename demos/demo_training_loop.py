"""Train the matcher on a generated corpus and watch the loss and the
held-out AUC move, then round-trip the checkpoint."""

import os
import tempfile

from synmatch import corpus, embeddings, evaluation, synthetic, training
from synmatch.rng import stream_rng

work = tempfile.mkdtemp(prefix="synmatch_demo_")
paths = synthetic.generate(os.path.join(work, "data"), clusters=10,
                           entities_per_cluster=3, contexts_per_entity=15,
                           vocab_size=400, noise=0.4, seed=1)

data = corpus.ingest(paths["corpus"], paths["synsets"])
data.store = corpus.split_synsets(data.store, valid_frac=0.2, test_frac=0.2,
                                  rng=stream_rng(1, "ingest"))
table = embeddings.load_embeddings(paths["embeddings"], data.vocab)
print(f"{len(data.store.entities('train'))} train entities, "
      f"{len(data.store.entities('valid'))} valid, "
      f"{len(data.store.entities('test'))} test")

config = training.TrainConfig(objective="siamese", d_ce=16,
                              contexts_per_entity=4, max_context_len=13,
                              learning_rate=0.001, batch_size=8, epochs=6,
                              seed=1).validate()
print(config.to_dict())

params, history = training.train(config, data, table)
for h in history:
    print(f"epoch {h['epoch']}: loss {h['loss']:.4f}, valid AUC {h['valid_auc']:.4f}")

report = evaluation.evaluate(params, config, data, table, split="test", seed=1)
print("held-out report:")
print(report.to_text(), end="")

# checkpoints are canonical JSON; saving twice gives identical bytes
ckpt = os.path.join(work, "model.json")
training.save_checkpoint(ckpt, params, config)
loaded, loaded_config, _ = training.load_checkpoint(ckpt)
training.save_checkpoint(ckpt + ".again", loaded, loaded_config)
same = open(ckpt, "rb").read() == open(ckpt + ".again", "rb").read()
print("checkpoint round-trip byte-identical:", same)
