"""Recipe for the checkpoint the model workloads load (data/model.ckpt).

    python3 perfbench/make_checkpoint.py

Trains the default architecture (hidden 128, 2 layers, batch 64, validation
0.1, rng seed 0) for 50 epochs at learning rate 0.005 on the lexicon of
generate_benchmark(seed=7), the benchmark whose 200-entry dictionary the
model workloads match against, and prints the file's SHA-256. On the shipped
test set the model scores about 0.75 under setup_4.

The benchmark refuses to run when the checkpoint's SHA-256 differs from
workloads.CHECKPOINT_SHA256. Retraining is deterministic for one machine and
BLAS build, but another BLAS may round differently and give other bytes; if
the checkpoint is ever replaced, update the digest in the same change and
re-measure the baseline.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import phonorm  # noqa: E402

SEED = 7
CONFIG = phonorm.TrainingConfig(epochs=50, learning_rate=0.005)


def main() -> int:
    bench = phonorm.generate_benchmark(seed=SEED, dict_size=200, train_size=1000)
    params, trace = phonorm.train(bench.lexicon, CONFIG)
    out = HERE / "data" / "model.ckpt"
    out.parent.mkdir(exist_ok=True)
    phonorm.save_checkpoint(out, params)
    report = phonorm.evaluate(bench.testset, params, bench.dictionary, setup=phonorm.SetupId.SETUP_4)
    print(f"final train loss {trace.final.train_loss:.4f}, setup_4 accuracy {report.accuracy:.3f}")
    print(f"sha256 {hashlib.sha256(out.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
