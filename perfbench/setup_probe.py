"""Time one cold set-up in a fresh interpreter and print it in seconds.

Usage: setup_probe.py SRC_DIR MANIFEST (--checkpoint FILE | --model-json JSON SEED)

Set-up is what a user pays before the first item: import ``poolnet``
(NumPy included), load the checkpoint or build the model, and load the
manifest.  Nothing else is imported before the clock starts.
"""

import json
import sys
import time


def main(argv: list[str]) -> None:
    src, manifest, mode = argv[0], argv[1], argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import poolnet
    if mode == "--checkpoint":
        poolnet.model_from_checkpoint(argv[3])
    else:
        poolnet.build_model(poolnet.ModelConfig(**json.loads(argv[3])), seed=int(argv[4]))
    poolnet.load_manifest(manifest, "saliency")
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
