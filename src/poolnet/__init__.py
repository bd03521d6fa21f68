"""Pooling-centric salient-object detection on a self-contained autograd engine."""

import os as _os

from .config import thread_cap as _thread_cap
from .errors import ConfigError as _ConfigError


def _cap_threads() -> None:
    # Must run before numpy is imported anywhere, or the BLAS pools ignore it.
    try:
        cap = _thread_cap()
    except _ConfigError:
        return  # import cannot fail; the CLI reports a bad value with exit 2
    if cap is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(var, str(cap))


_cap_threads()

from .config import ModelConfig, RunConfig, TrainConfig, ablation_configs  # noqa: E402
from .errors import (CheckpointError, ConfigError, DataError, NumericError,  # noqa: E402
                     PoolNetError, ShapeError)
from .tensor import (Tensor, backward, default_dtype, get_default_dtype,  # noqa: E402
                     no_grad, set_default_dtype)
from .losses import balanced_bce_with_logits, bce_with_logits  # noqa: E402
from .metrics import (MetricsRecord, PRCurve, evaluate_pairs, f_measure, mae,  # noqa: E402
                      max_f, pr_sweep)
from .model import (ModelOutput, SaliencyNet, build_model, model_from_checkpoint,  # noqa: E402
                    save_model_with_config)
from .optim import Adam, lr_at  # noqa: E402
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from .data import (Manifest, Sample, load_manifest, pad_to_multiple,  # noqa: E402
                   synth_edge_dataset, synth_saliency_dataset)
from .train import TrainResult, train_model  # noqa: E402
from .inference import predict_sample, run_inference  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "Adam", "CheckpointError", "ConfigError", "DataError", "Manifest",
    "MetricsRecord", "ModelConfig", "ModelOutput", "NumericError", "PRCurve",
    "PoolNetError", "RunConfig", "SaliencyNet", "Sample", "ShapeError",
    "Tensor", "TrainConfig", "TrainResult", "ablation_configs", "backward",
    "balanced_bce_with_logits", "bce_with_logits", "build_model",
    "default_dtype", "evaluate_pairs", "f_measure", "get_default_dtype",
    "load_checkpoint", "load_manifest", "lr_at", "mae", "max_f",
    "model_from_checkpoint", "no_grad", "pad_to_multiple", "pr_sweep",
    "predict_sample", "run_inference", "save_checkpoint", "save_model_with_config",
    "set_default_dtype", "synth_edge_dataset", "synth_saliency_dataset",
    "train_model",
]
