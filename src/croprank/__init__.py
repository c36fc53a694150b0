"""croprank: composition-aware crop proposal and ranking.

A self-contained pipeline: a small autodiff engine, a patch encoder
with a query decoder whose cross attention is steered by fused
composition heatmaps, Hungarian-matched training with soft and
negative supervision, rank-based accuracy metrics, and a synthetic
dataset with a planted optimal crop for end-to-end verification.
"""

from .assignment import (
    Assignment,
    LossWeights,
    TrainExample,
    assign,
    hungarian,
    train_step,
    training_loss,
)
from .composition import (
    ActivationMap,
    ClassProbabilities,
    CompositionPrior,
    fuse_cams,
    make_prior,
    resample_to_grid,
)
from .dataio import (
    DatasetRecord,
    SyntheticScene,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    make_scene,
    read_tensor,
    save_checkpoint,
    save_dataset,
    write_tensor,
)
from .decoder import (
    HeadOutputs,
    ModelConfig,
    ModelState,
    Prediction,
    decode,
    encode,
    forward,
    forward_train,
    init_state,
    predict_heads,
)
from .errors import CropError
from .geometry import CropBox, ScoredCrop, from_corners
from .metrics import EvalExample, MetricsReport, build_report
from .tensor import Tensor, backward, no_grad, sgd_step

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
