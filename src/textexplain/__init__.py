"""Post-hoc explanation methods for small recurrent/convolutional text
classifiers, plus pointing-game evaluation harnesses."""

from .models import ARCHS, ForwardTrace, NetworkParams, Vocabulary, \
    embed, embedding_gradients, forward, forward_embedded, init_params, \
    load_checkpoint, save_checkpoint, score_batch
from .numerics import SeededRng, softmax
from .relevance import RelevanceMap, rmax
from .train import TrainConfig, accuracy, mean_loss, train
from .explain import METHOD_NAMES, ExplainOptions, explain

__all__ = [
    "ARCHS", "ForwardTrace", "NetworkParams", "Vocabulary",
    "embed", "embedding_gradients", "forward", "forward_embedded",
    "init_params", "load_checkpoint", "save_checkpoint", "score_batch",
    "SeededRng", "softmax",
    "RelevanceMap", "rmax",
    "TrainConfig", "accuracy", "mean_loss", "train",
    "METHOD_NAMES", "ExplainOptions", "explain",
]

__version__ = "0.1.0"
