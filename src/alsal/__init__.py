"""Matrix-completion active-learning toolkit for drug-response studies.

Latent-factor models trained by alternating gradient descent, an
ALS-plus-network composite with a classification-penalty loss, and a
pool-based active-learning engine with an expected-loss-minimization
query strategy.
"""

# pyproject.toml reads it; set before the imports, for the runner's manifests
__version__ = "0.1.0"

from .data import (Dataset, MaskedMatrix, as_positions, parse_dataset,
                   select_common_concentrations, build_response_matrix,
                   generate_synthetic, EmbeddingPair)
from .metrics import Curve, FoldSplit, kfold_split
from .als import (AlsConfig, DivergenceError, init_embeddings, als_epoch,
                  train_als)
from .mlp import (LossConfig, MlpModel, MlpTrainConfig, init_mlp, backward,
                  rmsprop_step, train_mlp)
from .alsdl import (AlsdlConfig, AlsdlModel, build_features, train_alsdl,
                    alsdl_predict_positions)
from .active import (ActiveConfig, ActiveState, LearningCurvePoint, init_state,
                     query_orderly, query_random, query_uncertainty, query_elm,
                     run_active_learning)
from .runner import ExperimentConfig, SyntheticSpec, run_benchmark, run_al_study
