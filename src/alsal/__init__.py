"""Matrix-completion active-learning toolkit for drug-response studies.

Latent-factor models trained by alternating gradient descent, an
ALS-plus-network composite with a classification-penalty loss, and a
pool-based active-learning engine with an expected-loss-minimization
query strategy.
"""

# set before the imports: the runner records it in every manifest
__version__ = "0.1.0"

from .data import (Dataset, MaskedMatrix, as_positions, parse_dataset,
                   select_common_concentrations, build_response_matrix,
                   generate_synthetic)
from .metrics import Curve, FoldSplit, kfold_split
from .als import (AlsConfig, EmbeddingPair, DivergenceError, init_embeddings,
                  als_epoch, train_als)
from .mlp import (LossConfig, MlpModel, MlpTrainConfig, init_mlp, backward,
                  rmsprop_step, train_mlp)
from .alsdl import (AlsdlConfig, AlsdlModel, build_features, train_alsdl,
                    alsdl_predict_positions)
from .active import (ActiveConfig, ActiveState, LearningCurvePoint, init_state,
                     query_orderly, query_random, query_uncertainty, query_elm,
                     run_active_learning)
from .runner import (ExperimentConfig, SyntheticSpec, Report, run_benchmark,
                     run_al_study, aggregate_concentrations, write_report)
