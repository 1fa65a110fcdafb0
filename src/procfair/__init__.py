"""procfair: training and auditing of procedurally fair classifiers.

The library measures procedural fairness of a binary classifier by comparing
feature-attribution explanations of matched cross-group point pairs, trains
models that regularize this comparison, and computes the usual distributive
fairness metrics (DP, DI, EOP, EOD) alongside.
"""

from .util import VERSION as __version__

from .data import (
    ColumnSchema,
    Dataset,
    SyntheticConfig,
    attach_fake_sensitive,
    dataset_dp,
    generate_synthetic,
    load_csv,
    pearson_select,
    preprocess,
    resample_unfair,
    split,
)
from .pairing import PairSet, build_pairs, select_eval_pairs
from .model import (
    AdamState,
    LinearParams,
    MlpParams,
    adam_init,
    adam_step,
    bce_loss_grads,
    gpf_loss_grads,
    linear_train,
    mlp_init,
    override_sensitive_weight,
)
from .explain import exact_shapley
from .fairness import (
    EvalSet,
    FairnessReport,
    MmdConfig,
    demographic_parity,
    disparate_impact,
    equal_opportunity,
    equalized_odds,
    gpf_fae,
    gpf_loss,
)
from .train import TrainConfig, TrainHistory, dp_proxy_grads, evaluate, train
from .sweeps import p_sweep, sweep_p_ws, sweep_ws
from .scenarios import (
    ResultBundle,
    ScenarioConfig,
    compare_scenarios,
    emit_sensitive_attributions,
    run_scenario,
)
