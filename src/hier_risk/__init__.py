"""Risk-minimizing correction for classifier likelihoods over a class
hierarchy, plus the evaluation and calibration tooling around it.

The usual flow: parse a hierarchy, build its confusion-cost matrix, then
re-rank per-sample likelihood vectors by expected cost instead of raw
probability. Severity metrics, reliability binning, and the file formats
live in their own modules and are re-exported here.
"""

from .calibration import (CalibrationReport, apply_temperature,
                          bin_confidences, ece, fit_temperature,
                          hierarchical_ece, mce)
from .dataio import (FormatError, load_calibration_report, load_hierarchy,
                     load_metrics_report, load_predictions, save_cost_matrix,
                     save_hierarchy, save_predictions)
from .metrics import MetricsReport, evaluate, full_report, metric_flaw_check
from .predictions import PredictionSet
from .riskmin import (CostMatrix, Ranking, batch_apply, batch_crm_top1,
                      build_cost_matrix, conditional_risk, crm_predict,
                      crm_rerank, likelihood_rank)
from .synth import SynthConfig, gen_predictions, gen_taxonomy, oracle_lca, \
    oracle_risk
from .taxonomy import (Taxonomy, TaxonomyError, collapse_to_depth,
                       node_height, parse_taxonomy,
                       shuffle_leaves)

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
    "CostMatrix",
    "FormatError",
    "MetricsReport",
    "PredictionSet",
    "Ranking",
    "SynthConfig",
    "Taxonomy",
    "TaxonomyError",
    "apply_temperature",
    "batch_apply",
    "batch_crm_top1",
    "bin_confidences",
    "build_cost_matrix",
    "collapse_to_depth",
    "conditional_risk",
    "crm_predict",
    "crm_rerank",
    "ece",
    "evaluate",
    "fit_temperature",
    "full_report",
    "gen_predictions",
    "gen_taxonomy",
    "hierarchical_ece",
    "likelihood_rank",
    "load_calibration_report",
    "load_hierarchy",
    "load_metrics_report",
    "load_predictions",
    "mce",
    "metric_flaw_check",
    "node_height",
    "oracle_lca",
    "oracle_risk",
    "parse_taxonomy",
    "save_cost_matrix",
    "save_hierarchy",
    "save_predictions",
    "shuffle_leaves",
    "__version__",
]
