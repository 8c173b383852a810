"""Benchmark toolkit for graph rewiring with training-free message-passing
models."""

from .curvature import curvature_delta, curvature_distribution
from .datasets import load_canonical, load_dataset, load_tudataset
from .errors import Budget, BudgetExceeded, CompatibilityError, InputError
from .evaluation import (GraphTask, NodeTask, SearchSpace, make_splits,
                         model_select, significance, stratified_kfold)
from .graph import (DatasetStats, Graph, Normalization, OperatorKind,
                    build_graph, dataset_stats, diameter, edge_homophily,
                    shift_operator)
from .models import (ReadoutParams, ReservoirParams, augment, gesn_embed,
                     gesn_init, input_features, one_hot, pool, predict,
                     ridge_fit, ridge_solve)
from .rewiring import (RewireConfig, RewiredGraph, apply_rewiring,
                       cayley_graph, rewire_diffwire, rewire_egp, rewire_grlef,
                       rewire_sdrf, sl2_order)
from .spectral import (HeatOperator, PagerankOperator, ResistanceMatrix,
                       effective_resistance, heat_kernel, pagerank_kernel,
                       spectral_gap, spectral_radius)

__version__ = "0.1.0"
