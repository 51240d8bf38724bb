"""Social recommendation via disentangled heterogeneous graph message passing."""

from .diffengine import AdamState, adam_step, finite_diff_check
from .evaluation import (AblationVariant, EvalReport, evaluate,
                         export_memory_attention, run_ablation)
from .hetgraph import (HeteroGraph, Split, build_graph, load_edge_file,
                       split_leave_one_out)
from .model import (EdgeType, FULL_VARIANT, MemoryBank, ModelParams, ModelVariant,
                    forward)
from .training import (Checkpoint, TrainingConfig, bpr_loss, check_model_gradients,
                       load_checkpoint, save_checkpoint, train_epoch, train_model)

__version__ = "0.1.0"

__all__ = [
    "AblationVariant", "AdamState", "Checkpoint", "EdgeType", "EvalReport",
    "FULL_VARIANT", "HeteroGraph", "MemoryBank", "ModelParams", "ModelVariant",
    "Split", "TrainingConfig", "adam_step", "bpr_loss", "build_graph",
    "check_model_gradients", "evaluate", "export_memory_attention",
    "finite_diff_check", "forward", "load_checkpoint", "load_edge_file",
    "run_ablation", "save_checkpoint", "split_leave_one_out",
    "train_epoch", "train_model",
]
