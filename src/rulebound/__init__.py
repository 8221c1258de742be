"""Rule-constrained multi-label training with noisy-label self-correction.

Propositional rules over labels are compiled into a differentiable penalty
on predicted probabilities and added to the training loss; the same rules
flag suspect supervision, which the model later corrects from its own
confident predictions.
"""

from .data import (
    NOISE_MODES,
    AuditReport,
    Dataset,
    DatasetError,
    SynthesisBudgetError,
    audit,
    inject_noise,
    load_dataset,
    save_dataset,
    synthesize,
)
from .metrics import (
    CorrectionStats,
    LabelScores,
    MetricsReport,
    correction_report,
    cvr,
    exact_match,
    f1_scores,
)
from .model import (
    BCE_CLAMP,
    ModelParams,
    TrainConfig,
    bce_masked,
    forward,
    init_params,
    load_model,
    loss_grads,
    save_model,
    sgd_step,
    total_loss_and_grads,
)
from .relax import (
    BatchPenaltyResult,
    domain_loss,
    domain_loss_grad,
    rule_penalty_batch,
)
from .rules import (
    DuplicateLiteralError,
    EmptyAntecedentError,
    InvalidWeightError,
    LabelVocabulary,
    Literal,
    Rule,
    RuleError,
    RuleSet,
    RuleSyntaxError,
    UnknownLabelError,
    format_rule,
    parse_rules,
    reindex_ruleset,
    violated_rules,
    violation_matrix,
)
from .supervision import (
    CORRECTION_MODES,
    ORIGIN_GIVEN,
    ORIGIN_MASKED,
    ORIGIN_SELF_CORRECTED,
    SupervisionState,
    correct_labels,
    flag_inconsistent,
    init_supervision,
)
from .training import EpochRecord, evaluate, train

__version__ = "0.1.0"
