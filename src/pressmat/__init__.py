"""pressmat: BMI estimation and identity recognition from smart-bed pressure maps.

Pipeline: denoise sensor frames (spatial median + temporal Gaussian), extract
14 per-frame features (statistics, threshold counts, marching-squares isoline
features), then jointly estimate BMI and classify subject identity with a
deep multitask network trained by L-BFGS, evaluated under 10-fold
cross-validation against classical baselines.
"""

from .dataset import (
    Corpus,
    CorpusLoadError,
    GridSpec,
    PressureFrame,
    SubjectRecord,
    compute_bmi,
    load_corpus,
    merge_postures,
    save_corpus,
)
from .features import (
    FEATURE_NAMES,
    FeatureTable,
    Isoline,
    extract_all,
    extract_contour_features,
    extract_statistical,
    extract_table,
    load_feature_table,
    save_feature_table,
    select_contour_levels,
    trace_isolines,
)
from .mtnet import (
    MultitaskModel,
    MultitaskOutput,
    TrainConfig,
    fit_bmi_class_head,
    forward,
    load_model,
    save_model,
    train,
)
from .preprocess import denoise_corpus, median_filter, temporal_gaussian
from .synthgen import BodyModel, NoiseSpec, generate_corpus
from .baselines import (
    build_bmi_classes,
    gnb_classify,
    gnb_fit,
    kmeans,
    linreg_fit,
    linreg_predict,
)
from .evalharness import (
    EvaluationReport,
    FoldPlan,
    accuracy,
    confusion_matrix,
    drop_column_importance,
    make_folds,
    per_class_prf,
    r2,
    rmse,
    run_cv,
)

__version__ = "0.1.0"
