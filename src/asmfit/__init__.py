"""Statistical shape-model face alignment toolkit.

Train a PCA shape model plus per-landmark profile statistics and linear
SVM classifiers from annotated images, then fit landmarks to new images
with a multi-resolution, SVM-gated, edge-weighted local search.
"""

from .errors import AsmFitError
from .evaluation import EvalReport, evaluate, format_report
from .imaging import (
    GradientField,
    GrayImage,
    build_pyramid,
    canny_edges,
    equalize_histogram,
    sample_bilinear,
    sobel_gradients,
)
from .profiles import (
    Profile,
    ProfileStats,
    edge_weighted_cost,
    mahalanobis_cost,
)
from .dataset_io import (
    AnnotatedSample,
    LevelModel,
    ModelBundle,
    load_bundle,
    load_image,
    load_points_file,
    save_bundle,
    split_dataset,
    write_points_file,
)
from .scheme import DEFAULT_SCHEME, ContourGroup, LandmarkScheme
from .search import (
    FitConfig,
    FitResult,
    LevelFit,
    config_for_mode,
    fit,
    init_shape_from_box,
    search_landmarks,
)
from .shape_model import (
    ParamFit,
    Shape,
    ShapeModel,
    SimilarityTransform,
    build_shape_model,
    clamp_params,
    fit_params,
    gpa_align,
    synthesize,
)
from .svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    SvmTrainConfig,
    build_landmark_training_set,
    train_linear_svm,
)
from .synthetic import generate_face_dataset, write_dataset
from .training import TrainConfig, train_bundle

__version__ = "0.1.0"
