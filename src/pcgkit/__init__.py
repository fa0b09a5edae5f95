"""Heart-sound (PCG) classification toolkit.

Pipeline: ingest -> windows -> features -> nnet -> evaluate, with a
deterministic synthetic generator (synth) for desk-scale experiments and a
CLI (cli) wrapping it all.
"""

from .errors import PcgError
from .evaluate import (
    Confusion,
    GridCell,
    Metrics,
    TrialResult,
    confusion,
    emit_results,
    extract_dataset,
    metrics,
    run_grid,
    run_trial,
    score,
    split,
)
from .features import (
    FEATURE_NAMES,
    FeatureSequence,
    extract_sequence,
    normalize_sequence,
    read_features,
    write_features,
)
from .ingest import (
    AudioRecord,
    Label,
    preprocess,
    read_wav,
    write_wav,
)
from .nnet import (
    BiLSTMModel,
    TrainConfig,
    TrainHistory,
    init_model,
    load_model,
    predict_batch,
    save_model,
    sgdm_step,
    train,
)
from .synth import SynthConfig, generate, generate_dataset
from .windows import (
    WindowShape,
    WindowSpec,
    frame_matrix,
    mainlobe_width,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)

__version__ = "0.11.0"
