"""Correlation ghost-imaging toolkit: simulation, reconstruction, evaluation."""

from .errors import (
    DatasetValidationError,
    DegenerateDivisorError,
    DegeneratePartitionError,
    DegenerateVarianceError,
    FileFormatError,
    GikitError,
    InsufficientRecordsError,
)
from .types import (
    Dataset,
    DatasetHeader,
    Frame,
    MeasurementRecord,
    ObjectMask,
    ObjectScene,
    ReconImage,
    ValidationIssue,
    ValidationReport,
    frame_sum,
    validate_dataset,
)
from .simulate import (
    DriftProfile,
    NoiseModel,
    PatternModel,
    Simulation,
    apply_noise,
    binary_demo_scene,
    drift_gains,
    generate_patterns,
    simulate,
)
from .reconstruct import (
    ReconResult,
    SgiAccumulator,
    recon_ci,
    recon_delta_gi,
    recon_dgi,
    recon_g2,
    recon_sgi,
    sr_diagnostics,
)
from .metrics import CnrReport, cnr, mask_from_scene, normalize_minmax, pearson
from .fileio import (
    Container,
    ManifestRow,
    append_manifest_row,
    decode_dataset,
    encode_dataset,
    export_image,
    export_raw,
    import_scene,
    open_container,
    read_dataset,
    write_container,
    write_dataset,
    write_manifest,
)

__version__ = "0.1.0"
