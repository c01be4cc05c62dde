"""Correlation ghost-imaging toolkit: simulation, reconstruction, evaluation.

The public names and the submodules resolve on first use (PEP 562), so
importing the package, or one submodule such as :mod:`gikit.cli`, loads no
other submodule.
"""

import importlib
import sys
from types import ModuleType  # not `import types`: gikit.types is a submodule

_EXPORTS = {
    "errors": (
        "DatasetValidationError",
        "DegenerateDivisorError",
        "DegeneratePartitionError",
        "DegenerateVarianceError",
        "FileFormatError",
        "GikitError",
        "InsufficientRecordsError",
    ),
    "types": (
        "Dataset",
        "DatasetHeader",
        "Frame",
        "MeasurementRecord",
        "ObjectMask",
        "ObjectScene",
        "ReconImage",
        "ValidationIssue",
        "ValidationReport",
        "frame_sum",
        "validate_dataset",
    ),
    "simulate": (
        "DriftProfile",
        "NoiseModel",
        "PatternModel",
        "Simulation",
        "apply_noise",
        "binary_demo_scene",
        "drift_gains",
        "generate_patterns",
        "simulate",
    ),
    "reconstruct": (
        "ReconResult",
        "recon_ci",
        "recon_delta_gi",
        "recon_dgi",
        "recon_g2",
        "recon_sgi",
        "sr_diagnostics",
    ),
    "sgi": ("SgiAccumulator",),
    "metrics": ("CnrReport", "cnr", "mask_from_scene", "normalize_minmax", "pearson"),
    "fileio": (
        "Container",
        "ManifestRow",
        "append_manifest_row",
        "decode_dataset",
        "encode_dataset",
        "export_image",
        "export_raw",
        "import_scene",
        "open_container",
        "read_dataset",
        "write_container",
        "write_dataset",
        "write_manifest",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "sweep"} - {"simulate"}  # gikit.simulate is the function

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The import system binds each loaded submodule onto its package. The
    name ``simulate`` is the public function, so the submodule of that name
    (``sys.modules["gikit.simulate"]``) is never bound over it."""

    def __setattr__(self, name, value):
        if name != "simulate" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
