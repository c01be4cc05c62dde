"""The contracts of gikit's data classes: construction, positional and by
keyword, with its defaults and its checks; immutability; equality and hash
by value or by identity; a repr that names every field; and the manifest
columns and provenance JSON that the classes feed."""

import re

import numpy as np
import pytest

import gikit.sgi
from gikit import (
    CnrReport,
    Dataset,
    DatasetHeader,
    DriftProfile,
    Frame,
    ManifestRow,
    MeasurementRecord,
    NoiseModel,
    ObjectMask,
    ObjectScene,
    PatternModel,
    ReconImage,
    ReconResult,
    SgiAccumulator,
    Simulation,
    ValidationIssue,
    ValidationReport,
    binary_demo_scene,
    cli,
    export_image,
    open_container,
    write_dataset,
)
from gikit.fileio import MANIFEST_COLUMNS

IMAGE = [[0.0, 1.0], [0.5, 0.25]]


def _raises(message: str):
    """``pytest.raises(ValueError)`` whose message is exactly ``message``."""
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def _dataset() -> Dataset:
    return Dataset(DatasetHeader(2, 2, 3), [1.0, 2.0, 4.0], np.arange(12.0).reshape(3, 4))


def _manifest_row(**changes) -> ManifestRow:
    fields = dict(method="sgi1", n=8, k=1, drift_kind="none", noise_mean=0.0, cnr=1.5, pair_count=7,
                  wall_time_ms=2.5)
    return ManifestRow(**{**fields, **changes})


# Every class as (a factory of one instance, its fields in order).
CLASSES = {
    "Frame": (lambda: Frame(IMAGE), ("data",)),
    "MeasurementRecord": (lambda: MeasurementRecord(0, Frame(IMAGE), 1.5), ("index", "frame", "bucket")),
    "DatasetHeader": (lambda: DatasetHeader(4, 2, 8, 3, "p"), ("width", "height", "n", "seed", "provenance")),
    "Dataset": (_dataset, ("header", "buckets", "frame_matrix")),
    "ObjectScene": (lambda: ObjectScene(IMAGE), ("transmission",)),
    "ReconImage": (lambda: ReconImage(IMAGE), ("data",)),
    "ObjectMask": (lambda: ObjectMask([[True, False]]), ("data",)),
    "ValidationIssue": (lambda: ValidationIssue(3, "code", "message"), ("index", "code", "message")),
    "ValidationReport": (lambda: ValidationReport((ValidationIssue(None, "c", "m"),)), ("issues",)),
    "CnrReport": (lambda: CnrReport(1.0, 2.0, 1.0, 0.5, 0.25, 3, 4),
                  ("cnr", "mean_in", "mean_out", "var_in", "var_out", "n_in", "n_out")),
    "ReconResult": (lambda: ReconResult("g2", (ReconImage(IMAGE),), 4), ("method", "images", "count")),
    "PatternModel": (lambda: PatternModel("correlated-speckle", 1.5, 2.0, 0.5),
                     ("kind", "grain_radius", "step_shift", "jitter")),
    "DriftProfile": (lambda: DriftProfile("step", 0.5, 3.0), ("kind", "amplitude", "period_or_knots")),
    "NoiseModel": (lambda: NoiseModel(0.1, 0.2, "object-field"), ("mean", "std", "target")),
    "ManifestRow": (_manifest_row, (*MANIFEST_COLUMNS, "settings")),
}
BY_VALUE = {"DatasetHeader", "ValidationIssue", "ValidationReport", "CnrReport", "PatternModel", "DriftProfile",
            "NoiseModel", "ManifestRow"}
UNHASHABLE = {"ManifestRow"}  # its settings are a dict
MUTABLE = {"ManifestRow"}  # immutable as a named tuple: test_value_classes_are_named_tuples pins it


@pytest.mark.parametrize("name", CLASSES)
def test_the_repr_names_every_field(name):
    make, fields = CLASSES[name]
    text = repr(make())
    assert text.startswith(f"{name}(")
    assert [field for field in fields if f"{field}=" in text] == list(fields)


@pytest.mark.parametrize("name", sorted(set(CLASSES) - MUTABLE))
def test_fields_cannot_be_assigned(name):
    make, fields = CLASSES[name]
    value = make()
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", CLASSES)
def test_equality_is_by_value_or_by_identity(name):
    make, _ = CLASSES[name]
    first, second = make(), make()
    assert first == first
    if name in BY_VALUE:
        assert first == second and not first != second
        if name not in UNHASHABLE:
            assert hash(first) == hash(second) and len({first, second}) == 1
    else:
        assert first != second and len({first, second}) == 2


def test_constructors_take_positions_keywords_and_defaults():
    assert DatasetHeader(width=4, height=2, n=8) == DatasetHeader(4, 2, 8, None, "")
    assert PatternModel() == PatternModel(kind="iid-uniform", grain_radius=2.0, step_shift=1.0, jitter=0.0)
    assert DriftProfile() == DriftProfile(kind="none", amplitude=0.0, period_or_knots=None)
    assert NoiseModel() == NoiseModel(mean=0.0, std=0.0, target="bucket")
    assert NoiseModel(0.5).mean == 0.5 and NoiseModel(std=0.5).std == 0.5
    assert DriftProfile("linear", 0.3).period_or_knots is None

    record = MeasurementRecord(index=np.int64(2), frame=Frame(data=IMAGE), bucket=np.float32(1.5))
    assert type(record.index) is int and type(record.bucket) is float and record.bucket == 1.5
    dataset = Dataset(header=DatasetHeader(2, 2, 1), buckets=[1.0], frame_matrix=[[0.0, 1.0, 2.0, 3.0]])
    assert dataset.frame_matrix.dtype == np.float64 and not dataset.frame_matrix.flags.writeable
    assert ObjectScene(transmission=IMAGE).binary is False and ObjectScene([[0.0, 1.0]]).binary is True
    mask = ObjectMask(data=[[1, 0, 0]])
    assert mask.data.dtype == np.bool_ and (mask.n_in, mask.n_out) == (1, 2)
    assert (ReconImage(data=[[-1.0, 2.0]]).width, ReconImage([[-1.0], [2.0]]).height) == (2, 2)

    issue = ValidationIssue(index=None, code="c", message="m")
    assert ValidationReport(issues=()).ok and not ValidationReport((issue,)).ok
    assert CnrReport(cnr=1.0, mean_in=2.0, mean_out=1.0, var_in=0.5, var_out=0.25, n_in=3, n_out=4).n_out == 4
    result = ReconResult(method="ci", images=(ReconImage(IMAGE), ReconImage(IMAGE)), count=4)
    assert result.positive is result.images[0] is result.image and result.negative is result.images[1]

    row = ManifestRow("g2", 4, None, "none", None, None, 4, 1.0)
    assert row.settings == {} and row.settings is not ManifestRow("g2", 4, None, "none", None, None, 4, 1.0).settings
    assert row.csv_values() == ["g2", 4, "", "none", "", "", 4, 1.0]
    assert ManifestRow("g2", 4, None, "none", None, None, 4, 1.0, {"a": 1}).settings == {"a": 1}


def test_constructors_keep_their_checks_and_messages():
    with _raises("frame data must be a non-empty 2-D array, got shape (4,)"):
        Frame(np.ones(4))
    with _raises("frame contains non-finite values"):
        Frame([[np.nan]])
    with _raises("frame contains negative intensities"):
        Frame([[-1.0]])
    with _raises("header dimensions must be positive, got 0x2"):
        DatasetHeader(0, 2, 1)
    with _raises("header measurement count must be >= 1, got 0"):
        DatasetHeader(2, 2, 0)
    with _raises("buckets (3,) and frame matrix (2, 4) do not match n=2 frames of 2x2"):
        Dataset(DatasetHeader(2, 2, 2), [1.0, 2.0, 3.0], np.zeros((2, 4)))
    with _raises("frame matrix contains negative intensities"):
        Dataset(DatasetHeader(2, 2, 1), [1.0], [[0.0, 0.0, -1.0, 0.0]])
    with _raises("transmission must be a non-empty 2-D array, got shape (0, 2)"):
        ObjectScene(np.ones((0, 2)))
    with _raises("transmission values must lie in [0, 1]"):
        ObjectScene([[1.5]])
    with _raises("transmission contains non-finite values"):
        ObjectScene([[np.inf]])
    with _raises("image contains non-finite values"):
        ReconImage([[np.nan]])
    with _raises("mask must contain at least one inside and one outside pixel"):
        ObjectMask([[True, True]])
    with _raises("method 'g2' produces a single image"):
        ReconResult("g2", (ReconImage(IMAGE),), 4).negative

    with _raises("unknown pattern kind 'plaid', expected one of ('iid-uniform', 'correlated-speckle')"):
        PatternModel("plaid")
    with _raises("jitter must be finite, got nan"):
        PatternModel(jitter=float("nan"))
    with _raises("grain_radius, step_shift, and jitter must be >= 0"):
        PatternModel(step_shift=-1.0)
    with _raises("unknown drift kind 'tidal', expected one of "
                 "('none', 'linear', 'sinusoidal', 'step', 'random-walk')"):
        DriftProfile("tidal")
    with _raises("amplitude must be finite, got inf"):
        DriftProfile("linear", float("inf"))
    with _raises("drift amplitude must be >= 0"):
        DriftProfile("random-walk", -0.1)
    with _raises("drift amplitude must be < 1 so gains stay positive"):
        DriftProfile("sinusoidal", 1.0)
    with _raises("period_or_knots must be positive and finite"):
        DriftProfile("linear", 0.1, 0.0)
    with _raises("step drift needs at least one segment, got period_or_knots=0.5"):
        DriftProfile("step", 0.1, 0.5)
    with _raises("mean must be finite, got inf"):
        NoiseModel(float("inf"))
    with _raises("noise std must be >= 0"):
        NoiseModel(std=-1.0)
    with _raises("unknown noise target 'arm', expected one of ('bucket', 'object-field')"):
        NoiseModel(target="arm")


def test_value_classes_are_named_tuples():
    assert tuple(NoiseModel()) == (0.0, 0.0, "bucket") and DriftProfile()._asdict()["kind"] == "none"
    width, height, n, seed, provenance = DatasetHeader(4, 2, 8)
    assert (width, height, n, seed, provenance) == (4, 2, 8, None, "")
    row = _manifest_row()
    with pytest.raises(AttributeError):
        row.cnr = 2.0
    assert row._replace(cnr=2.0).cnr == 2.0 and row.cnr == 1.5

    # Changed copies are checked as new instances are.
    assert NoiseModel(0.1, 0.2)._replace(mean=0.3) == NoiseModel(0.3, 0.2, "bucket")
    assert DriftProfile("linear", 0.3)._replace(kind="step") == DriftProfile("step", 0.3)
    with _raises("noise std must be >= 0"):
        NoiseModel()._replace(std=-1.0)
    with _raises("drift amplitude must be < 1 so gains stay positive"):
        DriftProfile("random-walk", 2.0)._replace(kind="linear")
    with _raises("unknown pattern kind 'plaid', expected one of ('iid-uniform', 'correlated-speckle')"):
        PatternModel()._replace(kind="plaid")
    with _raises("header measurement count must be >= 1, got 0"):
        DatasetHeader(2, 2, 4)._replace(n=0)


def test_an_opened_container_is_a_value(tmp_path):
    write_dataset(_dataset(), tmp_path / "run.gid")
    container = open_container(tmp_path / "run.gid")
    assert container == open_container(tmp_path / "run.gid")
    assert hash(container) == hash(open_container(tmp_path / "run.gid"))
    assert repr(container).startswith("Container(path=") and "header=DatasetHeader(" in repr(container)
    first = container.first(2)
    assert (first.n, first.path, first.offset, container.n) == (2, container.path, container.offset, 3)
    assert first.header == DatasetHeader(2, 2, 2) and first != container
    with pytest.raises(AttributeError):
        container.offset = 0
    with _raises("count must be in [1, 3], got 0"):
        container.first(0)


def test_manifest_columns_keep_their_order():
    assert MANIFEST_COLUMNS == ("method", "n", "k", "drift_kind", "noise_mean", "cnr", "pair_count", "wall_time_ms")


def test_a_simulation_keeps_its_provenance_json():
    run = Simulation(binary_demo_scene(8, 8), n=16, seed=3, pattern=PatternModel("correlated-speckle", 1.5, 2.0, 0.5),
                     drift=DriftProfile("sinusoidal", 0.2, 8.0), noise=NoiseModel(0.1, 0.05, "object-field"))
    assert run.header.provenance == (
        '{"drift":{"amplitude":0.2,"kind":"sinusoidal","period_or_knots":8.0},"height":8,"n":16,'
        '"noise":{"mean":0.1,"std":0.05,"target":"object-field"},'
        '"pattern":{"grain_radius":1.5,"jitter":0.5,"kind":"correlated-speckle","step_shift":2.0},'
        '"scene_binary":true,"seed":3,"width":8}'
    )


@pytest.mark.parametrize("axis, values, drift, message", [
    ("drift-kind", "none,bogus", "none", "bad sweep value 'bogus' on axis drift-kind: unknown drift kind 'bogus'"),
    ("drift-kind", "none,linear", "random-walk:2",
     "bad sweep value 'linear' on axis drift-kind: drift amplitude must be < 1 so gains stay positive"),
    ("noise-mean", "0.1,nan", "none", "bad sweep value nan on axis noise-mean: mean must be finite, got nan"),
])
def test_sweep_points_keep_the_models_checks(tmp_path, capsys, axis, values, drift, message):
    export_image(ReconImage(binary_demo_scene(8, 8).transmission), tmp_path / "scene.pgm")
    with pytest.raises(SystemExit) as exited:
        cli.main(["sweep", "--scene", str(tmp_path / "scene.pgm"), "--axis", axis, "--values", values,
                  "--drift", drift, "--methods", "g2", "--n", "8", "--out", str(tmp_path / "sweep")])
    assert exited.value.code == 2
    assert f"gikit sweep: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_the_chunk_size_is_read_from_the_engine_module(monkeypatch):
    # Several tests shrink the engine's chunks through these names; a patch
    # that no longer reached it would leave them at the default size.
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 8)
    monkeypatch.setattr(gikit.sgi, "_GROUP_RECORDS", 16)
    acc = SgiAccumulator(mode=1)
    acc.push_block(0, np.ones(20), np.ones((20, 2, 2)))
    assert (acc._chunk, acc._group_rows, acc.records_seen - acc._summed) == (8, 16, 4)
    monkeypatch.setattr(gikit.sgi, "_chunk_rows", lambda pixels: 5)
    acc = SgiAccumulator(mode=1)
    acc.push_block(0, np.ones(12), np.ones((12, 2, 2)))
    assert (acc._chunk, acc.records_seen - acc._summed) == (5, 2)
