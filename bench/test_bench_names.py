"""The benchmark calls only public pcgkit names that the roadmap keeps.

Private names can change under any refactor, and the names below are
planned for deletion; a benchmark that used either would break or stop
measuring the production path.
"""

import ast
import json
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
PCGKIT_MODULES = {"cli", "evaluate", "features", "ingest", "nnet", "synth",
                  "windows", "pcgkit"}
PLANNED_DELETIONS = {
    "frame_mean", "frame_median", "frame_mode", "frame_variance",
    "frame_skewness", "frame_kurtosis", "frame_shannon_energy",
    "frame_shannon_entropy", "frame_zcr", "frame_quantile_range",
    "frame_features", "frame_signal", "Frame", "FeatureVector",
    "cell_step", "backward", "copy_model",
}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def pcgkit_names_used():
    """Every name the benchmark reaches through a pcgkit module."""
    used = {func for _, func in spans.WRAPPED}
    for path in HERE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("pcgkit"):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                base = node.value
                # pk.<module>.<name> and <module>.<name>
                if isinstance(base, ast.Attribute):
                    base = ast.Name(id=base.attr)
                if isinstance(base, ast.Name) and base.id in PCGKIT_MODULES:
                    used.add(node.attr)
    return used


def test_only_public_pcgkit_names():
    used = pcgkit_names_used()
    assert "preprocess" in used and "run_trial" in used  # the scan sees calls
    assert not {n for n in used if _is_private(n)}


def test_no_names_planned_for_deletion():
    assert not pcgkit_names_used() & PLANNED_DELETIONS


def test_timed_path_entry_points():
    assert {func for _, func in spans.WRAPPED} >= {
        "generate_dataset", "write_wav", "preprocess", "frame_matrix",
        "extract_sequence", "normalize_sequence", "run_trial", "main"}


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = set(spans.LAYER_METRICS) | set(run.RUN_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.PER_LAYER_UNITS.get(name, "s") for name in layer}
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
