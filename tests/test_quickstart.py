"""The README's library quick start runs against the package root."""

import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_at_small_sizes(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from eulac import (" in code
    full_size = "sample_synthetic(spec, 500, 1000, 1000)"
    assert full_size in code
    code = code.replace(full_size, "sample_synthetic(spec, 60, 120, 50)")

    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)

    model, report, test = namespace["model"], namespace["report"], namespace["test"]
    assert 0.0 < namespace["theta"] <= 1.0
    assert report.selected in report.cells
    predictions = namespace["predictions"]
    assert predictions.shape == (len(test),)
    assert set(np.unique(predictions)) <= set(range(1, model.novel_label + 1))
