"""The determinism contract: goldens, cache keys, renderer identity.

Golden files pin the exact bytes of every renderer on fixed inputs: the
Sec. IV example (scheme + floorplan) and the synthetic report of
``sample_inputs``.  A legitimate output change must bump
``RENDERER_VERSION`` and regenerate the goldens with
``REPRO_UPDATE_GOLDENS=1 pytest tests/render``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro.render as render_pkg
from repro.core import problem_key
from repro.render import (
    RENDERERS,
    artifact_key,
    render_floorplan_svg,
    render_report_html,
    render_scheme_svg,
    renderer_meta,
)

from .sample_inputs import sample_report

GOLDENS = Path(__file__).parent / "goldens"


def check_golden(name: str, text: str) -> None:
    path = GOLDENS / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden {path}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1 pytest tests/render"
    )
    assert text == path.read_text(encoding="utf-8"), (
        f"{name} drifted from its golden; if the change is intentional, "
        "bump RENDERER_VERSION and regenerate with "
        "REPRO_UPDATE_GOLDENS=1 pytest tests/render"
    )


class TestGoldens:
    def test_scheme_golden(self, example_result):
        check_golden("example_scheme.svg", render_scheme_svg(example_result))

    def test_floorplan_golden(self, example_plan):
        check_golden(
            "example_floorplan.svg", render_floorplan_svg(example_plan)
        )

    def test_report_golden(self):
        check_golden("report_sample.html", render_report_html(sample_report()))


class TestArtifactKeys:
    def test_renderers_key_differently_for_one_problem(self, paper_example):
        pk = problem_key(paper_example)
        keys = {artifact_key(pk, r) for r in RENDERERS}
        assert len(keys) == len(RENDERERS)

    def test_key_is_stable(self, paper_example):
        pk = problem_key(paper_example)
        assert artifact_key(pk, "scheme") == artifact_key(pk, "scheme")

    def test_unknown_renderer_rejected(self, paper_example):
        with pytest.raises(ValueError, match="unknown renderer"):
            artifact_key(problem_key(paper_example), "pdf")

    def test_version_bump_changes_every_key(self, paper_example, monkeypatch):
        pk = problem_key(paper_example)
        before = artifact_key(pk, "scheme")
        monkeypatch.setattr(
            render_pkg, "RENDERER_VERSION", render_pkg.RENDERER_VERSION + 1
        )
        assert artifact_key(pk, "scheme") != before

    def test_meta_stamp_names_renderer_and_version(self):
        assert renderer_meta("scheme") == (
            f"repro.render/scheme v{render_pkg.RENDERER_VERSION}"
        )
