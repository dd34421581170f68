"""`repro render` CLI: writing, --check drift detection, the cache."""

from __future__ import annotations

from repro.cli import main
from repro.service import ArtifactStore

from .conftest import parse_markup


class TestRenderScheme:
    def test_writes_a_well_formed_svg(self, tmp_path, capsys):
        out = tmp_path / "scheme.svg"
        assert main(["render", "scheme", "example", "--out", str(out)]) == 0
        parse_markup(out.read_text(encoding="utf-8"))
        assert "repro.render/scheme" in out.read_text(encoding="utf-8")

    def test_stdout_with_dash(self, capsys):
        assert main(["render", "scheme", "example", "--out", "-"]) == 0
        parse_markup(capsys.readouterr().out)

    def test_check_passes_on_fresh_artifact(self, tmp_path):
        out = tmp_path / "scheme.svg"
        assert main(["render", "scheme", "example", "--out", str(out)]) == 0
        assert main(
            ["render", "scheme", "example", "--out", str(out), "--check"]
        ) == 0

    def test_check_exits_3_on_drift(self, tmp_path, capsys):
        out = tmp_path / "scheme.svg"
        assert main(["render", "scheme", "example", "--out", str(out)]) == 0
        out.write_text(
            out.read_text(encoding="utf-8") + "<!-- tampered -->\n",
            encoding="utf-8",
        )
        assert main(
            ["render", "scheme", "example", "--out", str(out), "--check"]
        ) == 3
        assert "render drift" in capsys.readouterr().err

    def test_check_exits_1_when_artifact_missing(self, tmp_path, capsys):
        out = tmp_path / "nope.svg"
        assert main(
            ["render", "scheme", "example", "--out", str(out), "--check"]
        ) == 1

    def test_check_rejects_stdout(self, capsys):
        assert main(
            ["render", "scheme", "example", "--out", "-", "--check"]
        ) == 1

    def test_unknown_design_path_errors(self, tmp_path, capsys):
        assert main(
            ["render", "scheme", str(tmp_path / "missing.xml"),
             "--out", "-"]
        ) == 1


class TestRenderCache:
    def test_second_render_hits_the_artifact_cache(self, tmp_path, capsys):
        cache = tmp_path / "art"
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "scheme", "example", "--cache", str(cache)]
        assert main(args + ["--out", str(out1)]) == 0
        assert "artifact cache miss" in capsys.readouterr().err
        assert main(args + ["--out", str(out2)]) == 0
        assert "artifact cache hit" in capsys.readouterr().err
        assert out1.read_bytes() == out2.read_bytes()
        assert len(ArtifactStore(cache)) == 1

    def test_scheme_and_floorplan_cache_separately(self, tmp_path):
        cache = tmp_path / "art"
        for renderer in ("scheme", "floorplan"):
            assert main(
                ["render", renderer, "example", "--cache", str(cache),
                 "--out", str(tmp_path / f"{renderer}.svg")]
            ) == 0
        assert len(ArtifactStore(cache)) == 2


class TestRenderFloorplan:
    def test_auto_device_selection(self, tmp_path):
        out = tmp_path / "plan.svg"
        assert main(["render", "floorplan", "example", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        parse_markup(text)
        assert "LX20T" in text  # smallest ladder device that places it

    def test_named_device(self, tmp_path):
        out = tmp_path / "plan.svg"
        assert main(
            ["render", "floorplan", "example", "--device", "LX50T",
             "--out", str(out)]
        ) == 0
        assert "LX50T" in out.read_text(encoding="utf-8")


class TestRenderReport:
    def test_empty_telemetry_dir_exits_0_with_no_data_page(
        self, tmp_path, capsys
    ):
        tel = tmp_path / "tel"
        tel.mkdir()
        out = tmp_path / "dash.html"
        assert main(["render", "report", str(tel), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        parse_markup(text)
        assert "no data recorded" in text

    def test_missing_telemetry_dir_exits_1(self, tmp_path, capsys):
        assert main(
            ["render", "report", str(tmp_path / "nope"), "--out", "-"]
        ) == 1
        assert "error:" in capsys.readouterr().err
