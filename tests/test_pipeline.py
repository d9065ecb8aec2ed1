import csv
import json
from pathlib import Path

import pytest

from molmine import decompose
from molmine.corpus import generate_corpus
from molmine.errors import ConfigError, InputError
from molmine.pipeline import PipelineConfig, RunManifest, run_pipeline
from molmine.rules import Thresholds
from dot_grammar import edge_directions, parse_dot

YEAR_FILES = ("rules_{y}.csv", "communities_{y}.json", "attributes_{y}.csv", "snapshot_{y}.dot")
GLOBAL_FILES = ("dendrogram.json", "timelines.json", "noise.csv", "manifest.json")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(generate_corpus(60, 600, (2001, 2003), seed=7), encoding="utf-8")
    return path


def snapshot(out_dir: Path) -> dict[str, str]:
    return {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def read_csv_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def drop_timestamp(manifest_text: str) -> dict:
    data = json.loads(manifest_text)
    assert data.pop("timestamp")
    return data


class TestArtifacts:
    def test_inventory_and_counts(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        manifest = run_pipeline(cfg)
        out = Path(cfg.out_dir)

        expected = {f.format(y=y) for y in (2001, 2002, 2003) for f in YEAR_FILES}
        expected |= set(GLOBAL_FILES)
        assert {p.name for p in out.iterdir()} == expected

        assert manifest.totals == {
            "publications": 600,
            "skipped": 0,
            "rules": 54,
            "communities": 21,
            "timelines": 3,
        }
        for entry in manifest.years:
            assert entry["rules"] == 18
            assert entry["communities"] == 7
            assert entry["noise_fraction"] == round(5 / 7, 12)

    def test_manifest_counts_match_artifact_rows(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        manifest = run_pipeline(cfg)
        out = Path(cfg.out_dir)
        for entry in manifest.years:
            y = entry["year"]
            rules_rows = read_csv_rows(out / f"rules_{y}.csv")
            assert len(rules_rows) == entry["rules"]
            comm_payload = json.loads((out / f"communities_{y}.json").read_text())
            assert comm_payload["year"] == y
            assert len(comm_payload["communities"]) == entry["communities"]
            attr_rows = read_csv_rows(out / f"attributes_{y}.csv")
            assert len(attr_rows) == entry["communities"]
        timelines = json.loads((out / "timelines.json").read_text())["timelines"]
        assert len(timelines) == manifest.totals["timelines"]
        dend = json.loads((out / "dendrogram.json").read_text())
        assert len(dend["leaves"]) == manifest.totals["communities"]

    def test_dot_snapshots_round_trip(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        for y in (2001, 2002, 2003):
            name, nodes, edges = parse_dot((out / f"snapshot_{y}.dot").read_text())
            assert name == f"snapshot_{y}"
            directions = edge_directions(edges)
            rules = read_csv_rows(out / f"rules_{y}.csv")
            assert directions == {(r["antecedent"], r["consequent"]) for r in rules}
            assert set(nodes) == {n for e in directions for n in e}

    def test_noise_csv(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        run_pipeline(cfg)
        text = (Path(cfg.out_dir) / "noise.csv").read_text()
        assert text == (
            "year,noise_fraction,n_communities\n"
            "2001,0.714285714286,7\n"
            "2002,0.714285714286,7\n"
            "2003,0.714285714286,7\n"
        )


class TestDeterminism:
    def test_identical_bytes_across_runs(self, corpus_path, tmp_path):
        snaps = []
        for run_idx in range(3):
            out_dir = tmp_path / f"out{run_idx}"
            cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(out_dir))
            run_pipeline(cfg)
            snaps.append(snapshot(out_dir))
        base = snaps[0]
        for other in snaps[1:]:
            assert set(other) == set(base)
            for name in base:
                if name == "manifest.json":
                    assert drop_timestamp(other[name]) == drop_timestamp(base[name])
                else:
                    assert other[name] == base[name], f"{name} differs"

    def test_manifest_excludes_execution_knobs(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        manifest = run_pipeline(cfg)
        assert "out_dir" not in manifest.config
        assert "jobs" not in manifest.config
        assert manifest.config["seed"] == 0

    def test_sampling_is_deterministic_but_thins(self, corpus_path, tmp_path):
        cfgs = [
            PipelineConfig(
                inputs=(str(corpus_path),),
                out_dir=str(tmp_path / f"out{i}"),
                sample=0.5,
                seed=11,
            )
            for i in range(2)
        ]
        manifests = [run_pipeline(c) for c in cfgs]
        assert snapshot(Path(cfgs[0].out_dir)).keys() == snapshot(Path(cfgs[1].out_dir)).keys()
        a, b = (snapshot(Path(c.out_dir)) for c in cfgs)
        for name in a:
            if name != "manifest.json":
                assert a[name] == b[name]
        for entry in manifests[0].years:
            assert entry["transactions"] < 200  # strictly thinner than the full bucket


class TestDescribedOnce:
    @pytest.mark.parametrize("identity", ["structural", "membership"])
    def test_one_description_per_community(self, corpus_path, tmp_path, monkeypatch, identity):
        calls = []
        describe = decompose._describe

        def counted(c):
            calls.append((c.year, c.id))
            return describe(c)

        monkeypatch.setattr(decompose, "_describe", counted)
        cfg = PipelineConfig(
            inputs=(str(corpus_path),), identity=identity, out_dir=str(tmp_path / "out")
        )
        manifest = run_pipeline(cfg)
        assert manifest.totals["communities"] == 21
        assert len(calls) == len(set(calls)) == 21


class TestEmptyAndErrors:
    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = PipelineConfig(inputs=(str(empty),), out_dir=str(tmp_path / "out"))
        manifest = run_pipeline(cfg)
        out = Path(cfg.out_dir)
        assert {p.name for p in out.iterdir()} == set(GLOBAL_FILES)
        assert manifest.totals == {
            "publications": 0,
            "skipped": 0,
            "rules": 0,
            "communities": 0,
            "timelines": 0,
        }
        dend = json.loads((out / "dendrogram.json").read_text())
        assert dend["leaves"] == [] and dend["merges"] == [] and dend["newick"] == ";"
        assert json.loads((out / "timelines.json").read_text())["timelines"] == []
        assert (out / "noise.csv").read_text() == "year,noise_fraction,n_communities\n"

    def test_year_range_spans_empty_years(self, corpus_path, tmp_path):
        cfg = PipelineConfig(
            inputs=(str(corpus_path),),
            year_range=(2000, 2004),
            out_dir=str(tmp_path / "out"),
        )
        manifest = run_pipeline(cfg)
        assert [e["year"] for e in manifest.years] == [2000, 2001, 2002, 2003, 2004]
        assert manifest.years[0]["transactions"] == 0
        assert manifest.years[0]["rules"] == 0
        assert (Path(cfg.out_dir) / "rules_2000.csv").read_text() == (
            "antecedent,consequent,support,confidence,lift\n"
        )

    def test_missing_input(self, tmp_path):
        cfg = PipelineConfig(inputs=(str(tmp_path / "nope.jsonl"),), out_dir=str(tmp_path / "out"))
        with pytest.raises(InputError, match="cannot read input"):
            run_pipeline(cfg)

    def test_validation_errors(self, corpus_path, tmp_path):
        out = str(tmp_path / "out")
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(inputs=(), out_dir=out))
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(inputs=(str(corpus_path),), fmt="yaml", out_dir=out))
        with pytest.raises(ConfigError):
            run_pipeline(
                PipelineConfig(inputs=(str(corpus_path),), year_range=(2003, 2001), out_dir=out)
            )
        with pytest.raises(ConfigError):
            run_pipeline(
                PipelineConfig(
                    inputs=(str(corpus_path), str(corpus_path)), out_dir=out
                )
            )
        with pytest.raises(ConfigError):
            run_pipeline(
                PipelineConfig(
                    inputs=(str(corpus_path),),
                    thresholds=Thresholds(min_support=2.0),
                    out_dir=out,
                )
            )

    def test_strict_mode_propagates_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "p1", "year": 1994, "authors": ["A"]}\nnot json\n')
        lenient = PipelineConfig(inputs=(str(bad),), out_dir=str(tmp_path / "out1"))
        manifest = run_pipeline(lenient)
        assert manifest.totals["publications"] == 1
        assert manifest.totals["skipped"] == 1
        strict = PipelineConfig(inputs=(str(bad),), strict=True, out_dir=str(tmp_path / "out2"))
        with pytest.raises(InputError, match="line 2"):
            run_pipeline(strict)

    def test_year_failures_carry_year_context(self, corpus_path, tmp_path, monkeypatch):
        import molmine.pipeline as pipeline_mod

        def boom(transactions, thresholds):
            raise InputError("boom")

        monkeypatch.setattr(pipeline_mod, "mine_rules", boom)
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        with pytest.raises(InputError, match="year 2001: boom"):
            run_pipeline(cfg)

    def test_manifest_json_shape(self, corpus_path, tmp_path):
        cfg = PipelineConfig(inputs=(str(corpus_path),), out_dir=str(tmp_path / "out"))
        manifest = run_pipeline(cfg)
        assert isinstance(manifest, RunManifest)
        data = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert list(data) == [
            "tool_version", "timestamp", "input_sha256", "config", "years", "totals",
        ]
        assert data["tool_version"]
        assert len(data["input_sha256"]) == 64
        assert data == manifest.to_json_dict()
