import json

import pytest

from molmine.cli import main
from molmine.corpus import generate_corpus
from molmine.ingest import parse_jsonl
from dot_grammar import edge_directions, parse_dot


@pytest.fixture
def corpus(tmp_path):
    """A small two-year corpus file generated through the CLI itself."""
    path = tmp_path / "corpus.jsonl"
    rc = main(
        [
            "gen-corpus",
            "--authors", "60",
            "--pubs", "600",
            "--years", "2001:2002",
            "--seed", "7",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "molmine" in capsys.readouterr().out

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--frobnicate"])
        assert exc.value.code == 2


class TestIngest:
    def test_happy_path_to_stdout(self, corpus, capsys):
        rc, out, err = run(capsys, "ingest", "--input", str(corpus))
        assert rc == 0
        pubs = parse_jsonl(out).publications
        assert len(pubs) == 600
        assert [p.year for p in pubs] == sorted(p.year for p in pubs)
        assert "600 publications in 2 year buckets (0 skipped)" in err

    def test_year_filter(self, corpus, capsys):
        rc, out, _ = run(capsys, "ingest", "--input", str(corpus), "--years", "2002:2002")
        assert rc == 0
        assert {p.year for p in parse_jsonl(out).publications} == {2002}

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc, _, err = run(capsys, "ingest", "--input", str(tmp_path / "nope.jsonl"))
        assert rc == 1
        assert err.startswith("error:")

    def test_bad_year_range_exits_2(self, corpus, capsys):
        rc, _, err = run(capsys, "ingest", "--input", str(corpus), "--years", "abc")
        assert rc == 2
        assert err.startswith("config error:")

    def test_strict_mode_exits_1_on_bad_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "p1", "year": 1994, "authors": ["A"]}\nnot json\n')
        rc, _, _ = run(capsys, "ingest", "--input", str(bad))
        assert rc == 0  # lenient by default
        rc, _, err = run(capsys, "ingest", "--input", str(bad), "--strict")
        assert rc == 1
        assert "line 2" in err

    def test_multiple_inputs_combine(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"id": "p1", "year": 1994, "authors": ["A", "B"]}\n')
        b.write_text('{"id": "p2", "year": 1995, "authors": ["C"]}\n')
        rc, out, _ = run(capsys, "ingest", "--input", str(a), str(b))
        assert rc == 0
        assert len(parse_jsonl(out).publications) == 2


class TestMine:
    def test_mine_year_to_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "rules.csv"
        rc, _, err = run(
            capsys, "mine", "--input", str(corpus), "--year", "2001", "--out", str(out)
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "antecedent,consequent,support,confidence,lift"
        assert len(lines) == 1 + 18  # planted: 7 star + 6 clique + 5 noise
        assert "18 rules from 300 transactions" in err

    def test_threshold_flags(self, corpus, capsys):
        rc, out, _ = run(
            capsys, "mine", "--input", str(corpus), "--year", "2001",
            "--min-support", "0", "--min-confidence", "0", "--min-lift", "0",
        )
        assert rc == 0
        assert len(out.splitlines()) > 19  # looser thresholds admit more rules

    def test_bad_threshold_exits_2(self, corpus, capsys):
        rc, _, err = run(capsys, "mine", "--input", str(corpus), "--min-support", "2")
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "command,value",
        [("mine", "inf"), ("mine", "nan"), ("pipeline", "nan"), ("config", float("inf"))],
    )
    def test_non_finite_min_lift_exits_2(self, corpus, tmp_path, capsys, command, value):
        out_dir = tmp_path / "out"
        if command == "config":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"input": [str(corpus)], "min_lift": value}))
            argv = ["pipeline", "--config", str(config), "--out-dir", str(out_dir)]
        elif command == "pipeline":
            argv = ["pipeline", "--input", str(corpus), "--min-lift", value,
                    "--out-dir", str(out_dir)]
        else:
            argv = ["mine", "--input", str(corpus), "--min-lift", value]
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and err.startswith("config error:") and "min_lift" in err
        assert not out_dir.exists()

    def test_sampling_flags(self, corpus, capsys):
        rc1, out1, _ = run(
            capsys, "mine", "--input", str(corpus), "--year", "2001",
            "--sample", "0.5", "--seed", "3",
        )
        rc2, out2, _ = run(
            capsys, "mine", "--input", str(corpus), "--year", "2001",
            "--sample", "0.5", "--seed", "3",
        )
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_sampled_year_matches_pipeline(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc, _, _ = run(
            capsys, "pipeline", "--input", str(corpus), "--sample", "0.5", "--seed", "3",
            "--out-dir", str(out_dir),
        )
        assert rc == 0
        staged = tmp_path / "rules_2002.csv"
        rc, _, _ = run(
            capsys, "mine", "--input", str(corpus), "--year", "2002",
            "--sample", "0.5", "--seed", "3", "--out", str(staged),
        )
        assert rc == 0
        assert staged.read_bytes() == (out_dir / "rules_2002.csv").read_bytes()


class TestDecompose:
    def test_from_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("# star\nL1 -> C\nL2 -> C\nA -> B\nB -> A\n")
        comms = tmp_path / "communities.json"
        rc, out, err = run(
            capsys, "decompose", "--edges", str(edges), "--year", "1994",
            "--out-communities", str(comms),
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "year,community_id,motif,arity,SB,BR,DI,NU,RE,TR"
        assert lines[1] == "1994,0,bridge-pair,2-ary,0,1,0,2,2,2"
        assert lines[2] == "1994,1,star-in,2-ary,2,0,0,3,1,2"
        payload = json.loads(comms.read_text())
        assert payload["year"] == 1994
        assert [c["id"] for c in payload["communities"]] == [0, 1]
        assert "2 communities over 5 nuclei" in err

    def test_from_rules_csv(self, corpus, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        run(capsys, "mine", "--input", str(corpus), "--year", "2001", "--out", str(rules))
        rc, out, _ = run(capsys, "decompose", "--rules", str(rules), "--year", "2001")
        assert rc == 0
        motifs = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert sorted(motifs) == ["diamond"] + ["pair"] * 5 + ["star-in"]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        rc, _, err = run(capsys, "decompose")
        assert rc == 2 and "exactly one" in err
        edges = tmp_path / "g.edges"
        edges.write_text("A -> B\n")
        rc, _, _ = run(capsys, "decompose", "--edges", str(edges), "--rules", str(edges))
        assert rc == 2

    def test_malformed_edge_line_exits_1(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("A -> B\nB ->\n")
        rc, _, err = run(capsys, "decompose", "--edges", str(edges))
        assert rc == 1
        assert "line 2" in err

    def test_duplicate_rule_exits_1(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text(
            "antecedent,consequent,support,confidence,lift\n"
            "A,B,0.5,1,2\nA,B,0.5,1,2\n"
        )
        rc, _, err = run(capsys, "decompose", "--rules", str(rules))
        assert rc == 1
        assert "duplicate rule" in err


class TestCluster:
    @pytest.fixture
    def attributes(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("L1 -> C\nL2 -> C\nA -> B\nX -> Y\n")
        out = tmp_path / "attrs.csv"
        run(capsys, "decompose", "--edges", str(edges), "--year", "1994", "--out-attributes", str(out))
        return out

    def test_cluster_with_k(self, attributes, capsys):
        rc, out, err = run(capsys, "cluster", "--attributes", str(attributes), "--k", "2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["linkage"] == "average"
        assert len(payload["leaves"]) == 3
        assert len(payload["merges"]) == 2
        cut = payload["cut"]
        assert cut["k"] == 2 and cut["height"] is None
        # the two pairs are identical vectors -> same cluster; the star stands alone
        assert cut["assignments"] == {
            "1994/0": "1994/0",
            "1994/1": "1994/1",
            "1994/2": "1994/0",
        }
        assert "clustered 3 communities" in err

    def test_cut_height(self, attributes, capsys):
        rc, out, _ = run(
            capsys, "cluster", "--attributes", str(attributes), "--cut-height", "0.0"
        )
        assert rc == 0
        payload = json.loads(out)
        assert len(set(payload["cut"]["assignments"].values())) == 2

    def test_k_and_height_exclusive(self, attributes, capsys):
        rc, _, err = run(
            capsys, "cluster", "--attributes", str(attributes),
            "--k", "2", "--cut-height", "1.0",
        )
        assert rc == 2 and "mutually exclusive" in err

    def test_bad_k_exits_2(self, attributes, capsys):
        rc, _, _ = run(capsys, "cluster", "--attributes", str(attributes), "--k", "0")
        assert rc == 2

    def test_duplicate_leaf_ids_exit_1(self, attributes, capsys):
        rc, _, err = run(capsys, "cluster", "--attributes", str(attributes), str(attributes))
        assert rc == 1 and "duplicate attribute row for community 1994/0" in err

    @pytest.mark.parametrize("height", ["nan", "inf", "-inf"])
    def test_non_finite_cut_height_exits_2(self, attributes, capsys, height):
        rc, out, err = run(
            capsys, "cluster", "--attributes", str(attributes), f"--cut-height={height}"
        )
        assert rc == 2 and "finite" in err and out == ""

    def test_empty_attributes_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("year,community_id,motif,arity,SB,BR,DI,NU,RE,TR\n")
        rc, _, err = run(capsys, "cluster", "--attributes", str(empty))
        assert rc == 1 and "no attribute rows" in err

    @pytest.mark.parametrize("digits", [300, 400])
    def test_huge_value_exits_1(self, attributes, tmp_path, capsys, digits):
        # 300 digits overflow the distance matrix, 400 the float conversion
        big = tmp_path / "big.csv"
        big.write_text(
            "year,community_id,motif,arity,SB,BR,DI,NU,RE,TR\n"
            "1995,0,pair,2-ary,1,0,0,2,1,1\n"
            f"1995,1,pair,2-ary,{'9' * digits},0,0,2,1,1\n"
        )
        rc, out, err = run(capsys, "cluster", "--attributes", str(attributes), str(big))
        assert rc == 1 and "line 3" in err and out == ""

    @pytest.mark.parametrize(
        "flags,readable",
        [
            (["--k", "2", "--cut-height", "1"], False),
            (["--cut-height", "nan"], False),
            (["--cut-height", "-1"], False),
            (["--k", "0"], False),
            (["--k", "4"], True),  # the fixture holds 3 rows
        ],
    )
    def test_bad_cut_exits_2_before_clustering(
        self, attributes, tmp_path, capsys, monkeypatch, flags, readable
    ):
        import molmine.cli as cli_mod

        def no_hcluster(*args, **kwargs):
            raise AssertionError("hcluster must not run")

        monkeypatch.setattr(cli_mod, "hcluster", no_hcluster)
        path = attributes if readable else tmp_path / "missing.csv"
        rc, out, err = run(capsys, "cluster", "--attributes", str(path), *flags)
        assert rc == 2 and err.startswith("config error:") and out == ""


class TestTimeline:
    @pytest.fixture
    def snapshots(self, tmp_path, capsys):
        paths = []
        for year, text in [
            (1994, "A -> B\nL1 -> C\nL2 -> C\n"),
            (1995, "X -> Y\n"),
        ]:
            edges = tmp_path / f"g{year}.edges"
            edges.write_text(text)
            out = tmp_path / f"communities_{year}.json"
            run(
                capsys, "decompose", "--edges", str(edges), "--year", str(year),
                "--out-communities", str(out), "--out-attributes", str(tmp_path / f"a{year}.csv"),
            )
            paths.append(out)
        return paths

    def test_structural_timelines(self, snapshots, tmp_path, capsys):
        noise = tmp_path / "noise.csv"
        rc, out, err = run(
            capsys, "timeline", "--communities", *map(str, snapshots),
            "--out-noise", str(noise),
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["identity"] == "structural"
        by_motif = {t["signature"]["motif"]: t for t in payload["timelines"]}
        assert by_motif["pair"]["years_present"] == [1994, 1995]
        assert by_motif["pair"]["lifecycle"] == "constant"
        assert by_motif["star-in"]["years_present"] == [1994]
        assert by_motif["star-in"]["lifecycle"] == "transient"
        assert noise.read_text() == (
            "year,noise_fraction,n_communities\n1994,0.5,2\n1995,1,1\n"
        )
        assert "2 timelines" in err

    def test_membership_mode(self, snapshots, capsys):
        rc, out, _ = run(
            capsys, "timeline", "--communities", *map(str, snapshots),
            "--identity", "membership", "--jaccard", "0.3",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["identity"] == "membership"
        assert payload["jaccard"] == 0.3
        assert len(payload["timelines"]) == 3  # disjoint member sets never chain

    def test_duplicate_year_exits_1(self, snapshots, capsys):
        rc, _, err = run(
            capsys, "timeline", "--communities", str(snapshots[0]), str(snapshots[0])
        )
        assert rc == 1 and "duplicate snapshot" in err

    def test_explicit_range(self, snapshots, capsys):
        rc, out, _ = run(
            capsys, "timeline", "--communities", *map(str, snapshots),
            "--years", "1993:1996",
        )
        assert rc == 0
        payload = json.loads(out)
        assert all(t["lifecycle"] == "transient" for t in payload["timelines"])

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"year\": 1994}")
        rc, _, err = run(capsys, "timeline", "--communities", str(bad))
        assert rc == 1 and "malformed communities JSON" in err

    GOOD_ENTRY = {"id": 0, "members": ["A", "B"], "edges": [["A", "B"]]}

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param([GOOD_ENTRY], id="not-an-object"),
            pytest.param({"year": "1994", "communities": [GOOD_ENTRY]}, id="string-year"),
            pytest.param({"year": True, "communities": [GOOD_ENTRY]}, id="bool-year"),
            pytest.param({"year": 1994.0, "communities": [GOOD_ENTRY]}, id="float-year"),
            pytest.param({"year": 1994, "communities": {"0": GOOD_ENTRY}}, id="communities-dict"),
            pytest.param({"year": 1994, "communities": [["A", "B"]]}, id="entry-not-object"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "id": "0"}]}, id="string-id"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "id": False}]}, id="bool-id"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "members": "AB"}]},
                         id="members-string"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "members": ["A", 2]}]},
                         id="member-not-string"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "edges": [["A", "B", "A"]]}]},
                         id="edge-triple"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "edges": [["A", 1]]}]},
                         id="edge-not-strings"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "edges": [["A", "C"]]}]},
                         id="edge-to-non-member"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "edges": [["A", "A"]]}]},
                         id="self-loop"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "members": ["A", "B", "C"]}]},
                         id="member-without-edge"),
            pytest.param({"year": 1994, "communities": [{"id": 0, "members": ["A"], "edges": []}]},
                         id="one-member"),
            pytest.param({"year": 1994, "communities": [
                GOOD_ENTRY, {"id": 0, "members": ["C", "D"], "edges": [["C", "D"]]}]},
                         id="duplicate-id"),
            pytest.param({"year": 1994, "communities": [
                {"id": 0, "members": ["C", "D"], "edges": [["C", "D"]]}, {**GOOD_ENTRY, "id": 1}]},
                         id="out-of-order"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "members": ["A", "B", "C", "D"],
                                                          "edges": [["A", "B"], ["C", "D"]]}]},
                         id="disconnected"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "members": ["A", "A", "B"]}]},
                         id="duplicate-member"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY,
                                                          "edges": [["A", "B"], ["A", "B"]]}]},
                         id="duplicate-edge"),
            pytest.param({"year": 1994, "communities": [{"id": 0, "members": ["\ud800", "B"],
                                                          "edges": [["\ud800", "B"]]}]},
                         id="lone-surrogate-member"),
            pytest.param({"year": 1994, "communities": [{**GOOD_ENTRY, "edges": [["A", "\udc00"]]}]},
                         id="lone-surrogate-edge"),
        ],
    )
    def test_invalid_communities_exit_1(self, payload, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc, _, err = run(capsys, "timeline", "--communities", str(bad), "--identity", "membership")
        assert rc == 1 and "malformed communities JSON" in err


class TestLoneSurrogates:
    """``json.loads`` accepts an unpaired ``\\ud800`` escape, which no UTF-8
    artifact can hold: every JSON reader rejects it where it reads it."""

    @pytest.fixture
    def records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"year": 2001, "authors": ["\\ud800x", "B"], "id": "p1"}\n'
            '{"year": 2001, "authors": ["C"], "id": "p2"}\n',
            encoding="utf-8",
        )
        return path

    @pytest.mark.parametrize("command", ["ingest", "mine"])
    def test_record_skipped_or_strict_exit_1(self, records, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        rc, _, _ = run(capsys, command, "--input", str(records), "--out", str(out))
        assert rc == 0
        out.read_text(encoding="utf-8")
        rc, _, err = run(capsys, command, "--input", str(records), "--strict")
        assert rc == 1 and "malformed JSONL record at line 1" in err

    def test_pipeline_skips_record(self, records, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc, _, _ = run(capsys, "pipeline", "--input", str(records), "--out-dir", str(out_dir))
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["totals"]["publications"] == 1
        assert manifest["totals"]["skipped"] == 1
        rc, _, _ = run(capsys, "pipeline", "--input", str(records), "--strict",
                       "--out-dir", str(tmp_path / "strict"))
        assert rc == 1

    @pytest.mark.parametrize("key,value", [("input", ["\ud800.jsonl"]), ("out_dir", "o\udfff")])
    def test_config_exit_2(self, corpus, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": [str(corpus)], key: value}))
        rc, _, err = run(capsys, "pipeline", "--config", str(config))
        assert rc == 2 and "lone surrogate" in err and key in err


class TestExportDot:
    def test_dot_output(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("A -> B\nB -> A\nB -> C\n")
        rc, out, _ = run(capsys, "export-dot", "--edges", str(edges), "--name", "demo")
        assert rc == 0
        name, nodes, dot_edges = parse_dot(out)
        assert name == "demo"
        assert set(nodes) == {"A", "B", "C"}
        assert edge_directions(dot_edges) == {("A", "B"), ("B", "A"), ("B", "C")}


class TestPipeline:
    def test_config_file_with_flag_override(self, corpus, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "input": [str(corpus)],
                    "years": [2001, 2002],
                    "out_dir": str(tmp_path / "ignored"),
                    "seed": 7,
                }
            )
        )
        out_dir = tmp_path / "chosen"
        rc, _, err = run(
            capsys, "pipeline", "--config", str(config), "--out-dir", str(out_dir)
        )
        assert rc == 0
        assert "pipeline done" in err
        assert (out_dir / "manifest.json").is_file()
        assert not (tmp_path / "ignored").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7  # config-file value survived
        assert manifest["config"]["year_range"] == [2001, 2002]

    def test_unknown_config_key_exits_2(self, corpus, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": [str(corpus)], "outdir": "x"}))
        rc, _, err = run(capsys, "pipeline", "--config", str(config))
        assert rc == 2 and "unknown config keys" in err and "outdir" in err

    def test_missing_input_exits_2(self, capsys):
        rc, _, err = run(capsys, "pipeline")
        assert rc == 2 and "needs --input" in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("min_support", "0.1"),
            ("min_confidence", None),
            ("min_lift", True),
            ("sample", "0.5"),
            ("jaccard", None),
            ("input", [1]),
            ("input", "c.jsonl"),
            ("seed", "x"),
            ("seed", 1.5),
            ("normalize", "no"),
            ("strict", 1),
            ("format", ["jsonl"]),
            ("out_dir", 5),
            ("years", [True, 2002]),
            ("jobs", 2),  # retired: an unknown key
        ],
    )
    def test_wrong_config_type_exits_2(self, corpus, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": [str(corpus)], key: value}))
        rc, _, err = run(
            capsys, "pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")
        )
        assert rc == 2 and err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    def test_flags_only(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc, _, _ = run(
            capsys, "pipeline", "--input", str(corpus), "--out-dir", str(out_dir)
        )
        assert rc == 0
        for name in ("manifest.json", "dendrogram.json", "timelines.json", "noise.csv"):
            assert (out_dir / name).is_file()


class TestStagedRunMatchesPipeline:
    """The stage subcommands, run one by one, write what ``pipeline`` writes."""

    @pytest.mark.parametrize(
        "sampling,identity",
        [([], []), (["--sample", "0.8", "--seed", "3"], ["--identity", "membership"])],
        ids=["defaults", "sampled-membership"],
    )
    def test_artifacts_equal(self, tmp_path, capsys, sampling, identity):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(generate_corpus(60, 600, (2001, 2004), seed=7), encoding="utf-8")
        whole, staged = tmp_path / "pipeline", tmp_path / "staged"
        staged.mkdir()
        normalized = str(tmp_path / "normalized.jsonl")

        assert main(["pipeline", "--input", str(corpus), *sampling, *identity,
                     "--out-dir", str(whole)]) == 0
        assert main(["ingest", "--input", str(corpus), "--out", normalized]) == 0
        years = range(2001, 2005)
        for y in years:
            rules = str(staged / f"rules_{y}.csv")
            assert main(["mine", "--input", normalized, "--year", str(y), *sampling,
                         "--out", rules]) == 0
            assert main(["decompose", "--rules", rules, "--year", str(y),
                         "--out-attributes", str(staged / f"attributes_{y}.csv"),
                         "--out-communities", str(staged / f"communities_{y}.json")]) == 0
            assert main(["export-dot", "--rules", rules, "--name", f"snapshot_{y}",
                         "--out", str(staged / f"snapshot_{y}.dot")]) == 0
        assert main(["timeline", "--communities",
                     *(str(staged / f"communities_{y}.json") for y in years), *identity,
                     "--out", str(staged / "timelines.json"),
                     "--out-noise", str(staged / "noise.csv")]) == 0
        assert main(["cluster", "--attributes",
                     *(str(staged / f"attributes_{y}.csv") for y in years),
                     "--out", str(staged / "dendrogram.json")]) == 0
        capsys.readouterr()

        names = sorted(p.name for p in whole.iterdir() if p.name != "manifest.json")
        assert len(names) == 4 * 4 + 3
        for name in names:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name


class TestGenCorpus:
    def test_stdout_and_profile_flags(self, capsys):
        rc, out, _ = run(
            capsys, "gen-corpus", "--authors", "30", "--pubs", "300",
            "--years", "2001:2001", "--seed", "1",
            "--stars", "0", "--cliques", "0", "--noise-pairs", "1",
        )
        assert rc == 0
        assert len(out.splitlines()) == 300

    def test_impossible_profile_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "gen-corpus", "--authors", "5", "--pubs", "300",
            "--years", "2001:2001",
        )
        assert rc == 2 and "impossible profile" in err


class TestExitCodeMapping:
    def test_unexpected_exception_exits_3(self, corpus, capsys, monkeypatch):
        import molmine.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "mine_rules", boom)
        rc, _, err = run(capsys, "mine", "--input", str(corpus))
        assert rc == 3
        assert err.startswith("internal error: RuntimeError")
