"""Acceptance gate: nine end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``. Every criterion prints
exactly one ``ACCEPTANCE <n>: PASS|FAIL - <what it checks>`` line (visible
under default capture) and also fails the test run when red.
"""

import json
import math
import random
import resource
import time
from itertools import combinations, permutations
from pathlib import Path

from molmine.cluster import cut, hcluster
from molmine.corpus import CorpusProfile, generate_corpus
from molmine.decompose import communities
from molmine.graph import AssocGraph, parse_edge_list
from molmine.pipeline import PipelineConfig, run_pipeline
from molmine.rules import Thresholds, mine_rules
from molmine.temporal import classify_lifecycle
from oracles import oracle_hcluster, oracle_lifecycle, oracle_mine

GOLDEN = [
    ("in-star", "L1 -> C\nL2 -> C\nL3 -> C\nL4 -> C\nL5 -> C\nL6 -> C\nL7 -> C\n",
     (7, 0, 0, 8, 1, 7)),
    ("out-star", "C -> L1\nC -> L2\nC -> L3\nC -> L4\nC -> L5\nC -> L6\nC -> L7\n",
     (7, 0, 0, 8, 7, 1)),
    ("bridge-triangle", "X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n",
     (0, 3, 1, 3, 3, 3)),
    ("diamond-with-leaves",
     "X -> Y\nY -> X\nY -> Z\nZ -> Y\nX -> Z\nZ -> X\n"
     "X -> M1\nX -> M2\nX -> M3\nX -> M4\nN1 -> X\n",
     (5, 3, 1, 8, 7, 4)),
    ("bridge-with-chains",
     "C -> D\nD -> C\nL1 -> C\nL2 -> C\nL3 -> C\nL4 -> C\n"
     "L4 -> L5\nL5 -> L6\nD -> L6\n",
     (7, 1, 0, 8, 4, 7)),
    ("bridge-k4",
     "A -> B\nB -> A\nA -> C\nC -> A\nA -> D\nD -> A\n"
     "B -> C\nC -> B\nB -> D\nD -> B\nC -> D\nD -> C\n",
     (0, 6, 4, 4, 4, 4)),
]


def report(capsys, n, description, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS - {description}")


def random_digraph(rng):
    n = rng.randint(3, 12)
    nodes = [f"n{i:02d}" for i in range(n)]
    density = rng.uniform(0.1, 0.6)
    edges = [(a, b) for a, b in permutations(nodes, 2) if rng.random() < density]
    return AssocGraph.from_edges(edges, extra_nodes=nodes)


def random_corpus(rng):
    authors = [chr(ord("A") + i) for i in range(rng.randint(2, 8))]
    return [
        frozenset(rng.sample(authors, rng.randint(1, len(authors))))
        for _ in range(rng.randint(1, 20))
    ]


def test_criterion_1_golden_sextuples(capsys):
    def check():
        t0 = time.perf_counter()
        for name, text, expected in GOLDEN:
            (comm,) = communities(parse_edge_list(text))
            got = comm.vector.as_tuple()
            assert got == expected, f"{name}: {got} != {expected}"
        # Documented exclusion: no 8-nucleus 7-edge star can reach the vector
        # (7,0,0,8,4,4). A pure star gives RE+TR = 8 with one side pinned to
        # 1; a mixed star's center is both reactor and trigger, forcing
        # RE+TR = 9. RE = TR = 4 is therefore unattainable, and the suite
        # checks the whole family rather than asserting a reference value.
        for k_in in range(1, 7):
            lines = [f"L{i} -> C" for i in range(k_in)]
            lines += [f"C -> M{j}" for j in range(7 - k_in)]
            (comm,) = communities(parse_edge_list("\n".join(lines)))
            v = comm.vector
            assert (v.single_bonds, v.bridges, v.nuclei) == (7, 0, 8)
            assert v.reactors + v.triggers == 9
        assert time.perf_counter() - t0 < 1.0
    report(capsys, 1, "golden community sextuples reproduced exactly in < 1 s", check)


def test_criterion_2_diamond_oracle(capsys):
    def check():
        t0 = time.perf_counter()
        rng = random.Random(2)
        for _ in range(120):
            g = random_digraph(rng)
            for comm in communities(g):
                edges = set(comm.edges)
                brute = sum(
                    1
                    for x, y, z in combinations(sorted(comm.members), 3)
                    if (x, y) in edges and (y, x) in edges
                    and (y, z) in edges and (z, y) in edges
                    and (x, z) in edges and (z, x) in edges
                )
                assert comm.vector.diamonds == brute
        assert time.perf_counter() - t0 < 5.0
    report(capsys, 2, "community DI equals brute-force triple enumeration on 120 random digraphs in < 5 s", check)


def test_criterion_3_bond_accounting(capsys):
    def check():
        rng = random.Random(3)
        for _ in range(120):
            g = random_digraph(rng)
            for comm in communities(g):
                v = comm.vector
                assert v.single_bonds + 2 * v.bridges == len(comm.edges)
        for n in range(3, 9):
            nodes = [f"k{i}" for i in range(n)]
            edges = [(a, b) for a, b in permutations(nodes, 2)]
            (comm,) = communities(AssocGraph.from_edges(edges))
            v = comm.vector
            assert v.bridges == math.comb(n, 2)
            assert v.diamonds == math.comb(n, 3)
    report(capsys, 3, "SB + 2*BR equals edge count everywhere; complete bridge graphs give DI = C(n,3)", check)


def test_criterion_4_mining_oracle(capsys):
    settings = [
        (0.001, 0.05, 1.0), (0.0, 0.0, 0.0), (0.1, 0.1, 1.0), (0.05, 0.5, 1.2),
        (0.2, 0.3, 0.9), (0.15, 0.25, 1.1), (0.5, 0.5, 1.0), (0.3, 0.1, 0.8),
        (0.25, 0.75, 1.5), (0.4, 0.6, 2.0), (1.0, 1.0, 1.0),
    ]

    def check():
        t0 = time.perf_counter()
        rng = random.Random(4)
        for _ in range(100):
            transactions = random_corpus(rng)
            for ms, mc, ml in settings:
                got = {
                    (r.antecedent, r.consequent): (r.support, r.confidence, r.lift)
                    for r in mine_rules(transactions, Thresholds(ms, mc, ml))
                }
                assert got == oracle_mine(transactions, ms, mc, ml)
        assert time.perf_counter() - t0 < 5.0
    report(capsys, 4, "mine_rules equals exhaustive enumeration on 100 corpora x 11 threshold settings in < 5 s", check)


def test_criterion_5_worked_mining_examples(capsys):
    def check():
        # lift(A => B) = (2*4)/(3*3) = 8/9 < 1, so strict min_lift 1.0 drops it
        corpus_1 = [{"A", "B"}, {"A", "B"}, {"A", "C"}, {"B"}]
        (ab,) = [
            r for r in mine_rules(corpus_1, Thresholds(0.0, 0.0, 0.0))
            if (r.antecedent, r.consequent) == ("A", "B")
        ]
        assert abs(ab.lift - 8 / 9) <= 1e-12
        rules = mine_rules(corpus_1, Thresholds(0.0, 0.0, 1.0))
        assert ("A", "B") not in {(r.antecedent, r.consequent) for r in rules}

        corpus_2 = [{"A", "B"}, {"A", "B"}, {"C"}, {"C"}]
        rules = mine_rules(corpus_2, Thresholds())
        got = {
            (r.antecedent, r.consequent): (r.support, r.confidence, r.lift)
            for r in rules
        }
        assert set(got) == {("A", "B"), ("B", "A")}
        for s, c, l in got.values():
            assert abs(s - 0.5) <= 1e-12
            assert abs(c - 1.0) <= 1e-12
            assert abs(l - 2.0) <= 1e-12
    report(capsys, 5, "worked mining examples match to 1e-12 (lift 8/9 dropped, symmetric pair at 0.5/1.0/2.0)", check)


def test_criterion_6_clustering_oracle(capsys):
    def check():
        for seed in range(20):
            rng = random.Random(600 + seed)
            n = rng.randint(2, 10)
            vectors = [tuple(rng.randint(0, 4) for _ in range(6)) for _ in range(n)]
            for linkage in ("average", "single", "complete"):
                d = hcluster(vectors, ids=list(range(n)), linkage=linkage)
                expected = oracle_hcluster(vectors, linkage=linkage)
                for got_m, want_m in zip(d.merges, expected):
                    assert got_m[:2] == want_m[:2]
                    assert math.isclose(got_m[2], want_m[2], rel_tol=1e-9, abs_tol=1e-12)
            for k in range(1, n + 1):
                labels = cut(hcluster(vectors, ids=list(range(n))), k=k)
                assert len(set(labels.values())) == k
        d = hcluster([(1, 2), (3, 4), (1, 2)], ids=["a", "b", "c"])
        assert d.merges[0] == (0, 2, 0.0)
        ((_, _, star_height),) = hcluster([(7, 0, 0, 8, 1, 7), (7, 0, 0, 8, 7, 1)]).merges
        assert abs(star_height - math.sqrt(72)) <= 1e-9
    report(capsys, 6, "hcluster matches O(n^3) reference over 20 seeds; duplicates merge at 0; star rows are sqrt(72) apart; cut(k) yields k clusters", check)


def test_criterion_7_lifecycles(capsys):
    def check():
        assert classify_lifecycle(range(1990, 2008), (1990, 2007)).value == "constant"
        assert classify_lifecycle({1994, 2006}, (1990, 2007)).value == "visiting"
        assert classify_lifecycle({1995, 1996, 1997}, (1990, 2007)).value == "transient"
        for length in range(1, 7):
            y0 = 2000
            years = list(range(y0, y0 + length))
            for r in range(1, length + 1):
                for subset in combinations(years, r):
                    got = classify_lifecycle(subset, (y0, y0 + length - 1))
                    assert got.value == oracle_lifecycle(subset, (y0, y0 + length - 1))
    report(capsys, 7, "lifecycle classes match definitions on all subsets of ranges up to length 6", check)


def test_criterion_8_planted_recovery(capsys, tmp_path):
    def check():
        t0 = time.perf_counter()
        corpus = tmp_path / "corpus.jsonl"
        profile = CorpusProfile()  # one in-star(8), one bridge triangle, 5 noise pairs
        corpus.write_text(generate_corpus(60, 600, (2001, 2003), seed=7, profile=profile))

        snapshots = {}
        for run_idx in range(3):
            out = tmp_path / f"out{run_idx}"
            run_pipeline(PipelineConfig(inputs=(str(corpus),), out_dir=str(out)))
            snapshots[run_idx] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }

        out = tmp_path / "out0"
        for year in (2001, 2002, 2003):
            payload = json.loads((out / f"communities_{year}.json").read_text())
            motifs = sorted(c["motif"] for c in payload["communities"])
            assert motifs == ["diamond"] + ["pair"] * 5 + ["star-in"]
        noise = (out / "noise.csv").read_text().splitlines()
        assert noise[1:] == [f"{y},0.714285714286,7" for y in (2001, 2002, 2003)]

        for other in (1, 2):
            assert snapshots[other].keys() == snapshots[0].keys()
            for name, blob in snapshots[0].items():
                if name == "manifest.json":
                    a = json.loads(blob)
                    b = json.loads(snapshots[other][name])
                    a.pop("timestamp"), b.pop("timestamp")
                    assert a == b
                else:
                    assert snapshots[other][name] == blob, name
        assert time.perf_counter() - t0 < 10.0
    report(capsys, 8, "pipeline recovers planted star-in, diamond and 5 pairs with noise 5/7, byte-identical across three runs, in < 10 s", check)


def test_criterion_9_scale_smoke(capsys, tmp_path):
    def check():
        t0 = time.perf_counter()
        profile = CorpusProfile(stars=3, cliques=4, noise_pairs=10)
        corpus = tmp_path / "big.jsonl"
        corpus.write_text(
            generate_corpus(2000, 10000, (1976, 2005), seed=9, profile=profile)
        )
        manifest = run_pipeline(
            PipelineConfig(inputs=(str(corpus),), out_dir=str(tmp_path / "out"))
        )
        assert manifest.totals["publications"] == 10000
        assert len(manifest.years) == 30
        assert manifest.totals["communities"] == 30 * (3 + 4 + 10)
        elapsed = time.perf_counter() - t0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        assert peak_kib < 1024 * 1024, f"peak RSS {peak_kib} KiB"
    report(capsys, 9, "10k publications / 2k authors / 30 year buckets complete in < 60 s with peak memory < 1 GB", check)
