"""End-to-end integration tests across the whole pipeline.

These tests exercise the full paper workflow — generate a benchmark dataset,
build every competitor, answer exact queries, evaluate TLB, and run the
critical-difference analysis — on deliberately small inputs.
"""

import numpy as np
import pytest

import repro.index.search
from repro import (
    FlatL2Index,
    MessiIndex,
    SerialScan,
    SofaIndex,
    UcrSuiteScan,
    WorkloadRunner,
    critical_difference,
    dataset_names,
    generate_ucr_like_suite,
    load_dataset,
    split_queries,
    tlb_study,
)
from repro.evaluation.tlb import mean_tlb_table
from repro.index.stats import compute_structure_stats


class TestFullQueryPipeline:
    """The Table II workflow at miniature scale: every method, exact answers."""

    @pytest.fixture(scope="class")
    def workload(self):
        dataset = load_dataset("SCEDC", num_series=1500, seed=3)
        return split_queries(dataset, num_queries=12)

    def test_all_methods_agree_with_brute_force(self, workload):
        index_set, queries = workload
        scan = SerialScan().build(index_set)
        sofa = SofaIndex(leaf_size=60).build(index_set)
        messi = MessiIndex(leaf_size=60).build(index_set)
        ucr = UcrSuiteScan().build(index_set)
        flat = FlatL2Index(batch_size=4).build(index_set)
        for query in queries.values:
            _, expected = scan.nearest_neighbor(query)
            assert sofa.nearest_neighbor(query).nearest_distance == pytest.approx(expected)
            assert messi.nearest_neighbor(query).nearest_distance == pytest.approx(expected)
            assert ucr.nearest_neighbor(query).distances[0] == pytest.approx(expected)
            assert flat.nearest_neighbor(query)[1] == pytest.approx(expected)

    def test_knn_consistency_across_k(self, workload):
        """Growing k only appends neighbours; the prefix stays identical."""
        index_set, queries = workload
        sofa = SofaIndex(leaf_size=60).build(index_set)
        query = queries[0]
        previous = sofa.knn(query, k=1).distances
        for k in (3, 5, 10):
            current = sofa.knn(query, k=k).distances
            assert np.allclose(current[:previous.shape[0]], previous)
            previous = current

    def test_workload_runner_reproduces_method_ordering(self, workload,
                                                        monkeypatch):
        """On a high-frequency dataset SOFA should do less work than MESSI,
        and both tree indexes less than the full scan.

        Work is the deterministic count of exact distance computations over
        the 12 queries, not a wall time: measured 304 for SOFA, 5883 for
        MESSI and 17856 for the scan.  Both indexes walk their trees: the
        claim is about the lower bounds' pruning, and MESSI's shattered tree
        would otherwise take the certified flat path, which uses no lower
        bound at all."""
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                            0.0)
        index_set, queries = workload
        runner = WorkloadRunner(leaf_size=100)
        work = {}
        for method in ("SOFA", "MESSI"):
            index = runner.make_method(method).build(index_set)
            work[method] = sum(
                index.knn(query, k=1).stats.exact_distances
                for query in queries.values)
        scan = runner.make_method("UCR-SUITE").build(index_set)
        work["UCR-SUITE"] = sum(scan.knn(query, k=1).stats.exact_distances
                                for query in queries.values)
        assert work["SOFA"] < work["MESSI"] < work["UCR-SUITE"]


class TestStructuralComparison:
    def test_index_structures_on_multiple_datasets(self):
        """Figure 8 workflow: structure statistics exist and are sane on
        datasets from different families."""
        for name in ("LenDB", "SALD"):
            dataset = load_dataset(name, num_series=300, seed=1)
            sofa = SofaIndex(leaf_size=40).build(dataset)
            messi = MessiIndex(leaf_size=40).build(dataset)
            for index in (sofa, messi):
                stats = compute_structure_stats(index.tree)
                assert stats.num_series == 300
                assert stats.num_leaves >= 1
                assert stats.average_depth >= 1.0


class TestAblationPipeline:
    def test_tlb_study_and_critical_difference(self):
        """Figure 14/15 workflow on a 4-dataset UCR-like suite."""
        suite = generate_ucr_like_suite(num_datasets=4, train_size=60, test_size=10)
        datasets = {entry.name: (entry.train, entry.test) for entry in suite}
        records = tlb_study(datasets, alphabet_sizes=(16,),
                            methods=("iSAX", "SFA EW +VAR", "SFA ED +VAR"),
                            word_length=8, max_pairs_per_query=30)
        table = mean_tlb_table(records)
        assert set(table) == {"iSAX", "SFA EW +VAR", "SFA ED +VAR"}

        scores = {}
        for record in records:
            scores.setdefault(record.method, []).append(record.tlb)
        result = critical_difference(scores)
        assert set(result.average_ranks) == set(scores)
        assert 0.0 <= result.friedman_pvalue <= 1.0


class TestRegistryCoverage:
    @pytest.mark.parametrize("name", dataset_names())
    def test_every_registered_dataset_supports_exact_search(self, name):
        """Smoke test: each of the 17 datasets builds a SOFA index that returns
        the exact nearest neighbour."""
        dataset = load_dataset(name, num_series=150, seed=7)
        index_set, queries = split_queries(dataset, num_queries=3)
        sofa = SofaIndex(leaf_size=30).build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            _, expected = scan.nearest_neighbor(query)
            assert sofa.nearest_neighbor(query).nearest_distance == pytest.approx(
                expected, abs=1e-8)
