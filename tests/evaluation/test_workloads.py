"""Tests for the workload runner (the glue used by most benchmarks)."""

import numpy as np
import pytest

from repro.baselines.serial_scan import SerialScan
from repro.core.errors import InvalidParameterError
from repro.datasets.registry import load_dataset
from repro.evaluation.workloads import METHODS, WorkloadRunner


@pytest.fixture(scope="module")
def tiny_workload():
    dataset = load_dataset("LenDB", num_series=300, seed=21)
    return dataset.split(8, rng=np.random.default_rng(0))


class TestMethodFactory:
    def test_all_paper_methods_are_constructible(self):
        runner = WorkloadRunner(leaf_size=30)
        for method in METHODS:
            assert runner.make_method(method) is not None

    def test_unknown_method_raises(self):
        with pytest.raises(InvalidParameterError):
            WorkloadRunner().make_method("HNSW")

    def test_sofa_kwargs_forwarded(self):
        runner = WorkloadRunner(sofa_kwargs={"binning": "equi-depth"})
        assert runner.make_method("SOFA").summarization.binning == "equi-depth"


class TestRunDataset:
    def test_records_for_every_method_and_k(self, tiny_workload):
        index_set, queries = tiny_workload
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=("SOFA", "MESSI"),
                                    k_values=(1, 3))
        assert len(result.build_records) == 2           # one per method
        assert len(result.query_records) == 2 * 2       # methods x k
        record = result.query_record(index_set.name, "SOFA", k=1)
        assert len(record.query_times) == queries.num_series
        assert len(record.exact_distances) == queries.num_series
        assert len(record.series_lower_bounds) == queries.num_series
        assert record.mean_time > 0.0
        assert record.median_time > 0.0

    def test_all_methods_run_and_report_positive_times_and_work(self, tiny_workload):
        index_set, queries = tiny_workload
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=METHODS)
        for method in METHODS:
            record = result.query_record(index_set.name, method, k=1)
            assert record.mean_time > 0.0
            assert record.mean_exact_distances > 0.0

    def test_work_counts_are_the_engines_own(self, tiny_workload):
        """The tree records carry each query's SearchStats counts;
        the brute-force baselines compute every distance and no bound."""
        index_set, queries = tiny_workload
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=("SOFA", "FAISS"))
        sofa = runner.make_method("SOFA").build(index_set)
        expected = [sofa.knn(query, k=1).stats
                    for query in queries.values]
        record = result.query_record(index_set.name, "SOFA")
        assert record.exact_distances == [s.exact_distances for s in expected]
        assert record.series_lower_bounds == [s.series_lower_bounds for s in expected]
        faiss = result.query_record(index_set.name, "FAISS")
        assert faiss.exact_distances == [index_set.num_series] * queries.num_series
        assert faiss.series_lower_bounds == [0] * queries.num_series

    def test_reference_checking_confirms_exactness(self, tiny_workload):
        index_set, queries = tiny_workload
        scan = SerialScan().build(index_set)
        reference = [scan.nearest_neighbor(query) for query in queries.values]
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=METHODS,
                                    k_values=(1, 3), reference=reference)
        assert all(record.exact_correct for record in result.query_records)

    def test_reference_checking_flags_a_wrong_answer(self, tiny_workload):
        index_set, queries = tiny_workload
        scan = SerialScan().build(index_set)
        reference = [(row, distance + 1.0) for row, distance in
                     (scan.nearest_neighbor(query) for query in queries.values)]
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=("SOFA",),
                                    reference=reference)
        assert not result.query_record(index_set.name, "SOFA").exact_correct

    def test_build_records_have_phase_breakdown(self, tiny_workload):
        index_set, queries = tiny_workload
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=("SOFA", "FAISS"))
        sofa, faiss = result.build_records
        assert sofa.learn_time > 0.0
        assert sofa.transform_time > 0.0
        assert sofa.tree_time > 0.0
        assert sofa.wall_time >= sofa.learn_time + sofa.transform_time + sofa.tree_time
        assert faiss.wall_time > 0.0
        assert (faiss.learn_time, faiss.transform_time, faiss.tree_time) == (0.0, 0.0, 0.0)

    def test_missing_record_lookup_raises(self, tiny_workload):
        index_set, queries = tiny_workload
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_dataset(index_set, queries, methods=("SOFA",))
        with pytest.raises(KeyError):
            result.query_record("nope", "SOFA")

    def test_run_suite_combines_datasets(self):
        first = load_dataset("SALD", num_series=200, seed=1).split(5)
        second = load_dataset("TXED", num_series=200, seed=2).split(5)
        runner = WorkloadRunner(leaf_size=30)
        result = runner.run_suite({"SALD": first, "TXED": second}, methods=("MESSI",))
        datasets = {record.dataset for record in result.query_records}
        assert datasets == {"SALD", "TXED"}
        timings = result.mean_query_times("MESSI")
        assert len(timings.times) == 10
        pooled = [count for record in result.query_records
                  for count in record.exact_distances]
        assert result.mean_exact_distances("MESSI") == pytest.approx(np.mean(pooled))

    def test_faiss_charges_every_query_an_equal_share(self, tiny_workload):
        index_set, queries = tiny_workload
        result = WorkloadRunner().run_dataset(index_set, queries, methods=("FAISS",))
        times = result.query_record(index_set.name, "FAISS").query_times
        assert len(times) == queries.num_series
        assert len(set(times)) == 1
        assert times[0] > 0.0

    def test_scan_reports_its_own_distance_count(self, tiny_workload):
        index_set, queries = tiny_workload
        runner = WorkloadRunner()
        result = runner.run_dataset(index_set, queries, methods=("UCR-SUITE",))
        scan = runner.make_method("UCR-SUITE").build(index_set)
        expected = [scan.knn(query, k=1).stats.exact_distances
                    for query in queries.values]
        record = result.query_record(index_set.name, "UCR-SUITE")
        assert record.exact_distances == expected
        assert record.series_lower_bounds == [0] * queries.num_series

    @pytest.mark.parametrize("method", ["SOFA", "MESSI"])
    def test_larger_k_never_refines_fewer_series(self, tiny_workload, method):
        """The k-th best-so-far is never below the 1st, so whatever a k-NN
        query prunes a 1-NN query prunes too."""
        index_set, queries = tiny_workload
        result = WorkloadRunner(leaf_size=30).run_dataset(
            index_set, queries, methods=(method,), k_values=(1, 5))
        one = result.query_record(index_set.name, method, k=1)
        five = result.query_record(index_set.name, method, k=5)
        for fewer, more in zip(one.exact_distances, five.exact_distances):
            assert fewer <= more
