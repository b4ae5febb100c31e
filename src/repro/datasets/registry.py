"""Registry of the paper's 17 benchmark datasets (Table I), scaled down.

Each entry records the dataset's name, its series length from Table I, the
synthetic family standing in for the original collection, the generator
parameters chosen to match the original's spectral character, and a scaled
number of series (the originals range from 0.5 M to 100 M series; the
reproduction defaults to a few thousand so every experiment runs on a laptop).

The ``high_frequency`` flag marks the datasets the paper identifies as
high-frequency / high-variance signals on which SOFA shows its largest gains
over MESSI (LenDB, SCEDC, Meier2019JGR, SIFT1b, OBS, BigANN, Iquique — the
left side of Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import DatasetError
from repro.core.series import Dataset
from repro.datasets.synthetic import GENERATORS, clustered


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one benchmark dataset and how to synthesise it."""

    name: str
    family: str
    series_length: int
    paper_num_series: int
    default_num_series: int
    generator_kwargs: dict = field(default_factory=dict)
    high_frequency: bool = False
    domain: str = "seismology"
    #: Ratio of series per cluster template when generating clustered data;
    #: clustering stands in for the density of the original billion-scale
    #: collections (see :func:`repro.datasets.synthetic.clustered`).
    cluster_ratio: int = 20
    within_cluster_noise: float = 0.25

    def generate(self, num_series: int | None = None, seed: int = 0,
                 normalize: bool = True, clustered_data: bool = True) -> Dataset:
        """Materialise the dataset as a :class:`~repro.core.series.Dataset`.

        ``clustered_data=False`` generates independent series instead, which is
        useful for distribution-level analyses (Figure 1) but removes the
        near-neighbour density that the query benchmarks rely on.
        """
        if self.family not in GENERATORS:
            raise DatasetError(f"unknown generator family '{self.family}'")
        count = num_series or self.default_num_series
        generator = GENERATORS[self.family]
        if clustered_data:
            num_clusters = max(2, count // self.cluster_ratio)
            values = clustered(generator, count, self.series_length,
                               num_clusters=num_clusters,
                               within_cluster_noise=self.within_cluster_noise,
                               seed=seed, **self.generator_kwargs)
        else:
            values = generator(count, self.series_length, seed=seed,
                               **self.generator_kwargs)
        metadata = {
            "family": self.family,
            "domain": self.domain,
            "high_frequency": self.high_frequency,
            "paper_num_series": self.paper_num_series,
        }
        return Dataset(values, name=self.name, normalize=normalize, metadata=metadata)


def _spec(name: str, family: str, length: int, paper_count: int, scaled: int,
          high_frequency: bool = False, domain: str = "seismology",
          **kwargs) -> DatasetSpec:
    return DatasetSpec(name=name, family=family, series_length=length,
                       paper_num_series=paper_count, default_num_series=scaled,
                       generator_kwargs=kwargs, high_frequency=high_frequency,
                       domain=domain)


#: The 17 datasets of Table I.  Series lengths match the paper; counts are scaled.
# Frequencies are fractions of the Nyquist frequency; for a 256-point series a
# fraction f corresponds to Fourier coefficient ~128·f.  High-gain datasets
# (the left side of Figure 12) concentrate their energy around coefficients
# 9-16 — above what a 16-segment PAA can represent but inside the coefficient
# window SFA selects from — while low-gain datasets stay below coefficient ~8.
DATASET_SPECS: tuple[DatasetSpec, ...] = (
    _spec("Astro", "red-noise", 256, 100_000_000, 4000, domain="astronomy",
          exponent=1.8),
    _spec("BigANN", "embedding", 100, 100_000_000, 4000, high_frequency=True,
          domain="vectors", non_negative=True, sparsity=0.35),
    _spec("Deep1b", "smooth", 96, 100_000_000, 4000, domain="vectors",
          cutoff_fraction=0.12),
    _spec("ETHZ", "seismic", 256, 4_999_932, 3000, dominant_frequency=0.05),
    _spec("Iquique", "seismic", 256, 578_853, 2000, high_frequency=True,
          dominant_frequency=0.08, noise_level=0.5),
    _spec("ISC_EHB_DepthPhases", "seismic", 256, 100_000_000, 4000,
          dominant_frequency=0.02, noise_level=0.2),
    _spec("LenDB", "oscillatory", 256, 37_345_260, 3000, high_frequency=True,
          min_frequency=0.08, max_frequency=0.125),
    _spec("Meier2019JGR", "oscillatory", 256, 6_361_998, 2500, high_frequency=True,
          min_frequency=0.07, max_frequency=0.115),
    _spec("NEIC", "seismic", 256, 93_473_541, 4000, dominant_frequency=0.03),
    _spec("OBS", "seismic", 256, 15_508_794, 3000, high_frequency=True,
          dominant_frequency=0.09, noise_level=0.5),
    _spec("OBST2024", "seismic", 256, 4_160_286, 2500, dominant_frequency=0.06,
          noise_level=0.4),
    _spec("PNW", "seismic", 256, 31_982_766, 3000, dominant_frequency=0.035),
    _spec("SALD", "smooth", 128, 100_000_000, 4000, domain="neuroscience",
          cutoff_fraction=0.06),
    _spec("SCEDC", "oscillatory", 256, 100_000_000, 4000, high_frequency=True,
          min_frequency=0.075, max_frequency=0.12, noise_level=0.3),
    _spec("SIFT1b", "embedding", 128, 100_000_000, 4000, high_frequency=True,
          domain="vectors", non_negative=True, sparsity=0.2),
    _spec("STEAD", "seismic", 256, 87_323_433, 4000, dominant_frequency=0.045),
    _spec("TXED", "seismic", 256, 35_851_641, 3000, dominant_frequency=0.04),
)


_SPEC_BY_NAME = {spec.name.lower(): spec for spec in DATASET_SPECS}


def dataset_names() -> list[str]:
    """Names of all 17 registered datasets, in Table I order."""
    return [spec.name for spec in DATASET_SPECS]


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset specification by (case-insensitive) name."""
    try:
        return _SPEC_BY_NAME[name.lower()]
    except KeyError:
        raise DatasetError(
            f"unknown dataset '{name}'; available: {', '.join(dataset_names())}"
        ) from None


def load_dataset(name: str, num_series: int | None = None, seed: int = 0,
                 normalize: bool = True) -> Dataset:
    """Generate the scaled-down stand-in for one of the 17 paper datasets."""
    return get_spec(name).generate(num_series=num_series, seed=seed, normalize=normalize)


def high_frequency_names() -> list[str]:
    """Datasets the paper identifies as high-frequency (largest SOFA gains)."""
    return [spec.name for spec in DATASET_SPECS if spec.high_frequency]
