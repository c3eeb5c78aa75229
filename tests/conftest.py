import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from stratclt import DiscreteMeasure, Point, SpaceSpec, apex

# derandomized and without an example database: the same examples on every
# run.  Hypothesis still caches the constants it reads from the source at
# collection; that cache goes to the temporary directory, not the checkout.
settings.register_profile("stratclt", derandomize=True, database=None, deadline=None)
settings.load_profile("stratclt")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "stratclt-hypothesis")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MEASURE_FILES = [
    "euclidean_pm1.measure.json",
    "spider3_uniform.measure.json",
    "spider3_weighted.measure.json",
    "openbook3_spine.measure.json",
    "flatcone4_star.measure.json",
]

EXPERIMENT_FILES = [
    "euclidean_pm1.json",
    "spider3_uniform.json",
    "spider3_weighted.json",
    "openbook3_spine.json",
    "flatcone4_star.json",
]


def load_config(name: str) -> dict:
    with open(CONFIG_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_measure(name: str) -> DiscreteMeasure:
    return DiscreteMeasure.from_json(load_config(name))


@pytest.fixture(scope="session")
def spider3() -> SpaceSpec:
    return SpaceSpec.spider(3)


@pytest.fixture(scope="session")
def book3() -> SpaceSpec:
    return SpaceSpec.open_book(3)


@pytest.fixture(scope="session")
def cone3pi() -> SpaceSpec:
    return SpaceSpec.flat_cone(3 * math.pi)


@pytest.fixture(scope="session")
def spider_uniform(spider3) -> DiscreteMeasure:
    third = 1.0 / 3.0
    return DiscreteMeasure(
        spider3, tuple((Point(spider3, (i, 1.0)), third) for i in range(3))
    )


@pytest.fixture(scope="session")
def spider_weighted(spider3) -> DiscreteMeasure:
    return DiscreteMeasure(
        spider3,
        ((Point(spider3, (1, 1.0)), 0.8), (Point(spider3, (2, 1.0)), 0.2)),
    )


@pytest.fixture(scope="session")
def euclid_pm1() -> DiscreteMeasure:
    sp = SpaceSpec.euclidean(1)
    return DiscreteMeasure(sp, ((Point(sp, (-1.0,)), 0.5), (Point(sp, (1.0,)), 0.5)))


@pytest.fixture(scope="session")
def book_spine_measure() -> DiscreteMeasure:
    return load_measure("openbook3_spine.measure.json")


@pytest.fixture(scope="session")
def cone_star_measure() -> DiscreteMeasure:
    return load_measure("flatcone4_star.measure.json")


@pytest.fixture(scope="session")
def spider_apex(spider3) -> Point:
    return apex(spider3)
