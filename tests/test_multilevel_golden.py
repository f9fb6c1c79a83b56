"""Golden digests for both multilevel engines on viterbi-test.

Table 2 compares the design-driven partitioner against the hMetis
stand-in (:func:`repro.baselines.multilevel_partition`), and both it
and the production k-way engine coarsen through
:func:`repro.core.multilevel.contract_levels`.  These sha256 prefixes
pin every assignment byte, the cut and the ``part.ml.*`` counters, so a
change to the shared matcher, projector or level loop cannot move
either engine's results unnoticed.
"""

import hashlib

import pytest

from repro.baselines import multilevel_partition
from repro.core import multilevel_kway_partition
from repro.hypergraph import flat_hypergraph
from repro.obs import MetricsRecorder


def digest(assignment) -> str:
    return hashlib.sha256(assignment.tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def flat(viterbi_test):
    return flat_hypergraph(viterbi_test)


@pytest.mark.parametrize("k, b, cut, want", [
    (2, 2.5, 32, "136459785d48772c"),
    (2, 10.0, 31, "59dd5f4cfdc3856e"),
    (3, 2.5, 49, "61e10cc75754c75e"),
    (3, 10.0, 37, "b85ae417a0af3eba"),
    (4, 2.5, 54, "781a290d4253b5f7"),
    (4, 10.0, 48, "71bf1544ce6298b2"),
])
def test_hmetis_stand_in(flat, k, b, cut, want):
    r = multilevel_partition(flat, k, b, seed=0)
    assert (r.cut_size, digest(r.assignment)) == (cut, want)


_SHARED_COARSENING = {
    "part.ml.levels": 2,
    "part.ml.coarse_vertices": 108,
    "part.ml.matched_pairs": 278,
    "part.ml.match_weight": 214.719,
    "part.ml.reduction.max": 3.5741,
    "part.ml.initial_candidates": 4,
}


@pytest.mark.parametrize("refiner, cut, want, counters", [
    ("fm", 42, "b4e69f179d93f1e0", {
        "part.ml.initial_cut": 59, "part.ml.level_cut.max": 59,
        "part.ml.refine_rounds": 19, "part.ml.uncoarsen_gain": 17,
    }),
    ("batch", 62, "3a000cc419719b76", {
        "part.ml.initial_cut": 84, "part.ml.level_cut.max": 84,
        "part.ml.refine_rounds": 49, "part.ml.uncoarsen_gain": 22,
    }),
])
def test_kway_engine(flat, refiner, cut, want, counters):
    rec = MetricsRecorder()
    r = multilevel_kway_partition(flat, 4, 10.0, seed=1, refiner=refiner,
                                  recorder=rec)
    assert (r.cut_size, digest(r.assignment)) == (cut, want)
    got = {name: value for name, value in rec.as_counters().items()
           if name.startswith("part.ml.")}
    assert got == {**_SHARED_COARSENING, **counters}
