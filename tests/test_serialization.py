"""JSON set documents and the deterministic instance generators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconvex import (
    Flat,
    Polytope,
    SchemaError,
    Subspace,
    dimension,
    dumps_set,
    gap,
    parallel_subspace,
    parse_set,
    random_instance,
    serialize_set,
)


class TestParseSet:
    def test_polytope(self):
        s = parse_set({"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [1, 0]]})
        assert isinstance(s, Polytope)
        assert np.allclose(s.points, [[0, 0], [1, 0]])

    def test_subspace_normalized_on_load(self, capsys):
        s = parse_set({"type": "subspace", "ambient_dim": 2, "basis": [[2, 0]]})
        assert isinstance(s, Subspace)
        assert np.allclose(np.abs(s.basis), [[1, 0]])
        assert "orthonormal" in capsys.readouterr().err

    def test_flat(self):
        s = parse_set({"type": "flat", "ambient_dim": 2, "base": [0, 1], "basis": [[1, 0]]})
        assert isinstance(s, Flat)
        assert np.allclose(s.base, [0, 1])

    def test_accepts_json_text(self):
        s = parse_set('{"type": "polytope", "ambient_dim": 2, "points": [[1, 2]]}')
        assert isinstance(s, Polytope)

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"type": "cone", "ambient_dim": 2, "points": [[0, 0]]}, "type"),
            ({"type": "polytope", "ambient_dim": 2}, "points"),
            ({"type": "polytope", "ambient_dim": 2, "points": []}, "points"),
            ({"type": "polytope", "ambient_dim": 3, "points": [[0, 0]]}, "length 3"),
            ({"type": "flat", "ambient_dim": 2, "basis": [[1, 0]]}, "base"),
            ({"type": "subspace", "ambient_dim": 2, "basis": [[0, 0]]}, "basis"),
            ({"type": "polytope", "ambient_dim": 2, "points": "0, 0"}, "points"),
            ({"type": "polytope", "ambient_dim": 2, "points": [[0, "a"]]}, "points"),
            ({"type": "flat", "ambient_dim": 2, "base": ["a", 0], "basis": [[1, 0]]}, "base"),
            ({"type": "flat", "ambient_dim": 2, "base": [0, 0, 0], "basis": [[1, 0]]}, "base"),
            ({"type": "flat", "ambient_dim": 2, "base": [float("nan"), 0], "basis": [[1, 0]]}, "base"),
            ({"type": "subspace", "ambient_dim": 1, "basis": [[1], [1]]}, "basis"),
            ('{"type": "polytope", "ambient_dim": 2, "points": [[0, 0]]', "JSON"),
            ('[{"type": "polytope", "ambient_dim": 1, "points": [[0]]}]', "object"),
            ({"type": "polytope", "ambient_dim": True, "points": [[0]]}, "ambient_dim"),
            ({"type": "polytope", "ambient_dim": 0, "points": [[0]]}, "ambient_dim"),
            ({"type": "polytope", "ambient_dim": "2", "points": [[0, 0]]}, "ambient_dim"),
            ({"type": "subspace", "ambient_dim": 2}, "basis"),
            ({"type": ["polytope"], "ambient_dim": 1, "points": [[0]]}, "type"),
            # a field the table does not name, such as the rays of a cone
            ({"type": "polytope", "ambient_dim": 2, "points": [[0, 0]], "rays": [[1, 0]]}, "'rays'"),
            ({"type": "subspace", "ambient_dim": 2, "basis": [[1, 0]], "base": [0, 0]}, "'base'"),
            (b"\xff\xfe{", "JSON"),
        ],
    )
    def test_schema_violations_name_the_field(self, doc, fragment):
        with pytest.raises(SchemaError) as err:
            parse_set(doc)
        assert fragment in str(err.value)

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            parse_set({"type": "polytope", "ambient_dim": 1, "points": [[1e400]]})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "s",
        [
            Polytope(np.array([[0.5, -1.0], [2.0, 3.0]])),
            Flat(np.array([0.0, 1.0]), np.array([[1.0, 0.0]])),
            Subspace(np.array([[0.6, 0.8]])),
        ],
    )
    def test_parse_serialize_parse(self, s):
        doc = serialize_set(s)
        again = serialize_set(parse_set(doc))
        assert doc == again

    def test_dumps_is_valid_json(self):
        text = dumps_set(Polytope(np.array([[1.0, 2.0]])))
        assert json.loads(text)["type"] == "polytope"


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance("uniform-subspace", 3, 1, 11)
        b = random_instance("uniform-subspace", 3, 1, 11)
        assert np.array_equal(a.basis, b.basis)

    def test_polytope_has_requested_dimension(self):
        for seed in range(10):
            p = random_instance("gaussian-polytope", 2, 2, seed)
            assert dimension(p) == 2

    def test_flat_direction_dimension(self):
        f = random_instance("random-flat", 2, 1, 5)
        v, _ = parallel_subspace(f)
        assert v.dim == 1

    def test_distinct_seeds_differ(self):
        a = random_instance("uniform-subspace", 4, 2, 0)
        b = random_instance("uniform-subspace", 4, 2, 1)
        assert gap(a, b) > 1e-6

    def test_invalid_kind(self):
        with pytest.raises(Exception):
            random_instance("moebius-strip", 2, 1, 0)

    def test_invalid_dims(self):
        with pytest.raises(Exception):
            random_instance("uniform-subspace", 2, 5, 0)


coord = st.floats(-1e6, 1e6, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6))
def test_polytope_roundtrip_is_exact(pts):
    p = Polytope(np.array(pts, dtype=float))
    q = parse_set(dumps_set(p))
    assert np.array_equal(p.points, q.points)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), kind=st.sampled_from(("polytope", "flat", "subspace")), data=st.data())
def test_every_kind_round_trips_to_an_equal_set_of_its_kind(seed, n, kind, data):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, n))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:k]
    if kind == "polytope":
        s = Polytope(rng.standard_normal((k + 1, n)))
    elif kind == "flat":
        s = Flat(rng.standard_normal(n), basis)
    else:
        s = Subspace(basis)
    doc = serialize_set(s)
    assert doc["type"] == kind
    back = parse_set(json.loads(dumps_set(s)))
    assert type(back) is type(s)
    assert back == s
