import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtails.dists import DiscreteDist
from iidtails.specfile import (
    SpecFileError,
    dist_from_jsonable,
    dist_to_jsonable,
    dump_dist,
    load_dist,
    parse_dist,
    parse_rational,
    save_dist,
)
from oracles import coin, dist1d, fraction_dist_from_jsonable

COIN_DOC = {"dim": 1,
            "atoms": [{"x": ["-1"], "p": "1/2"}, {"x": ["1"], "p": "1/2"}]}


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("-3/4") == F(-3, 4)

    def test_integer_string(self):
        assert parse_rational("7") == F(7)

    def test_bare_int(self):
        assert parse_rational(5) == F(5)

    def test_rejects_float_and_garbage(self):
        with pytest.raises(SpecFileError, match="atoms\\[0\\].p"):
            parse_rational(0.5, "atoms[0].p")
        with pytest.raises(SpecFileError, match="not a rational"):
            parse_rational("one half")
        with pytest.raises(SpecFileError):
            parse_rational("1/0")


class TestParse:
    def test_round_trip_coin(self):
        assert dist_from_jsonable(COIN_DOC) == coin()

    def test_round_trip_general(self):
        d = dist1d([(F(-3, 7), F(2, 5)), (F(0), F(1, 5)), (F(4), F(2, 5))])
        assert parse_dist(dump_dist(d)) == d

    def test_multidim_round_trip(self):
        d = DiscreteDist({(F(1), F(-2)): F(1, 3), (F(0), F(5, 2)): F(2, 3)})
        assert parse_dist(dump_dist(d)) == d

    def test_invalid_json_reports_position(self):
        with pytest.raises(SpecFileError, match=r"line 2, column"):
            parse_dist('{"dim": 1,\n "atoms": }')

    def test_missing_keys(self):
        with pytest.raises(SpecFileError, match="missing key"):
            dist_from_jsonable({"dim": 1})

    @pytest.mark.parametrize("doc, message", [
        ([1], "top level: expected an object, got list"),
        ({"dim": 1, "atoms": []}, "atoms: expected a nonempty list"),
        ({"dim": 1, "atoms": {"x": 0, "p": 1}},
         "atoms: expected a nonempty list"),
        ({"dim": 1, "atoms": [{"x": 0}]},
         "atoms[0]: expected an object with keys 'x' and 'p'"),
        ({"dim": 1, "atoms": [["0", "1"]]},
         "atoms[0]: expected an object with keys 'x' and 'p'"),
    ], ids=["list", "no-atoms", "atoms-object", "no-p", "atom-list"])
    def test_malformed_shape_is_located(self, doc, message):
        with pytest.raises(SpecFileError) as exc:
            dist_from_jsonable(doc)
        assert str(exc.value) == message

    def test_bad_dim(self):
        with pytest.raises(SpecFileError, match="dim"):
            dist_from_jsonable({"dim": 0, "atoms": COIN_DOC["atoms"]})

    def test_wrong_coordinate_count(self):
        doc = {"dim": 2, "atoms": [{"x": ["1"], "p": "1"}]}
        with pytest.raises(SpecFileError, match=r"atoms\[0\].x"):
            dist_from_jsonable(doc)

    def test_bare_scalar_atoms_in_one_dimension(self):
        doc = {"dim": 1, "atoms": [{"x": "-1", "p": "1/2"},
                                   {"x": 1, "p": "1/2"}]}
        assert dist_from_jsonable(doc) == coin()

    def test_bare_scalar_atom_needs_dim_one(self):
        doc = {"dim": 2, "atoms": [{"x": "1", "p": "1"}]}
        with pytest.raises(SpecFileError,
                           match=r"atoms\[0\].x: expected a list of 2"):
            dist_from_jsonable(doc)

    def test_bare_float_atom_rejected_with_location(self):
        doc = {"dim": 1, "atoms": [{"x": 0.5, "p": "1"}]}
        with pytest.raises(SpecFileError, match=r"atoms\[0\].x: expected"):
            dist_from_jsonable(doc)

    def test_nonpositive_probability_position(self):
        doc = {"dim": 1, "atoms": [{"x": ["0"], "p": "1"},
                                   {"x": ["1"], "p": "0"}]}
        with pytest.raises(SpecFileError, match=r"atoms\[1\].p"):
            dist_from_jsonable(doc)

    def test_duplicate_point_position(self):
        doc = {"dim": 1, "atoms": [{"x": ["2/2"], "p": "1/2"},
                                   {"x": ["1"], "p": "1/2"}]}
        with pytest.raises(SpecFileError, match=r"atoms\[1\].*duplicate"):
            dist_from_jsonable(doc)

    def test_bad_sum(self):
        doc = {"dim": 1, "atoms": [{"x": ["0"], "p": "1/3"},
                                   {"x": ["1"], "p": "1/3"}]}
        with pytest.raises(SpecFileError, match="sum to 2/3"):
            dist_from_jsonable(doc)

    def test_float_probability_rejected(self):
        doc = {"dim": 1, "atoms": [{"x": ["0"], "p": 0.5},
                                   {"x": ["1"], "p": 0.5}]}
        with pytest.raises(SpecFileError, match=r"atoms\[0\].p"):
            dist_from_jsonable(doc)

    def test_validates_once_and_keeps_file_order(self, monkeypatch):
        # the parser's own located checks are the only ones: the law is
        # built without DiscreteDist.__init__, and equals the validated
        # law with its atoms in file order
        doc = {"dim": 2, "atoms": [{"x": ["1", "-1/2"], "p": "1/6"},
                                   {"x": ["-3", "2/4"], "p": "1/2"},
                                   {"x": [0, "5"], "p": "1/3"}]}
        pairs = [((F(1), F(-1, 2)), F(1, 6)), ((F(-3), F(1, 2)), F(1, 2)),
                 ((F(0), F(5)), F(1, 3))]
        expected = DiscreteDist(pairs)
        inits = []
        init = DiscreteDist.__init__

        def spy(self, *args, **kwargs):
            inits.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteDist, "__init__", spy)
        got = dist_from_jsonable(doc)
        assert inits == []
        assert got == expected and got.dim == 2
        assert list(got.atoms.items()) == pairs


class TestFiles:
    def test_save_load(self, tmp_path):
        d = dist1d([(F(-1, 2), F(1, 4)), (F(3), F(3, 4))])
        path = tmp_path / "d.json"
        save_dist(d, path)
        assert load_dist(path) == d
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_load_prefixes_path_in_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError, match="bad.json"):
            load_dist(path)

    def test_load_locates_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        head = b'{"dim": 1, "atoms": [{"x": "'
        path.write_bytes(head + "é".encode("latin-1"))
        with pytest.raises(SpecFileError) as exc:
            load_dist(path)
        assert str(exc.value) == f"{path}: not UTF-8 at byte {len(head)}"

    def test_dump_is_stable_and_sorted(self):
        d = coin()
        text = dump_dist(d)
        assert text == dump_dist(d)
        doc = json.loads(text)
        assert [a["x"] for a in doc["atoms"]] == [["-1"], ["1"]]
        assert text.endswith("\n")


small_rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def random_dists(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    pts = draw(st.lists(
        st.tuples(*[small_rationals] * dim), min_size=n, max_size=n,
        unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    tot = sum(weights)
    return DiscreteDist({pt: F(w, tot) for pt, w in zip(pts, weights)})


@given(random_dists())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(d):
    assert dist_from_jsonable(dist_to_jsonable(d)) == d
    text = dump_dist(d)
    assert parse_dist(text) == d
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


# text that Fraction(str) reads, or refuses, beyond plain ASCII 'p/q'
TRICKY = [" 1/2", "1.5", "1e3", "+3", "1_000", "-0", "٣/٤", "1/0", "2/4",
          "1/2", "²", "²/3", "1 / 2", "1/ 2", "-1/2", "1/-2", "--1", "-",
          "", "/", "1/", "/2", "007", "0/5", "0", "3/0", "1/2/3", "0x1",
          "inf", "nan", "1" * 4400, "1/" + "3" * 4400, "½", "1\n", "\t2"]
RATIOS = st.builds(lambda n, d: f"{n}/{d}", st.integers(-6, 6),
                   st.integers(1, 6)) | st.integers(-3, 3).map(str)
ODD = (st.sampled_from(TRICKY) | st.integers(-3, 3)
       | st.sampled_from([True, False, 0.5, 1.0, None, [], ["1"]])
       | st.builds(lambda n: f"{n}/0", st.integers(-2, 2)))


def _sometimes(draw, common, odd, one_in: int = 8):
    return draw(odd if draw(st.integers(1, one_in)) == 1 else common)


@st.composite
def law_documents(draw):
    """Law documents, about half of them valid: masses that sum to 1 over
    unreduced denominators, or to something else, or with a zero or
    negative one; odd text anywhere; bad dims, missing keys, coordinate
    lists of the wrong length, and a point given twice."""
    dim = _sometimes(draw, st.sampled_from([1, 2]),
                     st.sampled_from([0, True, "1"]), 20)
    n = draw(st.integers(1, 4))
    weights = [_sometimes(draw, st.integers(1, 4), st.integers(-1, 0))
               for _ in range(n)]
    total = sum(weights) + _sometimes(draw, st.just(0), st.just(1))
    scale = draw(st.integers(1, 3))
    atoms = []
    for w in weights:
        width = dim if type(dim) is int else 1
        width += _sometimes(draw, st.just(0), st.sampled_from([-1, 1]), 20)
        x = [_sometimes(draw, RATIOS, ODD) for _ in range(max(width, 0))]
        if width == 1 and draw(st.booleans()):
            x = x[0]
        entry = {"x": x, "p": _sometimes(
            draw, st.just(f"{w * scale}/{total * scale}"), ODD)}
        if draw(st.integers(1, 40)) == 1:
            del entry[draw(st.sampled_from(["x", "p"]))]
        atoms.append(entry)
    if n > 1 and "x" in atoms[0] and draw(st.integers(1, 4)) == 1:
        atoms[-1] = {**atoms[-1], "x": atoms[0]["x"]}   # a point twice
    return {"dim": dim, "atoms": atoms}


def _decoded(decode, doc):
    try:
        law = decode(doc)
    except Exception as exc:   # the error, its type and text
        return type(exc), str(exc)
    return law.dim, list(law.atoms.items())


@given(law_documents())
@settings(max_examples=500, deadline=None)
def test_decoder_is_the_fraction_decoder(doc):
    """The decoder returns the law, atoms in the same order, or the error
    text that Fraction(str) parsing and Fraction sums give."""
    assert _decoded(dist_from_jsonable, doc) == \
        _decoded(fraction_dist_from_jsonable, doc)


@pytest.mark.parametrize("text", TRICKY, ids=lambda t: ascii(t)[:24])
def test_each_tricky_text_decodes_as_fraction_reads_it(text):
    for doc in ({"dim": 1, "atoms": [{"x": text, "p": "1"}]},
                {"dim": 2, "atoms": [{"x": ["0", text], "p": "1"}]},
                {"dim": 1, "atoms": [{"x": "0", "p": text}]},
                {"dim": 1, "atoms": [{"x": "1/2", "p": "1/2"},
                                     {"x": text, "p": "1/2"}]}):
        assert _decoded(dist_from_jsonable, doc) == \
            _decoded(fraction_dist_from_jsonable, doc)
