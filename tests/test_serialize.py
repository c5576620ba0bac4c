import json
import os
import random
from fractions import Fraction

import pytest

from genlab import (
    CertificateError,
    Cover,
    DivergenceQuery,
    FormatError,
    Hypothesis,
    HypothesisClass,
    ShatteringCertificate,
    certificate_from_dict,
    certificate_to_dict,
    cover_from_dict,
    cover_to_dict,
    domain_from_dict,
    domain_to_dict,
    error_table_from_dict,
    error_table_to_dict,
    estimate_errors,
    family_from_dict,
    family_to_dict,
    hypothesis_class_from_dict,
    hypothesis_class_to_dict,
    load_family,
    load_meta,
    meta_from_dict,
    meta_to_dict,
    rational_from_str,
    rational_to_str,
    sample_training_set,
    training_set_from_dict,
    training_set_to_dict,
    write_json_atomic,
    write_text_atomic,
)
from _builders import random_class, random_domain, random_family, random_meta

F = Fraction


class TestRationalStrings:
    def test_always_slash_form(self):
        assert rational_to_str(F(0)) == "0/1"
        assert rational_to_str(F(3, 10)) == "3/10"
        assert rational_to_str(F(-1, 2)) == "-1/2"
        assert rational_to_str(F(4, 2)) == "2/1"

    def test_round_trip(self):
        rng = random.Random(41001)
        for _ in range(50):
            q = F(rng.randint(-100, 100), rng.randint(1, 100))
            assert rational_from_str(rational_to_str(q)) == q

    def test_plain_integers_accepted(self):
        assert rational_from_str("7") == 7
        assert rational_from_str("-3") == -3

    def test_rejections(self):
        # Arabic-Indic, full-width and Devanagari digits are digits to `Fraction`
        for bad in ("0.5", "3e-2", "1/0", "", "1/2/3", "a/b", "1 / 2",
                    "\u0663/\u0661\u0660", "\uff13/\uff11\uff10", "1/\u0665", "\u0967"):
            with pytest.raises(FormatError):
                rational_from_str(bad)

    def test_ascii_whitespace_padding_only(self):
        for padded in (" 3/10", "3/10\n", "\t3/10\r\n", "\x0b3/10\x0c"):
            assert rational_from_str(padded) == F(3, 10)
        # em space, ideographic space, no-break space, next line and the
        # ASCII separators that `str.strip()` also takes for whitespace
        for bad in ("\u20033/10", "3/10\u3000", "\xa07", "7\x85", "\x1c3/10", "3/10\x1f"):
            with pytest.raises(FormatError, match="expected a decimal-free rational"):
                rational_from_str(bad)

    @pytest.mark.parametrize("bad", [True, False, 0.5, None, [1]])
    def test_non_integer_json_values_refused(self, bad):
        with pytest.raises(FormatError, match="atom mass expected"):
            rational_from_str(bad, "atom mass")


class TestDictRoundTrips:
    def test_domain(self):
        rng = random.Random(41002)
        for _ in range(20):
            d = random_domain(rng, rng.randint(1, 6))
            blob = json.dumps(domain_to_dict(d))
            assert domain_from_dict(json.loads(blob)) == d

    def test_hypothesis_class(self):
        rng = random.Random(41003)
        for _ in range(20):
            hc = random_class(rng, rng.randint(1, 5), rng.randint(1, 8))
            assert hypothesis_class_from_dict(hypothesis_class_to_dict(hc)) == hc

    def test_hypothesis_class_with_bool_labels(self):
        """`Hypothesis` accepts a bool label; the file holds the int, so the
        class genlab wrote reads back equal."""
        hc = HypothesisClass(3, (Hypothesis((True, 0, 1)), Hypothesis((0, True, False))))
        text = json.dumps(hypothesis_class_to_dict(hc))
        assert text == '{"space": 3, "hypotheses": [[1, 0, 1], [0, 1, 0]]}'
        assert hypothesis_class_from_dict(json.loads(text)) == hc

    def test_family_and_meta(self):
        rng = random.Random(41004)
        fam = random_family(rng, 4, 3)
        assert family_from_dict(family_to_dict(fam)) == fam
        p = random_meta(rng, fam)
        back = meta_from_dict(meta_to_dict(p))
        assert back == p

    def test_meta_file_readable_as_family(self):
        rng = random.Random(41005)
        p = random_meta(rng, random_family(rng, 3, 2))
        assert family_from_dict(meta_to_dict(p)) == p.family

    def test_certificate(self):
        cert = ShatteringCertificate((2, 0), (1, 0, 3, 2))
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_sparse_certificate_rejected(self):
        obj = certificate_to_dict(ShatteringCertificate((0, 1), (0, 1, 2, 3)))
        del obj["witnesses"]["3"]
        with pytest.raises(CertificateError):
            certificate_from_dict(obj)

    def test_cover(self):
        for q in (DivergenceQuery(), DivergenceQuery(F(3, 10))):
            cover = Cover((0, 2), F(1, 20), q)
            assert cover_from_dict(cover_to_dict(cover)) == cover
        bad = cover_to_dict(Cover((0, 2), F(1, 20), DivergenceQuery()))
        bad["centers"] = [0, -1]
        with pytest.raises(FormatError, match="non-negative"):
            cover_from_dict(bad)
        for radius in ("-1/10", "-1", -1):
            bad = cover_to_dict(Cover((0, 1, 2), F(1, 10), DivergenceQuery(F(3, 10))))
            bad["radius"] = radius
            with pytest.raises(FormatError, match="radius must be non-negative"):
                cover_from_dict(bad)

    def test_training_set_and_error_table(self):
        rng = random.Random(41006)
        p = random_meta(rng, random_family(rng, 4, 3))
        t = sample_training_set(p, 4, 3, 41007)
        assert training_set_from_dict(training_set_to_dict(t)) == t
        hc = random_class(rng, 4, 4)
        table = estimate_errors(hc, t)
        assert error_table_from_dict(error_table_to_dict(table)) == table


def _certificate_obj():
    return certificate_to_dict(ShatteringCertificate((0, 1), (0, 1, 2, 3)))


def _cover_obj():
    return cover_to_dict(Cover((0, 2), F(1, 20), DivergenceQuery()))


def _training_obj():
    rng = random.Random(41008)
    p = random_meta(rng, random_family(rng, 4, 3))
    return training_set_to_dict(sample_training_set(p, 3, 2, 5))


class TestIntegersNotCoerced:
    """Indices, witnesses, centers, points and seeds load only as JSON
    integers; floats, strings and booleans are refused, not truncated."""

    @pytest.mark.parametrize("edit", [
        lambda o: o.__setitem__("S", [0.5, 1.7]),
        lambda o: o["S"].__setitem__(1, "1"),
        lambda o: o["S"].__setitem__(0, False),
        lambda o: o["witnesses"].__setitem__("1", 1.9),
        lambda o: o["witnesses"].__setitem__("2", True),
        lambda o: o["witnesses"].__setitem__("3", "3"),
    ], ids=["S-floats", "S-str", "S-bool", "witness-float", "witness-bool", "witness-str"])
    def test_certificate(self, edit):
        obj = _certificate_obj()
        edit(obj)
        with pytest.raises(FormatError):
            certificate_from_dict(obj)

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1.0", "0x1"])
    def test_certificate_keys_are_plain_decimals(self, key):
        obj = _certificate_obj()
        obj["witnesses"][key] = obj["witnesses"].pop("1")
        with pytest.raises(CertificateError, match="all 4 subset bitmasks"):
            certificate_from_dict(obj)

    def test_certificate_with_many_indices_refused_without_enumerating(self):
        obj = {"S": list(range(200)), "witnesses": {"0": 0}}
        with pytest.raises(CertificateError):
            certificate_from_dict(obj)

    def test_certificate_values_named_in_error(self):
        obj = {"S": [0, 1], "witnesses": {"0": 0, "1": 1.9, "2": True, "3": "3"}}
        with pytest.raises(FormatError, match="witness must be a JSON integer, got 1.9"):
            certificate_from_dict(obj)

    @pytest.mark.parametrize("centers", [[0.9, 2.5], [0, "2"], [True, 2], "02", {"0": 0}])
    def test_cover_centers(self, centers):
        obj = _cover_obj()
        obj["centers"] = centers
        with pytest.raises(FormatError):
            cover_from_dict(obj)

    @pytest.mark.parametrize("edit", [
        lambda o: o["samples"][0][0].__setitem__(0, 0.0),
        lambda o: o["samples"][1][1].__setitem__(1, True),
        lambda o: o["samples"][0].__setitem__(0, ["1", 0]),
        lambda o: o["samples"][0].__setitem__(0, [1, 0, 1]),
        lambda o: o["domain_indices"].__setitem__(0, 1.5),
        lambda o: o["domain_indices"].__setitem__(2, True),
        lambda o: o.__setitem__("master_seed", 5.0),
        lambda o: o.__setitem__("master_seed", "5"),
        lambda o: o["draw_seeds"].__setitem__(0, float(o["draw_seeds"][0])),
        lambda o: o["draw_seeds"].__setitem__(1, str(o["draw_seeds"][1])),
    ], ids=["x-float", "y-bool", "x-str", "point-arity", "index-float", "index-bool",
            "master-float", "master-str", "draw-seed-float", "draw-seed-str"])
    def test_training_set(self, edit):
        obj = _training_obj()
        assert training_set_from_dict(obj) == training_set_from_dict(_training_obj())
        edit(obj)
        with pytest.raises(FormatError):
            training_set_from_dict(obj)

    def test_training_set_negative_index_refused(self):
        obj = _training_obj()
        obj["domain_indices"][0] = -1
        with pytest.raises(ValueError, match="domain indices must be non-negative"):
            training_set_from_dict(obj)

    @pytest.mark.parametrize("mode", [5, ["exact"], None])
    def test_error_table_mode_read_as_json_string(self, mode):
        obj = {"mode": mode, "entries": [["1/2"]]}
        with pytest.raises(FormatError, match="'mode' must be a JSON string"):
            error_table_from_dict(obj)


class TestMissingKeysNamed:
    """A missing key or a wrong container names the key, not a Python error."""

    @pytest.mark.parametrize("loader, obj, message", [
        (domain_from_dict, {"space": 2, "atoms": [{"x": 0, "y": 0}]}, "atom needs a 'mass' field"),
        (domain_from_dict, {"atoms": []}, "domain object needs a 'space' field"),
        (domain_from_dict, {"space": 2, "atoms": {}}, "'atoms' must be a JSON list"),
        (domain_from_dict, {"space": 2, "atoms": [[0, 0, "1"]]}, "atom must be a JSON object"),
        (cover_from_dict, {"centers": [0], "radius": "0"}, "cover object needs a 'tau' field"),
        (training_set_from_dict, {"samples": []}, "needs a 'domain_indices' field"),
        (training_set_from_dict, {"samples": 3}, "'samples' must be a JSON list"),
        (training_set_from_dict, {"samples": [[5]]}, "malformed training set sample"),
        (error_table_from_dict, {"entries": [["1/2"]]}, "needs a 'mode' field"),
        (error_table_from_dict, {"mode": "exact", "entries": ["1/2"]},
         "error table row must be a JSON list"),
    ])
    def test_refusal_names_the_key(self, loader, obj, message):
        with pytest.raises(FormatError, match=message):
            loader(obj)


class TestFiles:
    def test_family_entries_may_be_paths(self, tmp_path):
        rng = random.Random(41010)
        fam = random_family(rng, 4, 3)
        sub = tmp_path / "domains"
        sub.mkdir()
        names = []
        for i, d in enumerate(fam.domains):
            write_json_atomic(sub / f"d{i}.json", domain_to_dict(d))
            names.append(f"domains/d{i}.json")
        write_json_atomic(
            tmp_path / "family.json", {"domains": [names[0], domain_to_dict(fam.domains[1]), names[2]]}
        )
        loaded = load_family(tmp_path / "family.json")
        assert loaded == fam

    def test_meta_load(self, tmp_path):
        rng = random.Random(41011)
        p = random_meta(rng, random_family(rng, 3, 2))
        write_json_atomic(tmp_path / "meta.json", meta_to_dict(p))
        assert load_meta(tmp_path / "meta.json") == p

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "payload")
        assert target.read_text() == "payload"
        write_text_atomic(target, "replaced")
        assert target.read_text() == "replaced"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_json_write_format(self, tmp_path):
        target = tmp_path / "obj.json"
        write_json_atomic(target, {"b": 1, "a": 2})
        text = target.read_text()
        assert text.endswith("\n")
        assert list(json.loads(text)) == ["b", "a"] or text.index('"a"') < text.index('"b"')
        assert os.listdir(tmp_path) == ["obj.json"]

    def test_streamed_json_matches_one_shot_bytes(self, tmp_path):
        obj = {"z": [1, 2.5, None, {"é": "ü", "a": []}], "rows": [{"k": i} for i in range(50)]}
        target = tmp_path / "obj.json"
        write_json_atomic(target, obj)
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert target.read_bytes() == expected.encode("utf-8")

    def test_failed_json_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "obj.json"
        write_json_atomic(target, {"kept": 1})
        with pytest.raises(TypeError):
            write_json_atomic(target, {"a": 1, "b": object()})
        assert os.listdir(tmp_path) == ["obj.json"]
        assert json.loads(target.read_text()) == {"kept": 1}
