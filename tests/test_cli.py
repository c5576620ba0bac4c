import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import genlab
from genlab import DEFAULT_SEED, load_certificate, load_domain, load_family, load_hypothesis_class, load_meta
from genlab.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestConstructCommands:
    def test_odd_even(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "construct", "odd-even", "--m", "3", "--out-dir", str(tmp_path)
        )
        assert code == 0 and err == ""
        assert out.startswith("m=3 space=5 odd_err=13/60 even_err=23/60")
        assert load_domain(tmp_path / "domain.json").space == 5
        assert len(load_hypothesis_class(tmp_path / "class.json")) == 3

    def test_large_k(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "construct", "large-k", "--alpha", "1/50", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.startswith("k=3 hypotheses=8 domains=3")
        fam = load_family(tmp_path / "family.json")
        assert len(fam) == 3
        for j in range(1, 4):
            assert load_domain(tmp_path / f"domain_{j}.json") == fam.domains[j - 1]
        load_certificate(tmp_path / "certificate.json")

    def test_product(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "construct", "product", "--alpha", "1/50", "--d", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("k=3 d=2 hypotheses=64 domains=6")
        assert load_hypothesis_class(tmp_path / "class.json").space == 20

    def test_product_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "product", "--alpha", "1/50", "--d", "5",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_lower_bound(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "construct", "lower-bound", "--alpha", "1/50",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("d=3 lambda=2/5 floor=2/7 certificate_valid=true")
        fam = load_family(tmp_path / "family.json")
        assert len(fam) == 7  # 3 base + clean + 3 flipped

    def test_adversarial_fixed_bits(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "construct", "adversarial", "--alpha", "1/50",
            "--gamma", "1/20", "--b", "101", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("d=3 gamma=1/20 b=101 clean_weight=4/5")
        meta = load_meta(tmp_path / "meta.json")
        assert len(meta.family) == 4

    def test_adversarial_random_bits_follow_seed(self, tmp_path, capsys):
        args = ("construct", "adversarial", "--alpha", "1/50", "--gamma", "1/20",
                "--seed", "99")
        code, out1, _ = run(capsys, *args, "--out-dir", str(tmp_path / "a"))
        assert code == 0
        code, out2, _ = run(capsys, *args, "--out-dir", str(tmp_path / "b"))
        assert code == 0
        assert re.search(r"b=[01]{3}", out1)
        assert out1.split("out=")[0] == out2.split("out=")[0]

    def test_adversarial_bad_bits(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "adversarial", "--alpha", "1/50",
            "--gamma", "1/20", "--b", "10", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "error:" in err

    def test_out_dir_naming_a_file_refused(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, out, err = run(
            capsys, "construct", "large-k", "--alpha", "1/50", "--out-dir", str(taken)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"File exists: '{taken}'\n")
        assert err.count("\n") == 1
        assert taken.read_text() == "keep"


class TestDimensionCommands:
    @pytest.fixture()
    def built(self, tmp_path, capsys):
        run(capsys, "construct", "large-k", "--alpha", "1/50", "--out-dir", str(tmp_path))
        return tmp_path

    def test_gdim_and_certificate(self, built, capsys):
        cert_out = built / "fresh_cert.json"
        code, out, _ = run(
            capsys, "gdim", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"),
            "--tau", "3/10", "--alpha", "1/50", "--cert-out", str(cert_out),
        )
        assert code == 0
        assert out.startswith("gdim=3 exact=true certificate=")
        assert cert_out.exists()
        code, out, _ = run(
            capsys, "verify-cert", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"), "--cert", str(cert_out),
            "--tau", "3/10", "--alpha", "1/50",
        )
        assert code == 0
        assert out.startswith("certificate valid: 3 domains")

    def test_gdim_cap(self, built, capsys):
        code, out, _ = run(
            capsys, "gdim", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"),
            "--tau", "3/10", "--alpha", "1/50", "--cap", "2",
        )
        assert code == 0
        assert out.startswith("gdim=2 exact=false")

    def test_consecutive_calls_share_no_state(self, built, capsys):
        argv = ("gdim", "--class", str(built / "class.json"),
                "--domains", str(built / "family.json"), "--tau", "3/10", "--alpha", "1/50")
        code, out, _ = run(capsys, *argv, "--cap", "2")
        assert (code, out) == (0, "gdim=2 exact=false\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "gdim=3 exact=true\n")

    def test_tampered_certificate_exits_one(self, built, capsys):
        cert = json.loads((built / "certificate.json").read_text())
        cert["witnesses"]["0"], cert["witnesses"]["1"] = (
            cert["witnesses"]["1"], cert["witnesses"]["0"],
        )
        bad = built / "bad_cert.json"
        bad.write_text(json.dumps(cert))
        code, out, _ = run(
            capsys, "verify-cert", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"), "--cert", str(bad),
            "--tau", "3/10", "--alpha", "1/50",
        )
        assert code == 1
        assert "certificate INVALID" in out

    def test_vcdim(self, built, capsys):
        code, out, _ = run(capsys, "vcdim", "--class", str(built / "class.json"))
        assert code == 0
        assert out.rstrip() == "vcdim=1 exact=true"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_vcdim_cap_below_one_refused(self, built, capsys, cap):
        code, out, err = run(
            capsys, "vcdim", "--class", str(built / "class.json"), "--cap", cap
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("family, reason", [
        ([{"space": 5, "atoms": [{"x": 0, "y": 0, "mass": "1"}]}], "must be a JSON object"),
        ({"domains": "abc"}, "'domains' must be a JSON list"),
        ({"domains": [{"space": 10, "atoms": [{"x": 0, "y": 0, "mass": True}]}]},
         "atom mass expected a decimal-free rational"),
        ({"domains": []}, "family object lists no domains"),
        ({"domains": [{"space": 10, "atoms": [{"x": 0, "y": 2, "mass": "1"}]}]},
         "atom label must be 0 or 1, got 2"),
    ])
    def test_malformed_family_refused(self, built, capsys, family, reason):
        bad = built / "bad_family.json"
        bad.write_text(json.dumps(family))
        code, out, err = run(
            capsys, "gdim", "--class", str(built / "class.json"), "--domains", str(bad),
            "--tau", "3/10", "--alpha", "1/50",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and reason in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda c, f: c["hypotheses"][0].__setitem__(slice(0, 2), [0.9, 1.7]),
        lambda c, f: c["hypotheses"][0].__setitem__(1, "1"),
        lambda c, f: c["hypotheses"][0].__setitem__(1, True),
        lambda c, f: c.__setitem__("space", 10.0),
        lambda c, f: c.__setitem__("space", "10"),
        lambda c, f: f["domains"][0]["atoms"][2].__setitem__("x", 0.6),
        lambda c, f: f["domains"][0]["atoms"][2].__setitem__("x", "1"),
        lambda c, f: f["domains"][0]["atoms"][2].__setitem__("y", 1.0),
        lambda c, f: f["domains"][0]["atoms"][2].__setitem__("y", True),
        lambda c, f: f["domains"][0].__setitem__("space", True),
    ], ids=["labels-0.9-1.7", "label-str", "label-true", "space-float", "space-str",
            "x-0.6", "x-str", "y-float", "y-true", "domain-space-true"])
    def test_non_integer_values_refused(self, built, capsys, edit):
        cls = json.loads((built / "class.json").read_text())
        fam = json.loads((built / "family.json").read_text())
        edit(cls, fam)
        (built / "bad_class.json").write_text(json.dumps(cls))
        (built / "bad_family.json").write_text(json.dumps(fam))
        code, out, err = run(
            capsys, "gdim", "--class", str(built / "bad_class.json"),
            "--domains", str(built / "bad_family.json"), "--tau", "3/10", "--alpha", "1/50",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "JSON integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[0].__setitem__(1, 2), "hypothesis labels must be 0 or 1"),
        (lambda rows: rows[0].__setitem__(1, -1), "hypothesis labels must be 0 or 1"),
        (lambda rows: rows[0].__setitem__(1, None),
         "hypothesis label must be a JSON integer, got None"),
        (lambda rows: rows[0].__setitem__(1, [0]),
         "hypothesis label must be a JSON integer, got [0]"),
        (lambda rows: rows.__setitem__(0, "0101"),
         "hypothesis label must be a JSON integer, got '0'"),
        (lambda rows: rows.__setitem__(0, {"0": 1}),
         "hypothesis label must be a JSON integer, got '0'"),
        (lambda rows: rows.__setitem__(0, []), "hypothesis needs at least one instance"),
        (lambda rows: rows[0].pop(), "member 0 labels 9 instances, class space is 10"),
    ], ids=["label-2", "label-minus-1", "label-null", "label-nested", "row-string",
            "row-object", "row-empty", "row-short"])
    def test_malformed_class_row_refused(self, built, capsys, edit, message):
        cls = json.loads((built / "class.json").read_text())
        assert cls["space"] == 10
        edit(cls["hypotheses"])
        (built / "bad_class.json").write_text(json.dumps(cls))
        code, out, err = run(
            capsys, "gdim", "--class", str(built / "bad_class.json"),
            "--domains", str(built / "family.json"), "--tau", "3/10", "--alpha", "1/50",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_certificate_witness_list_refused(self, built, capsys):
        cert = json.loads((built / "certificate.json").read_text())
        cert["witnesses"] = list(cert["witnesses"].values())
        bad = built / "bad_cert.json"
        bad.write_text(json.dumps(cert))
        code, out, err = run(
            capsys, "verify-cert", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"), "--cert", str(bad),
            "--tau", "3/10", "--alpha", "1/50",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda c: c.__setitem__("S", [0.5, 1.7]),
        lambda c: c["witnesses"].__setitem__("1", 1.9),
        lambda c: c["witnesses"].__setitem__("2", True),
        lambda c: c["witnesses"].__setitem__("3", "3"),
        lambda c: c["witnesses"].__setitem__("01", c["witnesses"].pop("1")),
    ], ids=["S-floats", "witness-float", "witness-bool", "witness-str", "key-leading-zero"])
    def test_non_integer_certificate_refused(self, built, capsys, edit):
        cert = json.loads((built / "certificate.json").read_text())
        edit(cert)
        bad = built / "bad_cert.json"
        bad.write_text(json.dumps(cert))
        code, out, err = run(
            capsys, "verify-cert", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"), "--cert", str(bad),
            "--tau", "3/10", "--alpha", "1/50",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err


class TestLearnCommand:
    @pytest.fixture()
    def built(self, tmp_path, capsys):
        run(
            capsys, "construct", "adversarial", "--alpha", "1/50",
            "--gamma", "1/20", "--b", "000", "--out-dir", str(tmp_path),
        )
        return tmp_path

    def test_line_format_and_out_file(self, built, capsys):
        out_file = built / "learn.json"
        code, out, _ = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "meta.json"), "--n", "5", "--m", "4",
            "--seed", "99", "--out", str(out_file),
        )
        assert code == 0
        assert re.match(
            r"minmax=\d+ pooled=\d+ n=5 m=4 seed=99 max_train_err=\d+/\d+ out=",
            out,
        )
        blob = json.loads(out_file.read_text())
        assert set(blob) == {
            "training_set", "error_table", "minmax_index", "pooled_index",
            "max_train_err",
        }

    def test_epsilon_sets_m(self, built, capsys):
        code, out, _ = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "meta.json"), "--n", "1",
            "--epsilon", "1/10", "--delta", "1/10", "--seed", "3",
        )
        assert code == 0
        assert " m=254 " in out  # ceil(log(2*8*1/0.1) / (2 * 0.01))

    @pytest.mark.parametrize("flags, message", [
        ((), "provide either --m or --epsilon"),
        (("--m", "4", "--epsilon", "1/10"), "--m and --epsilon exclude each other"),
    ], ids=["neither", "both"])
    def test_m_and_epsilon_messages(self, built, capsys, flags, message):
        out_file = built / "learn.json"
        code, out, err = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "meta.json"), "--n", "2", *flags, "--out", str(out_file),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_requires_m_or_epsilon(self, built, capsys):
        code, _, err = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "meta.json"), "--n", "2",
        )
        assert code == 2
        assert "error:" in err

    def test_seed_precedence(self, built, capsys, monkeypatch):
        argv = ("learn", "--class", str(built / "class.json"),
                "--meta", str(built / "meta.json"), "--n", "2", "--m", "2")
        monkeypatch.delenv("GENLAB_SEED", raising=False)
        _, out, _ = run(capsys, *argv)
        assert f"seed={DEFAULT_SEED} " in out
        monkeypatch.setenv("GENLAB_SEED", "123")
        _, out, _ = run(capsys, *argv)
        assert "seed=123 " in out
        _, out, _ = run(capsys, *argv, "--seed", "77")
        assert "seed=77 " in out

    def test_bad_env_seed(self, built, capsys, monkeypatch):
        for value in (str(1 << 64), "abc"):
            monkeypatch.setenv("GENLAB_SEED", value)
            code, _, err = run(
                capsys, "learn", "--class", str(built / "class.json"),
                "--meta", str(built / "meta.json"), "--n", "2", "--m", "2",
            )
            assert code == 2
            assert "64-bit" in err and value in err
        assert "GENLAB_SEED" in err

    @pytest.mark.parametrize("space", [3, 12])
    def test_meta_on_another_space_refused(self, built, capsys, space):
        domain = genlab.LabeledDistribution(space, ((space - 1, 1, F(1)),))
        meta = genlab.MetaDistribution(genlab.DomainFamily(space, (domain,)), (F(1),))
        genlab.write_json_atomic(built / "other.json", genlab.meta_to_dict(meta))
        out_file = built / "learn.json"
        code, out, err = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "other.json"), "--n", "3", "--m", "5",
            "--seed", "1", "--out", str(out_file),
        )
        assert (code, out) == (2, "")
        assert err == f"error: class space 10 != meta space {space}\n"
        assert not out_file.exists()

    def test_meta_without_domains_refused(self, built, capsys):
        (built / "empty.json").write_text(json.dumps({"domains": [], "weights": []}))
        code, out, err = run(
            capsys, "learn", "--class", str(built / "class.json"),
            "--meta", str(built / "empty.json"), "--n", "3", "--m", "5", "--seed", "1",
        )
        assert (code, out, err) == (2, "", "error: meta object lists no domains\n")


class TestDivergenceCommands:
    @pytest.fixture()
    def built(self, tmp_path, capsys):
        run(capsys, "construct", "large-k", "--alpha", "1/50", "--out-dir", str(tmp_path))
        return tmp_path

    def test_divergence_identity(self, built, capsys):
        code, out, _ = run(
            capsys, "divergence", "--class", str(built / "class.json"),
            "--d1", str(built / "domain_1.json"), "--d2", str(built / "domain_1.json"),
        )
        assert code == 0
        assert out.rstrip() == "divergence=0/1 kind=full"

    def test_full_width_domain_mass_refused(self, built, capsys):
        self.check_mass_refused(built, capsys, "\uff11/\uff12")

    @pytest.mark.parametrize("pad", ["\u2003{}", "{}\u3000"])
    def test_unicode_padded_domain_mass_refused(self, built, capsys, pad):
        mass = json.loads((built / "domain_1.json").read_text())["atoms"][0]["mass"]
        self.check_mass_refused(built, capsys, pad.format(mass))

    @staticmethod
    def check_mass_refused(built, capsys, mass):
        domain = json.loads((built / "domain_1.json").read_text())
        domain["atoms"][0]["mass"] = mass
        (built / "bad_domain.json").write_text(json.dumps(domain))
        code, out, err = run(
            capsys, "divergence", "--class", str(built / "class.json"),
            "--d1", str(built / "bad_domain.json"), "--d2", str(built / "domain_1.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "atom mass expected a decimal-free rational" in err

    def test_divergence_restricted(self, built, capsys):
        code, out, _ = run(
            capsys, "divergence", "--class", str(built / "class.json"),
            "--d1", str(built / "domain_1.json"), "--d2", str(built / "domain_2.json"),
            "--tau", "3/10",
        )
        assert code == 0
        assert out.endswith("kind=restricted\n")

    def test_cover(self, built, capsys):
        cover_out = built / "cover.json"
        code, out, _ = run(
            capsys, "cover", "--class", str(built / "class.json"),
            "--domains", str(built / "family.json"), "--radius", "1/2",
            "--out", str(cover_out),
        )
        assert code == 0
        assert out.startswith("centers=1 radius=1/2 valid=true")
        assert cover_out.exists()


class TestEntryPoint:
    @staticmethod
    def loaded_modules(code, package="genlab"):
        """The modules of `package` a fresh interpreter holds after running `code`."""
        env = {**os.environ, "PYTHONPATH": str(Path(genlab.__file__).parents[1])}
        code += f"; print(*sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.splitlines()[-1].split())

    def test_import_loads_no_experiments_or_constructions(self):
        loaded = self.loaded_modules("import sys, genlab.cli")
        assert loaded == {"genlab", "genlab.cli", "genlab.core", "genlab.serialize"}

    def test_gdim_loads_no_learner_divergence_or_seeding(self, tmp_path, capsys):
        run(capsys, "construct", "large-k", "--alpha", "1/50", "--out-dir", str(tmp_path))
        argv = ["gdim", "--class", str(tmp_path / "class.json"),
                "--domains", str(tmp_path / "family.json"), "--tau", "3/10", "--alpha", "1/50"]
        loaded = self.loaded_modules(f"import sys, genlab.cli; genlab.cli.main({argv!r})")
        assert "genlab.dimensions" in loaded
        assert not loaded & {"genlab.learner", "genlab.divergence", "genlab.seeding"}

    def test_chain_commands_load_no_dataclasses(self, tmp_path, capsys):
        run(capsys, "construct", "product", "--alpha", "1/50", "--d", "2", "--out-dir", str(tmp_path))
        files = ["--class", str(tmp_path / "class.json"), "--domains", str(tmp_path / "family.json")]
        query = ["--tau", "3/10", "--alpha", "1/50"]
        cert = str(tmp_path / "cert.json")
        for argv in (["gdim", *files, *query, "--cert-out", cert],
                     ["verify-cert", *files, "--cert", cert, *query],
                     ["cover", *files, "--radius", "1/100", "--tau", "3/10"]):
            code = f"import sys, genlab.cli; assert genlab.cli.main({argv!r}) == 0"
            assert self.loaded_modules(code, "dataclasses") == set(), argv[0]

    def test_parser_built_once(self):
        assert build_parser() is build_parser()


class TestArgumentErrors:
    def test_decimal_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "large-k", "--alpha", "0.02", "--out-dir", "."])
        assert exc.value.code == 2
        assert "rational" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["\u0661/\u0665\u0660", "\uff11/\uff15\uff10",
                                       "\u20031/50", "1/50\u3000"])
    def test_non_ascii_digits_rejected(self, tmp_path, capsys, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "large-k", "--alpha", alpha, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "error: argument --alpha: expected a decimal-free rational" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gdim", "--class", "x.json"])
        assert exc.value.code == 2

    def test_missing_file_reports_error(self, capsys):
        code = main(["vcdim", "--class", "/nonexistent/class.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestExperimentCommands:
    def config(self, tmp_path):
        return write_config(tmp_path / "cfg.json", {
            "experiment": "scaling",
            "generator": "uniform-shattered",
            "family_alpha": "1/50",
            "n_grid": [2, 4],
            "trials": 6,
            "seed": 505,
        })

    def test_outputs_and_determinism(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out_dir = tmp_path / name
            code, out, _ = run(
                capsys, "experiment", "scaling", "--config", cfg,
                "--out", str(out_dir), "--threads", threads,
            )
            assert code == 0
            assert out.startswith("scaling: slope=")
            assert f"report={out_dir / 'report.json'}" in out
            outs.append(out_dir)
        names = ["report.json", "report.csv", "series.json"]
        for name in names:
            blobs = [(d / name).read_bytes() for d in outs]
            assert blobs[0] == blobs[1] == blobs[2]
        payload = json.loads((outs[0] / "report.json").read_text())
        assert set(payload) >= {"experiment", "config", "aggregates", "rows", "series"}

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out_dir = tmp_path / "o"
        code, _, _ = run(
            capsys, "experiment", "scaling", "--config", cfg,
            "--out", str(out_dir), "--seed", "9",
        )
        assert code == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["seed"] == 9

    def test_out_naming_a_file_refused(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code, out, err = run(capsys, "experiment", "scaling", "--config", cfg, "--out", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"File exists: '{cfg}'\n")
        assert err.count("\n") == 1

    def test_mismatched_subcommand_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code, _, err = run(
            capsys, "experiment", "lower-bound", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "declares experiment" in err

    def test_uniform_convergence_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "uc.json", {
            "experiment": "uniform-convergence",
            "family_alpha": "1/50",
            "n_grid": [4, 8],
            "trials": 10,
            "seed": 42,
            "c_grid": [1, 2],
        })
        code, out, _ = run(
            capsys, "experiment", "uniform-convergence", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert out.startswith("uniform-convergence: dimension=3 calibrated_c=")

    UC = {
        "experiment": "uniform-convergence", "family_alpha": "1/50",
        "n_grid": [4, 8], "trials": 3, "seed": 42,
    }

    @pytest.mark.parametrize("key, value", [
        ("trials", 2.7), ("trials", "30"), ("trials", True), ("seed", True), ("seed", "30"),
        ("seed", 2.0), ("n_grid", [1, 2.9]), ("n_grid", "12"), ("n_grid", 12),
        ("n_grid", [1, True]), ("c_grid", "48"), ("c_grid", 8), ("c_grid", [1, 2.0]),
        ("tau", True),
    ])
    def test_non_integer_config_values_refused(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "uc.json", {**self.UC, key: value})
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "experiment", "uniform-convergence", "--config", cfg, "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err and not out_dir.exists()

    @pytest.mark.parametrize("config", [[], None, 7, "x"], ids=["list", "null", "int", "str"])
    def test_non_object_config_refused(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path / "cfg.json", config)
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "experiment", "scaling", "--config", cfg, "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: scaling config must be a JSON object") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("edit", [
        {"seed": 2**64 - 1}, {"seed": None}, {"tau": None, "delta": None, "c_grid": None},
    ])
    def test_integer_and_null_config_values_accepted(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path / "uc.json", {**self.UC, **edit})
        code, out, _ = run(
            capsys, "experiment", "uniform-convergence", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0 and out.startswith("uniform-convergence: dimension=3 ")

    def test_lower_bound_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lb.json", {
            "experiment": "lower-bound",
            "family_alpha": "1/50",
            "gamma": "1/20",
            "n": 6,
            "trials": 8,
            "seed": 43,
        })
        code, out, _ = run(
            capsys, "experiment", "lower-bound", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert out.startswith("lower-bound: exceed_freq=")

    def test_threads_below_one_refused(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        for threads in ("0", "-2"):
            out_dir = tmp_path / f"t{threads}"
            code, _, err = run(
                capsys, "experiment", "scaling", "--config", cfg,
                "--out", str(out_dir), "--threads", threads,
            )
            assert code == 2
            assert err.startswith("error:") and "threads" in err
            assert not out_dir.exists()

    def test_negative_float_digits_refused_before_run(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out_dir = tmp_path / "o"
        code, _, err = run(
            capsys, "experiment", "scaling", "--config", cfg,
            "--out", str(out_dir), "--float-digits", "-1",
        )
        assert code == 2
        assert err.startswith("error:") and "float digits" in err
        assert err.count("error:") == 1
        assert not (out_dir / "report.json").exists()
        code, _, _ = run(
            capsys, "experiment", "scaling", "--config", cfg,
            "--out", str(out_dir), "--float-digits", "0",
        )
        assert code == 0 and (out_dir / "report.csv").exists()

    def test_zero_tau_margin_reaches_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lb.json", {
            "experiment": "lower-bound", "family_alpha": "1/50", "gamma": "1/20",
            "n": 6, "trials": 4, "seed": 43, "tau_margin": "0",
        })
        code, _, _ = run(
            capsys, "experiment", "lower-bound", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "report.json").read_text())
        assert payload["config"]["tau_margin"] == "0/1"
        assert payload["aggregates"]["tau_prime"] == "2/7"  # the floor itself

    def test_tau_margin_at_floor_reaches_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lb.json", {
            "experiment": "lower-bound", "family_alpha": "1/50", "gamma": "1/20",
            "n": 3, "trials": 2, "seed": 5, "tau_margin": "2/7",
        })
        code, _, _ = run(
            capsys, "experiment", "lower-bound", "--config", cfg,
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "report.json").read_text())
        assert payload["aggregates"]["tau_prime"] == "0/1"

    def test_zero_values_refused_cleanly(self, tmp_path, capsys):
        uc = {
            "experiment": "uniform-convergence", "family_alpha": "1/50",
            "n_grid": [4], "trials": 2, "seed": 42,
        }
        lb = {
            "experiment": "lower-bound", "family_alpha": "1/50", "gamma": "1/20",
            "n": 6, "trials": 2, "seed": 43,
        }
        scaling = {
            "experiment": "scaling", "generator": "uniform-shattered",
            "family_alpha": "1/50", "n_grid": [2], "trials": 2, "seed": 505,
        }
        cases = (
            (scaling, "delta", "delta"),
            (uc, "delta", "delta"),
            (uc, "tau", "tau"),
            (lb, "tau", "tau"),
        )
        for i, (base, key, word) in enumerate(cases):
            cfg = write_config(tmp_path / f"c{i}.json", {**base, key: "0"})
            code, _, err = run(
                capsys, "experiment", base["experiment"], "--config", cfg,
                "--out", str(tmp_path / f"o{i}"),
            )
            assert code == 2, (key, base["experiment"])
            assert err.startswith("error:") and word in err

    SCALING = {
        "experiment": "scaling", "generator": "uniform-shattered",
        "family_alpha": "1/50", "n_grid": [2], "trials": 2, "seed": 505,
    }
    LOWER_BOUND = {
        "experiment": "lower-bound", "family_alpha": "1/50", "gamma": "1/20",
        "n": 6, "trials": 2, "seed": 43,
    }

    @pytest.mark.parametrize("base, key, value", [
        (SCALING, "tau", "3"), (SCALING, "tau", "-1/2"), (SCALING, "alpha", "-1/100"),
        (SCALING, "tau_margin", "-1"), (LOWER_BOUND, "tau_margin", "-1"),
        (LOWER_BOUND, "tau_margin", "1"),
        ({**SCALING, "generator": "adversarial-meta"}, "tau_margin", "1"),
    ], ids=["scaling-tau-3", "scaling-tau-neg", "scaling-alpha", "scaling-tau_margin",
            "lower-bound-tau_margin", "lower-bound-tau_margin-above-floor",
            "adversarial-tau_margin-above-floor"])
    def test_out_of_range_thresholds_refused(self, tmp_path, capsys, base, key, value):
        cfg = write_config(tmp_path / "cfg.json", {**base, key: value})
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "experiment", base["experiment"], "--config", cfg, "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key} must lie in ") and err.count("\n") == 1
        assert not (out_dir / "report.json").exists()
