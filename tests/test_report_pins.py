"""Report bytes of all three runners, pinned per config and seed: every scaling
generator in exact and empirical mode, a fixed and a per-n gamma, two
lower-bound sizes and the uniform-convergence config. The trials-exact and
trials-sampled configs are the benchmark's, and their default-seed digests
equal the ones in perfbench/pins.json. Refused configs must print the same error line. Every
file `construct` writes for the large-k, lower-bound, product and adversarial
constructions is pinned too, and so is what `learn` writes and prints on the
adversarial one."""
import hashlib
import json

import pytest

from genlab.cli import main

TRIALS_EXACT = {"generator": "adversarial-meta", "family_alpha": "1/100",
                "n_grid": [8, 16, 32, 64, 128, 256], "alpha": "1/200", "trials": 30}
TRIALS_EXACT_LB = {"family_alpha": "1/2000", "gamma": "1/50", "n": 25, "trials": 30}
TRIALS_SAMPLED = {"generator": "uniform-shattered", "family_alpha": "1/50", "tau": "1/2",
                  "alpha": "1/100", "epsilon": "1/10", "n_grid": [8, 16, 32, 64],
                  "trials": 4}
TRIALS_SAMPLED_UC = {"family_alpha": "1/100", "n_grid": [16, 32, 64, 128, 256],
                     "c_grid": [1, 2, 4, 8], "trials": 200}
POINT_MASS = {"generator": "point-mass", "family_alpha": "1/50", "n_grid": [4, 8, 16],
              "trials": 5}
ADVERSARIAL = {"generator": "adversarial-meta", "family_alpha": "1/100"}

CONFIGS = {
    "trials-exact scaling": ("scaling", TRIALS_EXACT),
    "trials-exact lower-bound": ("lower-bound", TRIALS_EXACT_LB),
    "trials-sampled scaling": ("scaling", TRIALS_SAMPLED),
    "trials-sampled uniform-convergence": ("uniform-convergence", TRIALS_SAMPLED_UC),
    "point-mass exact": ("scaling", POINT_MASS),
    "point-mass sampled": ("scaling", {**POINT_MASS, "epsilon": "1/10"}),
    "uniform-shattered exact": ("scaling", {
        "generator": "uniform-shattered", "family_alpha": "1/50",
        "n_grid": [4, 8, 16, 32], "trials": 8}),
    "adversarial sampled": ("scaling", {
        **ADVERSARIAL, "tau": "1/2", "alpha": "1/400", "epsilon": "1/20",
        "n_grid": [8, 16], "trials": 3}),
    "adversarial fixed gamma": ("scaling", {
        **ADVERSARIAL, "gamma": "1/20", "n_grid": [8, 16, 32], "trials": 6}),
    "lower-bound small": ("lower-bound", {
        "family_alpha": "1/100", "gamma": "1/50", "n": 5, "trials": 12}),
}

# sha256 of (report.json, report.csv) per (config, seed), computed with the
# three-runner design this one trial path replaced; the uniform-convergence ones
# with `json.dump` writing the whole report.
PINS = {
    ("trials-exact scaling", 70001): (
        "cc86128c6e3018d2f4dbe7c281d6ea889624f57df57a90c873b6902fb34590cf",
        "91cfa2bcc41d27161bbcb20f602b29e605dac34a8b0eed9123c1a2e992e904cd"),
    ("trials-exact scaling", 104729): (
        "61bfa124ad9ca00769f992662c31c1cfc201d9e94aab5a0711e5e2dcc107c705",
        "00178ecffadbcecd7bbb44266673409f9212eb194bd427f964531f76d8804bb4"),
    ("trials-exact lower-bound", 80001): (
        "201af653d550db2d178fc6e022f5295ff04f71b5a8afff5d9b900af214ed2747",
        "6535ee41a6e1ad123222ff8a086eb1a1635e0fc900d9109b605bed76dbc4ff07"),
    ("trials-exact lower-bound", 104729): (
        "9b38026eb9695a8f0cc78bcda060acc625912a1a83048cd2a005d23f003eef23",
        "3d86184f00477b411e2a79c12e9d69e677d39fa0072ffbcc777d3702c01f3de1"),
    ("trials-sampled scaling", 31007): (
        "5d78cc5296621fe5df5e4ee32144a32f694fabce5a657506f8dd02d939fb6113",
        "6ca332621c2c4b77fa61c63d1bca11433df1b834c1b578a98f60e819e6f1f55e"),
    ("trials-sampled scaling", 104729): (
        "a03049df0e773a2f50016d494a499fc17e1972929765857eb3e8ab735dd7fa17",
        "a85a841f30138d10dd0f366c0f2b555bfbc4a50cbdd0a311d4be049baf6ae1d4"),
    ("trials-sampled uniform-convergence", 90001): (
        "ef01799942b78f18e067f11620a4560bf2d41200178b3db54a19e6c8f3a61034",
        "6da9a411f7c61ead481b83cee6c7bbbd15d283e740819201ad85826ad80d93c0"),
    ("trials-sampled uniform-convergence", 104729): (
        "184f19cab6d94e207b054fb8670ebb77540da07bd954116edf8ecfa54c080585",
        "67b7d680063779cbb602a6501694cfa4bef47f8d333db392cabffade0fe079ad"),
    ("point-mass exact", 11): (
        "97e4f39d1f2e0122fa94726b2baa119af5268b1644b418b0e3840d20144389ee",
        "8e628775fca28e4a598bd075336791c0c462da403d353747ece8065a92cb7420"),
    ("point-mass exact", 12): (
        "0cf8ebb1490c2dd9ab72121e1aa6e990006c6692c4cd55db5b848a746a5defef",
        "77fa42953f6449e62268c625ed4988bc118ceb0ac46e147e286608d36cc8d219"),
    ("point-mass sampled", 11): (
        "a539f73549aa570698ab298f2d6f1b8ddd9b5e85bf16478c0d6dbff180b5c72b",
        "8e628775fca28e4a598bd075336791c0c462da403d353747ece8065a92cb7420"),
    ("point-mass sampled", 12): (
        "bf86f42f4d4200c8a1e31c44ea86666686ed65b1e6aa174d293e236ab5a08a26",
        "77fa42953f6449e62268c625ed4988bc118ceb0ac46e147e286608d36cc8d219"),
    ("uniform-shattered exact", 21): (
        "8ad49a66530a52fbef62e7e83958915277fe6a6a03fad44b9e26b13ed73eec91",
        "76b90f32afa772721151d55db15318d628cd6f3987e496790f65e918ffdf3707"),
    ("uniform-shattered exact", 22): (
        "422914ff17fabd9420eb716fb8e556421c0dd0f0d6def594c826be6836b75189",
        "a93b0241fa340774df9eeb2591f3cc2c5c1b4b63605b8664d830279a33994b63"),
    ("adversarial sampled", 31): (
        "34aff376b80d6ec3261058c67f5dd4978279e4bb30571f5f8ca38a88ec1d8a96",
        "159d2c7065eb9fd3a1cd1fa098425f6f64c9566be6d7773c048f61bbcfc1512e"),
    ("adversarial sampled", 32): (
        "e7bf82cafdca1352899df9cceafa45338d9dc1b27b46eb9ce7edc3ef93834c7e",
        "02c73b239914e7a0a1d2ed15cc528b2b358f962bb2bd627abe8c070137f5ee7e"),
    ("adversarial fixed gamma", 41): (
        "0378f1b3d9b7e861c9e0f6ccba000aeff316628035e4fd9e2cf150fff57c406a",
        "1049398dec0bf34c1254b171036a7aa037f204dcb6f8b92aaa994fcb7026bcaf"),
    ("adversarial fixed gamma", 42): (
        "370850fb020c4597335029c0cfd9bfe2c31b4499b3916acad453d5a717691664",
        "86fc3224e0fd1f452d2c4ccfe3c52cc7e778524cef1a612ab2bcac1ef8496696"),
    ("lower-bound small", 51): (
        "361929c3d00707ca91deb1eafb64aacba078ad9d36cd220d6f8135fc5e25cf75",
        "566d8ac20f7b4cff74fa66de7fae785fd87caf2084575f67ffd59d7ab2c05b54"),
    ("lower-bound small", 52): (
        "dfaf714344ab5f8df6f9c20acee1ccfcb65f05eeafe24fe39410f082c79d8daf",
        "08cc908e1d501e174177ec6dd302d0bb2da5e0e67bdfcc7b25f6dc50772b4179"),
}

# Configs the runners refuse, the seed, and the error line each prints: the
# adversarial margin check reads the trial's bit vector, so its line depends
# on the seed.
REFUSED = {
    "gamma outside (0, 1/8)": (
        "scaling", {**ADVERSARIAL, "family_alpha": "1/50", "n_grid": [2, 4], "trials": 2},
        71, "error: gamma at n=2 is 1/4, must lie in (0, 1/8)"),
    "adversarial margin": (
        "scaling", {**ADVERSARIAL, "family_alpha": "1/50", "tau": "1/20", "n_grid": [8],
                    "trials": 2},
        81, "error: optimal threshold 49/180 exceeds tau - alpha - 2*epsilon = 1/25; "
        "the margin precondition fails"),
    "uniform-shattered margin": (
        "scaling", {"generator": "uniform-shattered", "family_alpha": "1/50",
                    "epsilon": "1/5", "n_grid": [8], "trials": 2},
        91, "error: optimal threshold 49/180 exceeds tau - alpha - 2*epsilon = -11/100; "
        "the margin precondition fails"),
    "lower-bound margin": (
        "lower-bound", {"family_alpha": "1/100", "gamma": "1/50", "tau": "1/5", "n": 5,
                        "trials": 2},
        94, "error: optimal threshold 97/340 exceeds tau - alpha - 2*epsilon = 19/100; "
        "the margin precondition fails"),
}


def run_experiment(tmp_path, name, config, seed):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": name, **config, "seed": seed}))
    out = tmp_path / "out"
    code = main(["experiment", name, "--config", str(cfg), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: f"{k[0]}@{k[1]}")
def test_report_bytes_pinned(tmp_path, capsys, key):
    label, seed = key
    name, config = CONFIGS[label]
    code, out = run_experiment(tmp_path, name, config, seed)
    capsys.readouterr()
    assert code == 0
    digests = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("report.json", "report.csv")
    )
    assert digests == PINS[key]


@pytest.mark.parametrize("label", sorted(REFUSED))
def test_refused_config_error_line(tmp_path, capsys, label):
    name, config, seed, line = REFUSED[label]
    code, out = run_experiment(tmp_path, name, config, seed)
    assert code == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


# sha256 of every file each `construct` command writes, computed with the
# Fraction-built mixtures and generator-built threshold slices.
CONSTRUCT_PINS = {
    "large-k 1/50": (
        ("large-k", "--alpha", "1/50"),
        {
            "certificate.json": "0cbb0219501c17cc73fded2a33e57327273acc71f2fbff55ef49411591c09741",
            "class.json": "a8722d294a68f6dfb71112e2d539a2c5b94b65f5b5848b0439aaca22c6d4be1c",
            "domain_1.json": "b8aa3dbbb244864a8c9fe4e01de4fa625da28c6a08d5177359e63745d1705bb5",
            "domain_2.json": "b2952f3e2158760407892cd8bd21edf8748598584ec64012f27af194ca809583",
            "domain_3.json": "9f73fe78d2c4326d014e7b52d6e5abda25ea76a6e310f63100b567af9165ad42",
            "family.json": "4c2abf6790a956e7adabb3e5e35cab62b766fd5acbdda6c9b028f40b7a7630c6",
        }),
    "large-k 1/2000": (
        ("large-k", "--alpha", "1/2000"),
        {
            "certificate.json": "27a47666f898c91a826f1ed36c7657423ef46c1f1a82e5a565911afb69cadcb0",
            "class.json": "0acfb509c40b8b3d10554c6bb105ab399039c4e6449c9f703de63a7f22717254",
            "domain_1.json": "1d6650106cb02e56ac816f049273e1607f8749c2a8fc8b434f549ab697ba7938",
            "domain_2.json": "a6cc217c58df3ba74a7e9b91d62dc7b53c94afda18239ee0f1065ff406adc827",
            "domain_3.json": "5b76b12dc6ba259239912415b852656d1fd0f02b5d5ef61e756e9692b12ae19c",
            "domain_4.json": "24c77e735d0002708ece5fed2247910ff700276bd8db7588a736b255efa604dd",
            "domain_5.json": "45b3a9509bcaf8d68d6c5a0fd77a02f51fd71384f1a9fcdd377988f2d810d754",
            "domain_6.json": "46f82e4128b429af8d67421d11c7a6dcda66bd3f00f01759f146567926acf039",
            "domain_7.json": "cd246b78538991a8f09ea19a46acfc199a144ccbb62d40ab18beadc8cf5da2bb",
            "domain_8.json": "322d9a3d1bfcaf7004c1da0e127792bf9815afa71f792084c5c7e9fd3cd208d6",
            "family.json": "8bb1e5705aee8e4016710c658b31bfad256a441e4f19536da32685c6d479e7ab",
        }),
    "lower-bound 1/50": (
        ("lower-bound", "--alpha", "1/50"),
        {
            "certificate.json": "0cbb0219501c17cc73fded2a33e57327273acc71f2fbff55ef49411591c09741",
            "class.json": "a8722d294a68f6dfb71112e2d539a2c5b94b65f5b5848b0439aaca22c6d4be1c",
            "family.json": "07068d92e852af6dcd656f78c677dca75e085cfb521656f90281a971f42ee517",
        }),
    "lower-bound 1/2000": (
        ("lower-bound", "--alpha", "1/2000"),
        {
            "certificate.json": "27a47666f898c91a826f1ed36c7657423ef46c1f1a82e5a565911afb69cadcb0",
            "class.json": "0acfb509c40b8b3d10554c6bb105ab399039c4e6449c9f703de63a7f22717254",
            "family.json": "0bc0f955eecd42aa0f85d3e8f131fcc97f17007ac2c9dd3fcb8ef33e8066880b",
        }),
    "product 1/50 d3": (
        ("product", "--alpha", "1/50", "--d", "3"),
        {
            "class.json": "72f0b9179bce587cff457855cc436b7832801770ce775e97651b3934ac225975",
            "family.json": "333d7a0e0fe3fa7e917563521c06775ab4a9eb8afa0ba986cdc6d512c31c74d2",
        }),
    "adversarial 1/50": (
        ("adversarial", "--alpha", "1/50", "--gamma", "1/20", "--b", "101"),
        {
            "class.json": "a8722d294a68f6dfb71112e2d539a2c5b94b65f5b5848b0439aaca22c6d4be1c",
            "meta.json": "c174b78e430af95ea05fc00559a08ca0a72e7f9fddff1e0d0f9e138e9e836beb",
        }),
}


@pytest.mark.parametrize("label", sorted(CONSTRUCT_PINS))
def test_construct_bytes_pinned(tmp_path, capsys, label):
    argv, pins = CONSTRUCT_PINS[label]
    code = main(["construct", *argv, "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == pins


# `learn --out` on the adversarial construction above: the stdout line (before
# its " out=" suffix) and the sha256 of the file, at two sample sizes and seeds.
LEARN_PINS = {
    ("--n", "12", "--m", "40", "--seed", "1"): (
        "minmax=3 pooled=0 n=12 m=40 seed=1 max_train_err=3/8",
        "66691f6d075d4ca66902863ba5572d645986096acc8caeeb0de44808f08bcd0b"),
    ("--n", "12", "--m", "40", "--seed", "2"): (
        "minmax=7 pooled=3 n=12 m=40 seed=2 max_train_err=11/40",
        "cc5f70647279323bcb9db07a2a28f6064b9323ffd4385658c8228548ba0d1fff"),
    ("--n", "5", "--epsilon", "1/4", "--seed", "1"): (
        "minmax=0 pooled=0 n=5 m=54 seed=1 max_train_err=0/1",
        "5488fa0798e3f2ee8ebd27f554f24df0064a0efd5f41566f71fd6ad342273bc2"),
    ("--n", "5", "--epsilon", "1/4", "--seed", "2"): (
        "minmax=3 pooled=3 n=5 m=54 seed=2 max_train_err=7/27",
        "4e394d10ec1b856e41077697272737d5ea0d85724abee57a86eeb0fc9bebdc56"),
}


@pytest.mark.parametrize("argv", sorted(LEARN_PINS), ids=" ".join)
def test_learn_bytes_pinned(tmp_path, capsys, argv):
    argv_construct, _ = CONSTRUCT_PINS["adversarial 1/50"]
    assert main(["construct", *argv_construct, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "learn.json"
    code = main(["learn", "--class", str(tmp_path / "class.json"),
                 "--meta", str(tmp_path / "meta.json"), *argv, "--out", str(out)])
    line, digest = LEARN_PINS[argv]
    assert code == 0
    assert capsys.readouterr().out == f"{line} out={out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
