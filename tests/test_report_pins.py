"""Report bytes of the scaling and lower-bound runners, pinned per config and
seed: every scaling generator in exact and empirical mode, a fixed and a
per-n gamma, and two lower-bound sizes. The trials-exact and trials-sampled
configs are the benchmark's, and their default-seed digests equal the ones in
perfbench/pins.json. Refused configs must print the same error line."""
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
POINT_MASS = {"generator": "point-mass", "family_alpha": "1/50", "n_grid": [4, 8, 16],
              "trials": 5}
ADVERSARIAL = {"generator": "adversarial-meta", "family_alpha": "1/100"}

CONFIGS = {
    "trials-exact scaling": ("scaling", TRIALS_EXACT),
    "trials-exact lower-bound": ("lower-bound", TRIALS_EXACT_LB),
    "trials-sampled scaling": ("scaling", TRIALS_SAMPLED),
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
# three-runner design this one trial path replaced.
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
