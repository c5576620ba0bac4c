"""The domain reader against a frozen copy of the `Fraction` reader it replaced.

`serialize.domain_from_dict` reads each mass as two ints and builds the
domain with `LabeledDistribution.from_weighted`, with no `Fraction` per atom.
The frozen copy below is the reader before that change: `rational_from_str`
parsing each mass into a `Fraction`, and `LabeledDistribution.__init__`
checking the atoms and storing them with their integer numerators. On seeded
generated families, on seeded mutants of family objects and on the masses in
`MASSES`, both readers must give the same domains (space, numerators,
denominator and `Fraction` atoms), or the same exception type and message.
The domains that the `gdim`, `verify-cert` and `cover` commands load never
make their `atoms` view.
"""
import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

from genlab import Atom, SpaceMismatchError, serialize
from genlab.cli import main
from genlab.serialize import FormatError, domain_from_dict, domain_to_dict, family_from_dict

# ---- the frozen reader ----------------------------------------------------

_FROZEN_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)
_FROZEN_SPACE = " \t\n\r\x0b\x0c"


def frozen_rational(text, what):
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str) or not _FROZEN_RATIONAL.match(body := text.strip(_FROZEN_SPACE)):
        raise FormatError(
            f"{what} expected a decimal-free rational like '3/10' or '7', got {text!r}".lstrip()
        )
    try:
        return Fraction(body)
    except ZeroDivisionError as exc:
        raise FormatError(f"{what} zero denominator in rational {text!r}".lstrip()) from exc


def frozen_typed(value, kind, what):
    if not isinstance(value, kind):
        name = {list: "list", dict: "object", str: "string"}[kind]
        raise FormatError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


def frozen_field(obj, key, what, kind=object):
    if key not in frozen_typed(obj, dict, what):
        raise FormatError(f"{what} needs a '{key}' field")
    return obj[key] if kind is object else frozen_typed(obj[key], kind, f"{what} '{key}'")


def frozen_int(value, what):
    if type(value) is not int:
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def frozen_domain(space, atoms):
    """`LabeledDistribution.__init__` as it was: (space, atoms, weighted,
    denominator) of the checked domain."""
    if type(space) is not int or space < 1:
        raise ValueError(f"instance space size must be a positive integer, got {space!r}")
    raw = tuple(atoms)
    masses = tuple(m for _, _, m in raw)
    if not set(map(type, masses)) <= {int, Fraction}:
        bad = next(v for v in masses if type(v) not in (int, Fraction))
        raise ValueError(f"atom masses must be ints or Fractions, got {bad!r}")
    den = math.lcm(*(w.denominator for w in masses))
    nums = [w.numerator * (den // w.denominator) for w in masses]
    if min(nums, default=0) < 0:
        raise ValueError("atom masses must be non-negative")
    if sum(nums) != den:
        raise ValueError(f"atom masses must sum to 1, got {Fraction(sum(nums), den)}")
    seen = set()
    for (x, y, _), w in zip(raw, nums):
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"atom instance and label must be integers, got {(x, y)!r}")
        if not (0 <= x < space):
            raise ValueError(f"atom instance {x} outside space of size {space}")
        if y not in (0, 1):
            raise ValueError(f"atom label must be 0 or 1, got {y}")
        if not w:
            raise ValueError("atom mass must be positive, got 0")
        if (x, y) in seen:
            raise ValueError(f"duplicate atom for (x={x}, y={y})")
        seen.add((x, y))
    atoms = tuple(sorted(Atom(x, y, Fraction(m)) for x, y, m in raw))
    weighted = tuple(sorted((x, y, w) for (x, y, _), w in zip(raw, nums)))
    return space, atoms, weighted, den


def frozen_domain_from_dict(obj):
    atoms = tuple(
        Atom(
            frozen_int(frozen_field(a, "x", "atom"), "atom x"),
            frozen_int(frozen_field(a, "y", "atom"), "atom y"),
            frozen_rational(frozen_field(a, "mass", "atom"), "atom mass"),
        )
        for a in frozen_field(obj, "atoms", "domain object", list)
    )
    return frozen_domain(frozen_int(frozen_field(obj, "space", "domain object"), "domain space"),
                         atoms)


def frozen_family(obj):
    """The frozen reader over a family object of inline domains."""
    domains = tuple(frozen_domain_from_dict(e) for e in frozen_field(obj, "domains", "family object", list))
    if not domains:
        raise FormatError("family object lists no domains")
    for i, (space, *_) in enumerate(domains):
        if space != domains[0][0]:
            raise SpaceMismatchError(f"domain {i} has space {space}, family space is {domains[0][0]}")
    return domains


def fields(d):
    return d.space, d.atoms, d.weighted, d.denominator


def outcome(read, obj):
    """What `read` makes of `obj`, or the type and message it raises."""
    try:
        return read(obj)
    except Exception as exc:
        return type(exc), str(exc)


def new_family(obj):
    return tuple(map(fields, family_from_dict(obj).domains))


# ---- inputs ---------------------------------------------------------------

HUGE = "9" * 4301
MASSES = [
    "2/4", "03/10", "+1/2", "-0/5", "-1/2", "0/7", " 1/2\t", "\n2/4\x0c", "1/2\n", " 1/2",
    "１/2", "1/0", "0/0", "-3/0", "1/2/3", "1.5", "1e3", "1/ 2", "", " ", "+", "/2",
    "0x1/2", "1_0/20", "٣/6", 0, 1, 2, -1, True, False, 0.5, 1.0, None, [], {}, [1, 2],
    HUGE + "/1", "1/" + HUGE, "-" + HUGE + "/3", HUGE + "/0", HUGE + "/" + "7" * 4400,
    "0" * 4301 + "1/2", "1/" + "0" * 4300 + "2",
]


def test_listed_masses_read_as_the_frozen_reader_reads_them():
    for mass in MASSES:
        for other in ("1/2", "0", 0, "1/3"):
            obj = {"space": 3, "atoms": [{"x": 0, "y": 1, "mass": mass},
                                         {"x": 2, "y": 0, "mass": other}]}
            assert outcome(lambda o: fields(domain_from_dict(o)), obj) == outcome(
                frozen_domain_from_dict, obj), (mass, other)
        obj = {"space": 1, "atoms": [{"x": 0, "y": 0, "mass": mass}]}
        assert outcome(lambda o: fields(domain_from_dict(o)), obj) == outcome(
            frozen_domain_from_dict, obj), mass


def spell(rng, q):
    """A mass string or JSON int that the frozen reader reads as the Fraction q."""
    k = rng.choice([1, 1, 1, 2, 3, 10])
    p, d = q.numerator * k, q.denominator * k
    pad = lambda: rng.choice(["", "", " ", "\t", "\n", " \r\n"])
    if d == 1 and rng.random() < 0.3:
        return p if rng.random() < 0.5 else f"{pad()}{'+' if rng.random() < 0.3 else ''}{p}{pad()}"
    zeros = "0" * rng.choice([0, 0, 0, 1, 3])
    return f"{pad()}{rng.choice(['', '', '+'])}{zeros}{p}/{zeros}{d}{pad()}"


def generated_family(rng):
    space = rng.randint(1, 12)
    domains = []
    for _ in range(rng.randint(1, 8)):
        cells = rng.sample([(x, y) for x in range(space) for y in (0, 1)],
                           rng.randint(1, min(2 * space, 9)))
        weights = [rng.randint(1, rng.choice([9, 10**6, 10**30])) for _ in cells]
        total = sum(weights)
        domains.append({"space": space, "atoms": [
            {"x": x, "y": y, "mass": spell(rng, Fraction(w, total))}
            for (x, y), w in zip(cells, weights)]})
    return {"domains": domains}


def test_generated_families_read_as_the_frozen_reader_reads_them():
    rng = random.Random(3232)
    for _ in range(300):
        obj = generated_family(rng)
        new = new_family(obj)
        assert new == frozen_family(obj)
        for d, raw in zip(family_from_dict(obj).domains, obj["domains"]):
            # the writer's masses are the frozen reader's Fractions in lowest terms
            assert domain_to_dict(d) == {"space": raw["space"], "atoms": [
                {"x": a.x, "y": a.y, "mass": f"{a.mass.numerator}/{a.mass.denominator}"}
                for a in frozen_domain_from_dict(raw)[1]]}
            assert domain_from_dict(domain_to_dict(d)) == d


VALUES = [0, 1, -1, 2, 7, 12, 3.0, "1", True, False, None, [0], {"x": 0}, HUGE]


def mutate(rng, obj):
    """One seeded change to a family object, at a random domain and atom."""
    domains = [d for d in obj["domains"] if isinstance(d, dict) and isinstance(d.get("atoms"), list)
               and any(isinstance(a, dict) for a in d["atoms"])]
    if not domains:
        return obj
    d = rng.choice(domains)
    atoms = d["atoms"]
    a = rng.choice([a for a in atoms if isinstance(a, dict)])
    kind = rng.randrange(11)
    if kind == 0:
        a["mass"] = rng.choice(MASSES)
    elif kind == 1:
        a[rng.choice(["x", "y"])] = rng.choice(VALUES)
    elif kind == 2:
        a.pop(rng.choice(["x", "y", "mass"]), None)
    elif kind == 3:
        atoms[atoms.index(a)] = rng.choice([None, 3, "atom", [a.get("x"), a.get("y")], ()])
    elif kind == 4:  # a repeated atom, most often splitting the mass in two
        twin = dict(a)
        atoms.append(twin)
        with contextlib.suppress(Exception):
            if rng.random() < 0.7:
                a["mass"] = twin["mass"] = spell(rng, frozen_rational(a["mass"], "") / 2)
    elif kind == 5:
        d["space"] = rng.choice(VALUES)
    elif kind == 6:
        d.pop(rng.choice(["space", "atoms"]))
    elif kind == 7:
        d["atoms"] = rng.choice([None, {}, "atoms", 3, []])
    elif kind == 8:
        a["mass"] = spell(rng, Fraction(rng.randint(0, 5), rng.randint(1, 5)))
    elif kind == 9:
        a["mass"] = "-" + str(a.get("mass")).strip()
    else:
        a["note"] = rng.choice(VALUES)
    return obj


def test_mutated_families_read_as_the_frozen_reader_reads_them():
    rng = random.Random(3233)
    refused = 0
    for _ in range(600):
        obj = mutate(rng, generated_family(rng))
        if rng.random() < 0.3:
            obj = mutate(rng, obj)
        new = outcome(new_family, obj)
        assert new == outcome(frozen_family, obj), json.dumps(obj)[:300]
        refused += isinstance(new[0], type)
    assert 300 < refused < 600


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def test_a_numerator_past_the_digit_limit_exits_two(tmp_path):
    assert run(["construct", "product", "--alpha", "1/50", "--d", "2", "--out-dir", tmp_path]) == (0, "")
    obj = json.loads((tmp_path / "family.json").read_text())
    obj["domains"][1]["atoms"][0]["mass"] = HUGE + "/7"
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, err = run(["gdim", "--class", tmp_path / "class.json", "--domains", tmp_path / "bad.json",
                     "--tau", "3/10", "--alpha", "1/50"])
    assert code == 2
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")


def test_the_family_chain_never_makes_the_atom_view(tmp_path, monkeypatch):
    loaded = []
    load_family = serialize.load_family
    monkeypatch.setattr(serialize, "load_family", lambda path: loaded.append(load_family(path)) or loaded[-1])
    assert run(["construct", "product", "--alpha", "1/50", "--d", "2", "--out-dir", tmp_path]) == (0, "")
    files = ["--class", tmp_path / "class.json", "--domains", tmp_path / "family.json"]
    query = ["--tau", "3/10", "--alpha", "1/50"]
    assert run(["gdim", *files, *query, "--cert-out", tmp_path / "cert.json"])[0] == 0
    assert run(["verify-cert", *files, "--cert", tmp_path / "cert.json", *query])[0] == 0
    assert run(["cover", *files, "--radius", "1/100", "--tau", "3/10",
                "--out", tmp_path / "cover.json"])[0] == 0
    domains = [d for g in loaded for d in g.domains]
    assert len(loaded) == 3 and len(domains) == 3 * 6
    assert not [d for d in domains if "atoms" in vars(d)]
    d = domains[0]
    assert d.atoms is d.atoms and "atoms" in vars(d)
