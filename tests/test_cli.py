import hashlib
import json
import os
import subprocess
import sys

import pytest

import titscomplex
from titscomplex import (
    Mat, apartment_class, cli, congruence_generators, eta_class, homology, reduction_map, steinberg,
)
from titscomplex.cli import main
from titscomplex.grassmann import SummandCatalog
from titscomplex.homology import fixed_subspace_dim, induced_top_map, reduced_homology
from titscomplex.verify import run_verify

TABLE1_CSV = """n,Z/4,Z/6,Z/8,Z/9,Z/10
1,1,1,1,1,1
2,5,11,11,11,17
3,113,911,1121,1171,3473
4,10879,497149,978559,1149929,7649589
5,4324129,1696007149,7061119489,10247219929,174326656989
6,6984271295,35372169269639,414187232163839,824092678295459,40378418645294393
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_table1_csv(capsys):
    code, out, err = run(capsys, "rank", "--rings", "Z/4,Z/6,Z/8,Z/9,Z/10", "--n-max", "6", "--format", "csv")
    assert code == 0
    assert out == TABLE1_CSV


def test_rank_field_column(capsys):
    code, out, _ = run(capsys, "rank", "--rings", "F2", "--n-max", "4", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1,1", "2,2", "3,8", "4,64"]


def test_rank_identical_columns(capsys):
    code, out, _ = run(capsys, "rank", "--rings", "Z/4,F2[e]^2", "--n-max", "5", "--format", "csv")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        _, a, b = line.split(",")
        assert a == b


def test_rank_bad_spec_names_offender(capsys):
    code, out, err = run(capsys, "rank", "--rings", "Z/4,Q8", "--n-max", "3")
    assert code == 2
    assert "Q8" in err


def test_rank_json_and_output_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "rank", "--rings", "Z/4", "--n-max", "3", "--format", "json", "--output", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["rows"][2]["ranks"]["Z/4"] == 113


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "rank", "--rings", "Z/4", "--n-max", "2", "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "--ring", "Z/4", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["homology"] == [{"betti": 5, "degree": 0, "torsion": []}]


def test_homology_filtration(capsys):
    code, out, _ = run(capsys, "homology", "--ring", "F2", "--n", "3", "--filtration", "1", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == ["degree,betti,torsion", "0,6,"]


def test_homology_budget_exceeded(capsys):
    code, out, err = run(capsys, "homology", "--ring", "Z/6", "--n", "4", "--budget", "1000")
    assert code == 3
    assert "budget" in err and "1000" in err


def test_grass_command(capsys):
    code, out, _ = run(capsys, "grass", "--ring", "Z/4", "--n", "2", "--enumerate", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == [
        "k,formula,enumerated,match",
        "0,1,1,true",
        "1,6,6,true",
        "2,1,1,true",
    ]


def test_grass_rejects_negative_n(capsys):
    code, out, err = run(capsys, "grass", "--ring", "Z/4", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: n must be >= 0\n"
    code, out, _ = run(capsys, "grass", "--ring", "Z/2xZ/3", "--n", "0", "--enumerate", "--format", "csv")
    assert code == 0
    assert out == "k,formula,enumerated,match\n0,1,1,true\n"


@pytest.mark.parametrize("argv", [["--n", "20000", "--k", "10000"], ["--n", "2000"], ["--n", "100000"]])
def test_grass_refuses_long_counts_before_any_formula(monkeypatch, capsys, argv):
    # the digit bound sum k(n-k) log10|R| + 1.61 per row exceeds DEFAULT_BUDGET
    # (--n 20000 --k 10000 ran over 20 s without it)
    def no_formula(*args):
        raise AssertionError("a Grassmannian count was computed")

    monkeypatch.setattr(cli, "grassmannian_size_formula", no_formula)
    code, out, err = run(capsys, "grass", "--ring", "Z/4", *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: enumeration of digits of the Grassmannian counts of Z/4^{argv[1]} needs ~")


def test_grass_keeps_its_range_errors_and_bytes(capsys):
    for k in ("5", "-1"):
        code, out, err = run(capsys, "grass", "--ring", "Z/4", "--n", "3", "--k", k)
        assert (code, out, err) == (2, "", f"error: need 0 <= k <= n, got k={k}, n=3\n")
    code, out, _ = run(capsys, "grass", "--ring", "Z/4", "--n", "10000000000", "--k", "-1")
    assert code == 2 and out == ""
    # bound 803,051 digits, under the budget: it still prints every row
    code, out, err = run(capsys, "grass", "--ring", "Z/4", "--n", "200")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2908c0e610a5b9e18f686417e06505fc302b3abd91dc64f8077d92689ec00a47"
    )


@pytest.fixture
def no_boundary_matrices(monkeypatch):
    """`chain_complex` raises, at every module attribute of the package
    that binds it."""
    original = homology.chain_complex

    def no_chains(cx):
        raise AssertionError("boundary matrices were built")

    for name, mod in list(sys.modules.items()):
        if (name == "titscomplex" or name.startswith("titscomplex.")) and getattr(mod, "chain_complex", None) is original:
            monkeypatch.setattr(mod, "chain_complex", no_chains)


@pytest.mark.parametrize("argv,want", [
    ("homology --ring F2 --n 3 --format csv", "degree,betti,torsion\n0,0,\n1,8,\n"),
    ("homology --ring Z/4 --n 4 --filtration 2 --format csv", "degree,betti,torsion\n0,0,\n1,2681,\n"),
    ("apartments --ring Z/4 --n 3", "apartment span rank 113 (exhaustive, saturated, 593 apartments); top betti 113; match: True\n"),
    ("verify --only eta-witness,reducibility-witness",
     "PASS  eta-witness: eta nonzero and killed by all UT chamber maps (Z/4, n=2)\n"
     "PASS  reducibility-witness: induced rank 2, kernel rank 3 of 5\n"
     "2 passed, 0 failed, 0 skipped\n"),
], ids=["homology", "filtration", "apartments", "verify-cycles-and-induced-map"])
def test_homology_and_apartments_build_no_boundary_matrix(capsys, no_boundary_matrices, argv, want):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (0, want, "")


def test_library_homology_and_span_build_no_boundary_matrix(built, no_boundary_matrices):
    cx = built.complex("Z/6", 3)
    assert reduced_homology(cx).betti == [0, 911]
    res = steinberg.apartment_span_rank(cx)
    assert (res.rank, res.top_betti, res.saturated) == (911, 911, True)


@pytest.mark.parametrize("label,n,want", [("Z/4", 3, 8), ("Z/4", 4, 64)])
def test_top_fixed_subspace_builds_no_boundary_matrix(built, no_boundary_matrices, label, n, want):
    # Gamma((2)): the top invariants have the rank of St_n(Z/2)
    cx = built.complex(label, n)
    perms = [cx.simplex_permutation(g, n - 2) for g in congruence_generators(cx.ring, n, [2])]
    assert fixed_subspace_dim(cx, n - 2, perms) == want


@pytest.mark.parametrize("label,n,ideal,want", [
    ("Z/8", 3, 2, (8, 1121, 8)),
    ("Z/9", 3, 3, (27, 1171, 27)),
    ("Z/4", 4, 2, (64, 10879, 64)),
])
def test_induced_top_map_builds_no_boundary_matrix(built, no_boundary_matrices, label, n, ideal, want):
    itm = induced_top_map(reduction_map(built.complex(label, n), [ideal]))
    assert (itm.rank, itm.src_cycle_rank, itm.dst_cycle_rank) == want


@pytest.mark.parametrize("label,n", [("Z/4", 2), ("Z/4", 3)])
def test_cycle_checks_build_no_boundary_matrix(built, no_boundary_matrices, label, n):
    cx = built.complex(label, n)
    apt = apartment_class(cx, Mat.identity(cx.ring, n))
    assert apt.boundary_is_zero()
    assert eta_class(cx, 2).boundary_is_zero()
    outside = next(k for k in range(cx.f_vector[-1]) if k not in apt.coeffs)
    assert not steinberg.SteinbergChain(cx, {outside: 1}).boundary_is_zero()
    assert not steinberg.SteinbergChain(cx, {**apt.coeffs, outside: 1}).boundary_is_zero()


def test_negative_budget_is_rejected(capsys):
    code, out, err = run(capsys, "homology", "--ring", "Z/4", "--n", "3", "--budget", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget must be >= 0" in err


def test_rank_has_no_budget(capsys):
    # the table comes from closed formulas, so there is nothing to budget
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--rings", "Z/4", "--n-max", "3", "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_grass_list_needs_enumerate(capsys):
    code, out, err = run(capsys, "grass", "--ring", "Z/4", "--n", "2", "--list")
    assert code == 2 and out == ""
    assert "--enumerate" in err
    code, out, _ = run(capsys, "grass", "--ring", "Z/4", "--n", "2", "--k", "1", "--enumerate", "--list", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["grassmannians"][0]["bases"]) == 6


def test_flags_command(capsys):
    code, out, _ = run(capsys, "flags", "--ring", "F2", "--n", "3", "--type", "1,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 21



@pytest.mark.parametrize("value", ["1,,2", "1,x", ""])
def test_flags_type_must_be_integers(capsys, value):
    code, out, err = run(capsys, "flags", "--ring", "F2", "--n", "3", "--type", value)
    assert code == 2 and out == ""
    assert err == f"error: --type must be comma-separated integers, got {value!r}\n"

def test_complex_export_deterministic(tmp_path, capsys):
    a, b, t = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.txt"
    for path, fmt in ((a, "json"), (b, "json"), (t, "text")):
        code, _, _ = run(capsys, "complex", "--ring", "F2", "--n", "3", "--format", fmt, "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes() == t.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["f_vector"] == [14, 21]


def test_apartments_command(capsys):
    code, out, _ = run(capsys, "apartments", "--ring", "Z/4", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["span_rank"] == 5 and doc["top_betti"] == 5 and doc["match"]


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_apartments_name_the_rejected_n(capsys, n):
    code, out, err = run(capsys, "apartments", "--ring", "F2", "--n", n)
    assert (code, out) == (2, "")
    assert f"n >= 2, got n={n}" in err


def test_apartment_span_entry_cap_exits_3(capsys, monkeypatch):
    """Past SPAN_ENTRY_CAP pivot entries the span stops at a recount, every
    256 classes, and the command exits 3; the default cap lets it finish."""
    code, out, _ = run(capsys, "apartments", "--ring", "Z/6", "--n", "3", "--format", "json")
    assert code == 0 and json.loads(out)["span_rank"] == 911
    added = []
    add = homology.ModPEchelon.add
    monkeypatch.setattr(homology.ModPEchelon, "add", lambda self, vec: added.append(1) or add(self, vec))
    monkeypatch.setattr(steinberg, "SPAN_ENTRY_CAP", 1000)
    code, out, err = run(capsys, "apartments", "--ring", "Z/6", "--n", "3")
    assert (code, out) == (3, "")
    assert err.startswith("error: enumeration of ") and "SPAN_ENTRY_CAP" in err
    assert added and len(added) % 256 == 0


def fresh_python(*args, timeout=120):
    """Run the interpreter in a new process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(titscomplex.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("n_max", ["400", "2000"])
def test_rank_refuses_long_tables_before_the_recursion(n_max):
    # the digit bound C(n+2,3) log10|R| exceeds DEFAULT_BUDGET, so the
    # recursion never starts (at n = 400 it ran over 120 s without a bound)
    proc = fresh_python("-m", "titscomplex", "rank", "--rings", "Z/4", "--n-max", n_max, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error: enumeration of digits of the rank table up to n = {n_max} needs ~")


COMMAND_ERRORS = {
    "rank": ["rank", "--n-max", "3"],
    "grass": ["grass", "--ring", "Z/4"],
    "flags": ["flags", "--ring", "Z/4", "--n", "3"],
    "complex": ["complex", "--n", "3"],
    "homology": ["homology", "--ring", "Z/4"],
    "apartments": ["apartments", "--n", "3"],
    "orbits": ["orbits"],
    "verify": ["verify", "--tier", "heavy"],  # verify has no required argument
}


@pytest.fixture
def parsers_built(monkeypatch):
    """The `command` argument of every `cli.build_parser` call."""
    calls = []
    build = cli.build_parser

    def recorded(command=None):
        calls.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    return calls


def parse_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as e:
        parse(argv)
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


def test_parser_cases_cover_every_command():
    assert list(cli.COMMANDS) == list(COMMAND_ERRORS)


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in COMMAND_ERRORS),
    *COMMAND_ERRORS.values(),
    ["orbits", "--ring", "Z/4", "stray"],
    ["homology", "--ring", "Z/4", "--n", "three"],
], ids=lambda argv: " ".join(argv))
def test_per_command_parser_prints_the_bytes_of_the_full_parser(capsys, parsers_built, argv):
    want = parse_exit(capsys, cli.build_parser().parse_args, argv)
    parsers_built.clear()
    got = parse_exit(capsys, main, argv)
    assert parsers_built == [argv[0]]
    assert got == want
    assert got[0] == (0 if "--help" in argv else 2)
    assert got[1 if "--help" in argv else 2].startswith("usage: titscomplex ")


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--help", "homology"]], ids=repr)
def test_help_and_unknown_commands_use_the_full_parser(capsys, parsers_built, argv):
    want = parse_exit(capsys, cli.build_parser().parse_args, argv)
    parsers_built.clear()
    assert parse_exit(capsys, main, argv) == want
    assert parsers_built == [None]
    assert want[0] == (0 if "--help" in argv else 2)


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, parsers_built):
    argv = ["homology", "--help"]
    want = parse_exit(capsys, cli.build_parser().parse_args, argv)
    parsers_built.clear()
    monkeypatch.setattr(sys, "argv", ["titscomplex", *argv])
    assert parse_exit(capsys, lambda _: main(), None) == want
    assert parsers_built == ["homology"]
    assert want[1].startswith("usage: titscomplex homology [-h] --ring RING --n N [--filtration FILTRATION]\n")


def test_python_m_entry_point():
    proc = fresh_python("-m", "titscomplex", "rank", "--rings", "Z/4", "--n-max", "3", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n,Z/4\n1,1\n2,5\n3,113\n"


def test_cli_import_leaves_out_verify_and_dataclasses():
    proc = fresh_python(
        "-c",
        "import sys; before = set(sys.modules); import titscomplex.cli; "
        "print(*sorted(set(sys.modules) - before))",
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert {"titscomplex.cli", "titscomplex.homology", "titscomplex.steinberg", "argparse", "json"} <= set(added)
    assert "titscomplex.verify" not in added
    assert "dataclasses" not in added


def test_run_verify_is_served_on_demand():
    proc = fresh_python(
        "-c",
        "import sys, titscomplex; loaded = 'titscomplex.verify' in sys.modules; "
        "from titscomplex import run_verify; import titscomplex.verify as v; "
        "print(loaded, run_verify is v.run_verify, titscomplex.run_verify is v.run_verify)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True True\n"
    with pytest.raises(AttributeError):
        titscomplex.no_such_name


def test_verify_runs_from_a_cold_process():
    proc = fresh_python("-m", "titscomplex", "verify", "--tier", "fast", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_orbits_command(capsys):
    """<St_2, St_2> = orbits - 1 is k over a chain ring of length k; off
    chain rings no `match` is reported."""
    for label, k in [("Z/4", 2), ("Z/8", 3), ("Z/9", 2), ("Z/27", 3), ("F5", 1), ("F2[e]^2", 2), ("F2[e]^3", 3)]:
        code, out, err = run(capsys, "orbits", "--ring", label, "--format", "json")
        assert code == 0 and err == ""
        doc = {"schema_version": 2, "ring": label, "orbits": k + 1, "st_self_intertwining": k, "match": True}
        assert json.loads(out) == doc
        code, out, _ = run(capsys, "orbits", "--ring", label)
        assert code == 0
        assert out == f"line pairs over {label}: {k + 1} orbits, <St_2, St_2> = {k}, chain length {k}, match: True\n"
    for label in ["Z/6", "Z/2xZ/3", "Z/2xZ/2"]:
        code, out, _ = run(capsys, "orbits", "--ring", label, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"schema_version": 2, "ring": label, "orbits": 4, "st_self_intertwining": 3}
        code, out, _ = run(capsys, "orbits", "--ring", label)
        assert code == 0 and out == f"line pairs over {label}: 4 orbits, <St_2, St_2> = 3\n"


def test_orbits_exit_1_on_a_wrong_count(monkeypatch, capsys):
    monkeypatch.setattr("titscomplex.cli.p1_orbit_count", lambda spec, budget: 2)
    code, out, _ = run(capsys, "orbits", "--ring", "Z/4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert (doc["st_self_intertwining"], doc["match"]) == (1, False)
    code, out, _ = run(capsys, "orbits", "--ring", "Z/4")
    assert code == 1 and out.endswith(", chain length 2, match: False\n")


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--tier", "fast", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["failed"] == 0
    assert doc["ok"] is True
    assert {c["status"] for c in doc["checks"]} == {"pass"}


def test_verify_subset_full_tier(capsys):
    code, out, _ = run(capsys, "verify", "--tier", "full", "--only", "table1,homology-n2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"]] == ["table1", "homology-n2"]


def test_verify_full_tier(capsys):
    code, out, _ = run(capsys, "verify", "--tier", "full")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "26 passed, 0 failed, 0 skipped"
    assert "PASS  apartment-span: (Z/4,2): span 5 vs b 5; (Z/6,2): span 11 vs b 11; " \
        "(F2,3): span 8 vs b 8; (Z/4,3): span 113 vs b 113" in lines


def test_verify_corrupt_hook_fails(monkeypatch, capsys):
    """Boundaries with one entry bumped fail dd = 0."""
    chain_complex = homology.chain_complex

    def corrupted(cx):
        boundaries = chain_complex(cx)
        if len(boundaries) >= 2:
            col = boundaries[1][0]
            col[next(iter(col))] += 1
        return boundaries

    monkeypatch.setattr("titscomplex.verify.chain_complex", corrupted)
    code, out, _ = run(capsys, "verify", "--only", "boundary-composition", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == 1
    assert "dd != 0" in doc["checks"][0]["detail"]


def test_nerve_check_is_independent_of_the_catalog_index(monkeypatch):
    """The complex reads containment from the catalog's vector index (one
    route, `SummandCatalog.holding`); the nerve check builds its chains by
    member sets, so one lost hit fails it."""
    holding = SummandCatalog.holding
    dropped = []

    def drop_one(self, k, codes):
        hits = holding(self, k, codes)
        if hits and not dropped:
            dropped.append(hits.pop())
        return hits

    monkeypatch.setattr(SummandCatalog, "holding", drop_one)
    report = run_verify("full", only=["structure-nerve"])
    assert dropped
    assert [c["status"] for c in report["checks"]] == ["fail"]



@pytest.mark.parametrize("error", [ValueError("no such element"), RuntimeError("eta collapsed to zero")])
def test_verify_records_a_check_that_raises_as_failed(monkeypatch, capsys, error):
    def raising(cx, m_payload):
        raise error

    monkeypatch.setattr("titscomplex.verify.eta_class", raising)
    code, out, err = run(capsys, "verify", "--only", "eta-witness,table1", "--format", "json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert (doc["passed"], doc["failed"]) == (1, 1)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failed] == ["eta-witness"]
    assert failed[0]["detail"] == f"{type(error).__name__}: {error}"

def _identity_eta(cx, m_payload):
    # nonzero and a cycle, but the chamber map of its own reverse
    # upper-triangular flag reads 1
    return steinberg.apartment_class(cx, titscomplex.Mat.identity(cx.ring, cx.n))


@pytest.mark.parametrize("target,fake,cid,detail", [
    ("eta_class", _identity_eta, "eta-witness",
     "eta over Z/4, n=2 has chamber map 1 at upper-triangular basis 0"),
    ("eta_class", lambda cx, m: steinberg.SteinbergChain(cx, {}), "eta-witness", "eta over Z/4, n=2 is zero"),
    ("p1_orbit_count", lambda spec, budget: 2, "orbit-commutant", "Z/4: 2 (expected 3)"),
], ids=["eta-identity-class", "eta-zero", "orbits-not-k+1"])
def test_verify_fails_a_wrong_witness(monkeypatch, capsys, target, fake, cid, detail):
    monkeypatch.setattr(f"titscomplex.verify.{target}", fake)
    code, out, err = run(capsys, "verify", "--only", cid, "--format", "json")
    assert code == 1 and err == ""
    [check] = json.loads(out)["checks"]
    assert (check["status"], check["detail"]) == ("fail", detail)


def test_verify_budget_skip(capsys):
    code, out, _ = run(capsys, "verify", "--only", "homology-n2", "--budget", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "skip"
    assert "budget" in doc["checks"][0]["detail"]



def test_verify_rejects_unknown_check_ids(capsys):
    for only in ("nosuch", "table1,nosuch"):
        code, out, err = run(capsys, "verify", "--only", only)
        assert code == 2 and out == ""
        assert "nosuch" in err and "table1" not in err


def test_verify_rejects_an_empty_id_list(capsys):
    for only in (",", "", ",,"):
        code, out, err = run(capsys, "verify", "--tier", "full", "--only", only)
        assert code == 2 and out == ""
        assert err == "error: no check id given\n"
    with pytest.raises(ValueError, match="no check id given"):
        run_verify("full", only=[])


def test_verify_rejects_check_ids_outside_the_tier(capsys):
    for only in ("homology-n3", "table1,homology-n3,invariants-dims"):
        code, out, err = run(capsys, "verify", "--tier", "fast", "--only", only)
        assert code == 2 and out == ""
        assert "homology-n3 (full)" in err and "table1" not in err
    assert "invariants-dims (full)" in err


def test_filtration_zero_is_rejected(capsys):
    for command in ("homology", "complex"):
        code, out, err = run(capsys, command, "--ring", "F2", "--n", "3", "--filtration", "0", "--format", "json")
        assert code == 2 and out == ""
        assert "m=0" in err


def test_rank_rejects_n_max_below_one(capsys):
    for n_max, fmt in (("0", "text"), ("0", "csv"), ("-2", "csv")):
        code, out, err = run(capsys, "rank", "--rings", "Z/4", "--n-max", n_max, "--format", fmt)
        assert code == 2 and out == ""
        assert "n_max must be >= 1" in err


def test_n_below_one_is_rejected(capsys):
    for command in ("homology", "complex"):
        for n in ("0", "-1"):
            code, out, err = run(capsys, command, "--ring", "F2", "--n", n, "--format", "json")
            assert code == 2 and out == ""
            assert "n must be >= 1" in err and "filtration" not in err
    code, out, _ = run(capsys, "homology", "--ring", "F2", "--n", "1", "--format", "json")
    assert code == 0 and json.loads(out)["homology"] == []


def test_rank_rejects_empty_ring_list(capsys):
    for rings in (",", " , "):
        code, out, err = run(capsys, "rank", "--rings", rings, "--n-max", "3")
        assert code == 2 and out == ""
        assert "no ring specs" in err


def test_rank_rejects_a_repeated_ring(capsys):
    for rings, named in (("F2,F2", "F2"), ("Z/4,F2,Z/4", "Z/4")):
        for fmt in ("text", "csv", "json"):
            code, out, err = run(capsys, "rank", "--rings", rings, "--n-max", "3", "--format", fmt)
            assert code == 2 and out == ""
            assert "repeated" in err and named in err


@pytest.mark.parametrize("argv", [
    ["complex", "--ring", "Z/100000", "--n", "2"],
    ["homology", "--ring", "Z/100000", "--n", "3"],
    ["apartments", "--ring", "Z/100000", "--n", "3"],
    ["orbits", "--ring", "Z/100000"],
    ["flags", "--ring", "Z/100000", "--n", "2", "--type", "1,1"],
    ["grass", "--ring", "Z/100000", "--n", "2", "--k", "0", "--enumerate"],
    ["complex", "--ring", "Z/100000", "--n", "1"],
])
def test_budget_is_checked_before_the_tables(forbid_tables, capsys, argv):
    forbid_tables(10**4)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: enumeration of ")


def test_flags_budget_is_the_closed_flag_count(forbid_tables, capsys):
    # 1080 * 117 * 12 = 1,516,320 complete flags of (Z/9)^4, over 10^6
    forbid_tables(0)
    code, out, err = run(capsys, "flags", "--ring", "Z/9", "--n", "4", "--type", "1,1,1,1")
    assert code == 3 and out == ""
    assert err.startswith("error: enumeration of ") and "1516320" in err


@pytest.mark.parametrize("argv", [
    ["flags", "--ring", "F2", "--n", "15000", "--type", "1,14999"],
    ["grass", "--ring", "F2", "--n", "15000", "--k", "1", "--enumerate"],
])
def test_budget_refusal_of_an_estimate_over_4300_digits(forbid_tables, capsys, argv):
    # the rank-1 member estimate has 4516 digits
    forbid_tables(0)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: enumeration of Gr_1^15000(F2) needs more than 10^4515 objects")


@pytest.mark.parametrize("argv", [
    ["homology", "--ring", "F2", "--n", "400"],
    ["homology", "--ring", "F2", "--n", "800"],
    ["homology", "--ring", "F2", "--n", "3000"],
    ["complex", "--ring", "F2", "--n", "3000"],
])
def test_large_complexes_are_refused_before_any_large_count(argv):
    # the rank-1 member check refuses these before the facet count (a
    # product of n - 1 Grassmannian sizes) is formed
    proc = fresh_python("-m", "titscomplex", *argv, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error: enumeration of Gr_1^{argv[-1]}(F2) needs ~")


@pytest.mark.parametrize("ring", ["Z/1000000000000000003", "F1000000000000000003"])
def test_trial_division_past_the_budget_is_refused(ring):
    # a prime near 10^18 would need about 10^9 trial divisions
    proc = fresh_python("-m", "titscomplex", "rank", "--rings", ring, "--n-max", "2", timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: enumeration of trial divisors needs ~1000000000 objects, budget is 1000000\n"


def test_trial_division_factors_a_prime_below_the_budget_squared(capsys):
    # 10^12 + 39 is prime; its square root is under 10^6 + 1
    code, out, err = run(capsys, "rank", "--rings", "Z/1000000000039", "--n-max", "2", "--format", "csv")
    assert (code, out, err) == (0, "n,Z/1000000000039\n1,1\n2,1000000000039\n", "")


def test_cli_prints_exact_integers_of_any_length(capsys):
    # the rank of St_170(F2), 2^(170*169/2) = 2^14365, has 4325 digits,
    # over the interpreter's default int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "rank", "--rings", "F2", "--n-max", "170", "--format", "csv")
    n, rank = out.split()[-1].split(",")
    assert (code, n, len(rank)) == (0, "170", 4325)
    # read back in two pieces, each within that limit
    assert int(rank[:-2000]) * 10**2000 + int(rank[-2000:]) == 2 ** 14365
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


def test_flags_counts_without_enumerating_unless_listed(forbid_tables, monkeypatch, capsys):
    # 91 * 12 = 1092 complete flags of (Z/6)^3; without --list the
    # closed count is printed, with no ring table and no enumeration
    def listed(args):
        code, out, _ = run(capsys, "flags", "--ring", "Z/6", "--n", "3", "--type", "1,1,1", *args)
        assert code == 0
        return out

    want = {fmt: listed(["--format", fmt]) for fmt in ("text", "csv", "json")}
    listed_doc = json.loads(listed(["--format", "json", "--list"]))
    assert listed_doc["count"] == json.loads(want["json"])["count"] == 1092
    forbid_tables(0)

    def no_enumeration(*args):
        raise AssertionError("flags enumerated without --list")

    monkeypatch.setattr("titscomplex.cli.enumerate_good_flags", no_enumeration)
    for fmt, out in want.items():
        assert listed(["--format", fmt]) == out
    code, out, _ = run(capsys, "flags", "--ring", "Z/6", "--n", "4", "--type", "1,1,1,1")
    assert code == 0 and out == "good flags of type (1, 1, 1, 1) in Z/6^4: 655200\n"


def test_formula_commands_build_no_tables(forbid_tables, capsys):
    forbid_tables(0)
    code, out, _ = run(capsys, "rank", "--rings", "Z/1000003,Z/4000", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "n,Z/1000003,Z/4000\n1,1,1\n2,1000003,7199\n"
        f"3,{1000003**3},249914560001\n"
    )
    code, out, _ = run(capsys, "grass", "--ring", "Z/100000", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "k,formula\n0,1\n1,180000\n2,1\n"


@pytest.mark.parametrize("argv,digest", [
    ("complex --ring Z/9 --n 3", "18362f204bf9a23542db2b3943373e84ad9512a1973871065b156ecec084ff82"),
    ("complex --ring F3 --n 4", "2ffe066ebb6df4f4c164318693130aa50cbe78a2424a31a2c182fc397e93e34a"),
    ("complex --ring Z/2xZ/2 --n 3", "e19e54ac5338d8891171053cef04694e04b2e1e5023c1bf0f43b35cce78d4879"),
    ("apartments --ring F7 --n 3 --seed 0", "0ab69dac7754d4ec937357a6eebcaa2c6e36747ddfaa39e30ce9b6989a501d73"),
    ("apartments --ring Z/2xZ/2 --n 3", "2b3fbbdb528ed20608373423596ba88ed7d805275f9b32d0cf53c5c4da51f77a"),
    ("flags --ring Z/4 --n 3 --type 1,1,1 --list", "58d67cde2f986956d1e3082afcd5a255490ded05f297061dfb50d682535f49b5"),
    ("flags --ring F2[e]^2 --n 3 --type 1,2 --list", "8f979e90a36be53bb468e19eff359af62462306d1d8cdcf6e9987dd7e8a137e4"),
    ("flags --ring Z/6 --n 3 --type 2,1 --list", "71a1b457850eeb420f31244adb0649367bc98415bb213afc8a1e4e68393308b6"),
    ("grass --ring Z/4 --n 3 --enumerate --list", "55f60ef813b3c0cbdc4ca85d9dde5f2f0eb32dd1701b1aee36f696432684ba63"),
    ("verify --tier fast", "415090e7830d848a809effa352c00acd147459772da61635c143280270b2b406"),
    ("verify --tier full", "5ef62f6fcc6ef9dc22f3004a96b2c95d4352945cf934b0892b2c967973798e32"),
    ("orbits --ring Z/8", "6fc0dd41f530bfde0f770aa6d6bcfc930ebeb3482ed1134f5c5521f5fedeada8"),
    ("orbits --ring Z/27", "b656e827e0117fec72c84f487ad68b3b2b9d342e12fae055f7c3ced742ad03a2"),
    ("orbits --ring Z/2xZ/3", "99e8260420709ac0e87ab9a5156e054dbf5fdb5b2d5bd708e7ba5d351f8b466c"),
])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    """Vertex order and every exported byte stay the same across changes
    to how the complexes are enumerated and the checks are computed."""
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unsaturated_apartment_span_bytes_are_pinned(capsys):
    """The budget cuts the sampled run short and the classes used are
    recounted exactly; the run is reported unsaturated with exit 1."""
    argv = "apartments --ring Z/4 --n 3 --mode sampled --seed 1 --budget 500 --format json"
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert (doc["span_rank"], doc["top_betti"], doc["apartments_used"]) == (112, 113, 500)
    assert not doc["saturated"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e23e9842b25652ef8c89478af8f6488777824f526776a057db1344fd59a16e62"
    )
