"""CLI surface: output formats, reference-row reproduction, exit codes,
cache wiring, and determinism of repeated invocations."""

import json
import re
import tracemalloc
from pathlib import Path

import pytest

from primpairs.cli import main

DATA = Path(__file__).parent.parent / "src" / "primpairs" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- factor -----------------------------------------------------------------

def test_factor_known_values(capsys):
    code, out, _ = run(capsys, "factor", "34359738367")
    assert code == 0 and out == "31 71 127 122921\n"
    code, out, _ = run(capsys, "factor", "2186")
    assert code == 0 and out == "2 1093\n"


def test_factor_one_is_empty(capsys):
    code, out, _ = run(capsys, "factor", "1")
    assert code == 0 and out == "\n"


def test_factor_repeats_multiplicity(capsys):
    code, out, _ = run(capsys, "factor", "360")
    assert out == "2 2 2 3 3 5\n"


def test_factor_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "factor", "360")
    assert json.loads(out) == {"n": 360, "factors": [[2, 3], [3, 2], [5, 1]]}


# -- check ------------------------------------------------------------------

def test_check_fail_and_pass(capsys):
    code, out, _ = run(capsys, "check", "32", "7", "2")
    assert code == 0 and out.startswith("FAIL ")
    code, out, _ = run(capsys, "check", "101", "9", "2")
    assert out.startswith("PASS ")


def test_check_equality_flag(capsys):
    code, out, _ = run(capsys, "check", "4", "16", "2")
    assert out.startswith("FAIL equality ")
    code, out, _ = run(capsys, "--format", "json", "check", "4", "16", "2")
    blob = json.loads(out)
    assert blob["equality"] is True and blob["pass"] is False
    assert blob["margin"] == "0"


# -- sieve ------------------------------------------------------------------

def test_sieve_reference_row(capsys):
    code, out, _ = run(capsys, "sieve", "32", "7", "2")
    assert out == "32,1,4,0.8915505547,9.8514897025\n"


def test_sieve_none_for_retained_exception(capsys):
    code, out, _ = run(capsys, "sieve", "2", "7", "2")
    assert code == 0 and out == "none\n"
    code, out, _ = run(capsys, "--format", "json", "sieve", "2", "7", "2")
    assert json.loads(out)["certificate"] is None


def test_sieve_json_has_exact_fractions(capsys):
    code, out, _ = run(capsys, "--format", "json", "sieve", "64", "7", "2")
    blob = json.loads(out)
    assert blob["l"] == 3 and blob["s"] == 5 and blob["passes"] is True
    assert blob["delta"] == "45078040551/69810262081"


# -- appendix2 / table1 -----------------------------------------------------

def test_appendix2_single_row(capsys):
    code, out, err = run(capsys, "appendix2", "22")
    assert code == 0
    assert out == "22,1,2,1,4,0.2209766437,33.6775559615\n"
    assert err == ""


def test_appendix2_warns_only_on_misprint(capsys):
    # the 8-decimal Delta rows (q=4096, q=3499) are within one printed unit;
    # only the misprinted q=71 Delta lies farther off than that
    code, out, err = run(capsys, "appendix2", "7")
    assert code == 0 and len(out.strip().split("\n")) == 185
    assert err == ("warning: m=7 q=71 l=2: Delta 24.4344152200 "
                   "vs listed 24.4344152110\n")


def test_appendix2_refuses_an_empty_range(capsys):
    # lo > hi selects no m: refused, not an empty success
    code, out, err = run(capsys, "appendix2", "9-7")
    assert (code, out, err) == (3, "", "invalid input: m range 9-7 is empty\n")


def test_appendix2_range(capsys):
    code, out, _ = run(capsys, "appendix2", "28-36")
    lines = out.strip().split("\n")
    assert len(lines) == 3  # one table each for m = 28, 30, 36
    assert [ln.split(",")[0] for ln in lines] == ["28", "30", "36"]


def test_table1_matches_reference_file(capsys):
    code, out, _ = run(capsys, "table1", "2")
    ref = (DATA / "window_rows.csv").read_text().strip().split("\n")[1:]
    assert out.strip().split("\n") == ref


# -- verify / crosscheck ----------------------------------------------------

def test_verify_emits_verdict_with_manifest(capsys):
    code, out, _ = run(capsys, "verify", "32", "7", "2")
    blob = json.loads(out)
    assert blob["verdict"]["status"] == "certified_sieve"
    assert blob["verdict"]["certificate"]["l"] == 1
    assert blob["manifest"]["seed"] == 0
    assert blob["manifest"]["sample"] == 1000


def test_verify_seed_after_subcommand(capsys):
    # --seed is read after the subcommand only; help names its one value
    code, out, _ = run(capsys, "verify", "3", "7", "2",
                       "--sample", "30", "--seed", "1")
    blob = json.loads(out)
    assert blob["verdict"]["status"] == "verified_sampled"
    assert blob["verdict"]["seed"] == 1
    assert blob["manifest"]["seed"] == 1
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "verify", "3", "7", "2", "--sample", "30"])
    assert exc.value.code == 3
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--seed SEED" in capsys.readouterr().out


def test_verify_deterministic(capsys):
    a = run(capsys, "verify", "3", "7", "2", "--sample", "25", "--seed", "7")
    b = run(capsys, "verify", "3", "7", "2", "--sample", "25", "--seed", "7")
    assert a == b


def test_verify_prints_the_witness_as_json_ints(capsys):
    code, out, _ = run(capsys, "verify", "2", "6", "2")
    assert code == 0
    assert '"f": {"den": [1], "num": [1, 3, 1]}' in out
    witness = json.loads(out)["verdict"]["witness"]
    assert witness == {"f": {"num": [1, 3, 1], "den": [1]}, "a": 0, "b": 0,
                       "split": [2, 0]}


def test_verify_beyond_dlog_table_limit_is_undecided(capsys):
    code, out, err = run(capsys, "verify", "64", "4", "2",
                         "--budget-enum", "33554432")
    assert code == 0 and err == ""
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "undecided"
    assert "dlog table limit" in verdict["coverage"]


def test_verify_between_the_two_field_limits_is_undecided(capsys):
    # 8^7 = 2^21 is inside the dlog table limit (2^22) but past the
    # default --budget-enum (2^20)
    code, out, err = run(capsys, "verify", "8", "7", "2")
    assert (code, err) == (0, "")
    assert out == (
        '{"manifest": {"enum_budget": 1048576, "factor_budget": 50000000, '
        '"sample": 1000, "seed": 0}, "verdict": {"coverage": "field size '
        '8^7 beyond alpha budget 1048576", "m": 7, "n": 2, "q": 8, '
        '"status": "undecided"}}\n')


def test_crosscheck_beyond_dlog_table_limit_is_budget_exit(capsys):
    # F_{2^23} is past the dlog table limit; its context refuses to build
    code, out, err = run(capsys, "crosscheck", "2", "1", "23", "1")
    assert code == 2 and out == ""
    assert "budget exceeded" in err and "Traceback" not in err


def test_crosscheck_huge_exponent_refused_before_evaluation(capsys):
    # 3^(10^7) is never built: the exponent alone is past the limit
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "crosscheck", "3", "1", "10000000", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "budget exceeded" in err
    assert peak < 1 << 20


def test_crosscheck_budget_refuses_before_character_tables(capsys):
    # F_{64^2}: q^2 * N = 2^24 entries of the psi-hat matrix, past the
    # default 2^20 budget; refused before any of them is allocated
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "crosscheck", "2", "6", "2", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: q^2 * N = 16777216 character-sum "
                   "entries exceed alpha budget 1048576\n")
    assert peak < 16 << 20


@pytest.mark.parametrize("argv", [("2", "11", "2", "1"),
                                  ("2", "1", "22", "1")])
def test_crosscheck_budget_refuses_before_building_the_field(capsys, argv):
    # F_{2^22} is inside the dlog table limit, but q^2 * N is past the
    # default budget: refused from p, k, m, with no 2^22-element context
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "crosscheck", *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "budget exceeded: q^2 * N =" in err
    assert peak < 16 << 20


def test_crosscheck_reads_budget_enum(capsys):
    # F_16 over F_2 needs q^2 * N = 64 entries: refused under a budget of
    # 50, and unchanged under the default
    code, out, err = run(capsys, "crosscheck", "2", "1", "4", "5",
                         "--budget-enum", "50")
    assert (code, out) == (2, "")
    assert "q^2 * N = 64" in err and "budget 50" in err
    code, out, err = run(capsys, "crosscheck", "2", "1", "4", "5")
    blob = json.loads(out)
    assert code == 0 and err == ""
    assert blob.pop("max_deviation") < 1e-12
    assert blob == {"ctx": "F_2^4/F_2", "mismatches": [], "ok": True,
                    "seed": 0, "trials": 5,
                    "manifest": {"enum_budget": 1048576,
                                 "factor_budget": 50000000, "seed": 0}}


def test_crosscheck_takes_no_factor_budget(capsys):
    # its field has at most 2^22 elements, whose group order trial
    # division splits without reading a budget
    with pytest.raises(SystemExit) as exc:
        main(["crosscheck", "2", "1", "4", "5", "--budget-factor", "1"])
    assert exc.value.code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("0", "1", "-1", "3"),
    ("0", "-1", "1", "3"),
    ("2", "-1", "-23", "3"),
])
def test_crosscheck_refuses_nonpositive_k_and_m(capsys, argv):
    # the sign check comes before the size check, so neither 0 ** -1 nor
    # the size of 2^23 is ever reached
    code, out, err = run(capsys, "crosscheck", *argv)
    assert (code, out) == (3, "")
    assert err == "invalid input: k and m must be positive\n"


@pytest.mark.parametrize("argv", [
    ("verify", "2", "8", "2", "--sample", "0"),
    ("crosscheck", "3", "1", "2", "0"),
    ("crosscheck", "3", "1", "2", "-4"),
    ("verify", "2", "3", "1", "--sample", "0"),
])
def test_empty_evidence_is_invalid(capsys, argv):
    # zero samples or zero trials check nothing, so they cannot verify;
    # the sample count is refused even where no sampling would happen
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "invalid input" in err


@pytest.mark.parametrize("argv", [
    ("verify", "6", "3", "2"),
    ("verify", "12", "2", "2"),
    ("check", "6", "7", "2"),
    ("sieve", "6", "7", "2"),
])
def test_q_not_a_prime_power_is_invalid(capsys, argv):
    # there is no field F_q unless q is a prime power
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"invalid input: q = {argv[1]} is not a prime power\n"


def test_table1_refuses_n_below_one(capsys):
    code, out, err = run(capsys, "table1", "0")
    assert (code, out, err) == (3, "", "invalid input: n must be positive\n")


@pytest.mark.parametrize("command", ["check", "sieve", "verify"])
@pytest.mark.parametrize("m", ["0", "-3"])
def test_m_below_one_is_invalid(capsys, command, m):
    # q^m - 1 has no cyclotomic parts to factor (m = 0 once ended in an
    # AssertionError, m = -3 in an isqrt message)
    code, out, err = run(capsys, command, "2", m, "2")
    assert (code, out, err) == (3, "", "invalid input: m must be positive\n")


@pytest.mark.parametrize("q", ["2", "7"])
def test_sieve_refuses_m_below_five_before_factoring(capsys, monkeypatch, q):
    # the sieve inequality needs m >= 5; q^4 - 1 is never factored for it
    from primpairs import bounds

    def unexpected(*args, **kwargs):
        raise AssertionError("factor_qm_minus_1 called")

    monkeypatch.setattr(bounds, "factor_qm_minus_1", unexpected)
    code, out, err = run(capsys, "sieve", q, "4", "2")
    assert (code, out, err) == (
        3, "", "invalid input: sieve condition needs m >= 5\n")


@pytest.mark.parametrize("argv", [("2", "8", "-2"), ("3", "7", "0")])
def test_sieve_refuses_n_below_one(capsys, argv):
    # (n + 2) Delta W^2 is 0 at n = -2: no certificate may pass on it
    code, out, err = run(capsys, "sieve", *argv)
    assert (code, out, err) == (
        3, "", "invalid input: q >= 2, n >= 1, W >= 1 required\n")


def test_crosscheck_ok(capsys):
    code, out, _ = run(capsys, "crosscheck", "3", "1", "2", "12", "--seed", "4")
    blob = json.loads(out)
    assert code == 0 and blob["ok"] is True
    assert blob["trials"] == 12 and blob["seed"] == 4
    assert blob["max_deviation"] < 0.5


# -- plumbing ---------------------------------------------------------------

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "--out", str(target), "table1", "2")
    assert code == 0 and out == ""
    assert target.read_text().count("\n") == 7


def test_cache_file_roundtrip(tmp_path, capsys):
    cache = tmp_path / "factors.json"
    code, _, _ = run(capsys, "--cache", str(cache), "factor", "34359738367")
    assert code == 0 and cache.exists()
    stored = json.loads(cache.read_text())
    assert stored["34359738367"] == [[31, 1], [71, 1], [127, 1], [122921, 1]]
    # second run hits the cache
    code, out, _ = run(capsys, "--cache", str(cache), "factor", "34359738367")
    assert out == "31 71 127 122921\n"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env_cache.json"
    monkeypatch.setenv("PRIMPAIRS_CACHE", str(cache))
    run(capsys, "factor", "2186")
    assert json.loads(cache.read_text())["2186"] == [[2, 1], [1093, 1]]


def test_factor_ignores_poisoned_cache_entry(capsys, tmp_path):
    cache = tmp_path / "factors.json"
    cache.write_text(json.dumps({"91": [[91, 1]]}))
    code, out, _ = run(capsys, "--cache", str(cache), "factor", "91")
    assert code == 0 and out == "7 13\n"
    assert json.loads(cache.read_text())["91"] == [[7, 1], [13, 1]]


def test_factor_treats_a_deeply_nested_cache_file_as_unreadable(capsys,
                                                               tmp_path):
    # json.load gives up on it with a RecursionError: every entry a miss
    cache = tmp_path / "factors.json"
    cache.write_text("[" * 200_000)
    code, out, _ = run(capsys, "--cache", str(cache), "factor", "12")
    assert (code, out) == (0, "2 2 3\n")


def test_unwritable_cache_keeps_output(tmp_path, capsys):
    # the result is written first; the failed save is one clean line
    code, out, err = run(capsys, "--cache", str(tmp_path), "factor", "6")
    assert code == 3 and out == "2 3\n"
    assert err == (f"invalid input: cannot save factor cache {tmp_path}: "
                   "Is a directory\n")


def test_unwritable_out_is_one_line_and_cache_is_saved(tmp_path, capsys):
    cache = tmp_path / "factors.json"
    code, out, err = run(capsys, "--cache", str(cache), "--out",
                         str(tmp_path), "factor", "6")
    assert code == 3 and out == ""
    assert err == (f"invalid input: cannot write output {tmp_path}: "
                   "Is a directory\n")
    assert json.loads(cache.read_text()) == {"6": [[2, 1], [3, 1]]}


@pytest.mark.parametrize("argv, env", [
    (("--cache", "", "factor", "6"), None),
    (("factor", "6"), ""),
])
def test_empty_cache_path_means_no_cache(tmp_path, capsys, monkeypatch,
                                         argv, env):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("PRIMPAIRS_CACHE", raising=False)
    else:
        monkeypatch.setenv("PRIMPAIRS_CACHE", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "2 3\n", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("table1", "2"),
                                  ("crosscheck", "2", "1", "4", "5")])
def test_commands_that_factor_nothing_open_no_cache(tmp_path, capsys,
                                                    monkeypatch, argv):
    # an explicit --cache is a usage error before any work; the
    # environment's cache is left unopened
    cache = tmp_path / "factors.json"
    with pytest.raises(SystemExit) as exc:
        main(["--cache", str(cache), *argv])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(
        f"error: --cache: {argv[0]} reads no factor cache\n")
    monkeypatch.setenv("PRIMPAIRS_CACHE", str(cache))
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    assert list(tmp_path.iterdir()) == []


def test_exit_code_invalid_input(capsys):
    code, _, err = run(capsys, "check", "9", "4", "2")  # m < 5
    assert code == 3 and "invalid input" in err
    for argv in (["verify", "2", "6", "2", "--budget-enum", "0"],
                 ["--budget-enum", "0", "factor", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
    assert "--budget-enum: 0 is not positive" in capsys.readouterr().err


def test_exit_code_budget_exceeded(capsys):
    code, _, err = run(capsys, "factor", "1000000016000000063",
                       "--budget-factor", "100")
    assert code == 2 and "budget exceeded" in err


def test_exit_code_budget_exceeded_on_a_cyclotomic_cofactor(capsys):
    # 2**256 - 1 reaches rho on Phi_256(2) = 2**128 + 1, whose primes
    # are both 1 (mod 256)
    code, out, err = run(capsys, "check", "2", "256", "2",
                         "--budget-factor", "100000")
    assert code == 2 and out == ""
    assert "budget exceeded" in err and "Traceback" not in err


def test_scan_out_of_memory_is_budget_exit(capsys, monkeypatch):
    # a huge n asks numpy for more memory than there is; never allocated here
    from primpairs import verify

    def unaffordable(qmax):
        raise MemoryError("Unable to allocate 725. GiB")

    monkeypatch.setattr(verify, "prime_powers_upto", unaffordable)
    code, out, err = run(capsys, "scan", "1000000000000")
    assert (code, out, err) == (
        2, "", "budget exceeded: Unable to allocate 725. GiB\n")


FACTORING = {"--budget-factor"}
COUNTING = {"--seed", "--budget-enum"}


@pytest.mark.parametrize("command, options", [
    ("factor", FACTORING), ("check", FACTORING), ("sieve", FACTORING),
    ("appendix2", FACTORING), ("scan", FACTORING), ("table1", set()),
    ("verify", FACTORING | COUNTING | {"--sample"}),
    ("crosscheck", COUNTING),
])
def test_each_command_accepts_only_the_options_it_reads(capsys, command,
                                                        options):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)) == (
        options | {"-h", "--help"})


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor"])  # missing N
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
