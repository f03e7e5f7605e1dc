import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

from kitespec.cli import (
    CACHE_DIR_ENV,
    EXIT_OK,
    EXIT_THEOREM_CONTRADICTED,
    EXIT_USAGE,
    main,
)
import kitespec
from kitespec import bounds, cli, das, enumeration
from kitespec.charpoly import charpoly, kite_charpoly
from kitespec.enumeration import EnumConstraints, cache_load
from kitespec.graph import decode_graph6, encode_graph6, make_kite, parse_graph_spec

from conftest import lemma41_oracle, random_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


KITE_PANEL = {
    "spec", "graph6", "n", "m", "triangles", "clique_number", "degree_sequence",
    "connected", "spectral_radius",
}


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["charpoly", "kite:3,1"], {"spec", "coefficients"}),
            (["spectrum", "complete:3"], {"spec", "eigenvalues"}),
            (["cospectral", "g6:DEo", "g6:Ds_"], {"a", "b", "cospectral"}),
            (
                ["invariants", "kite:7,2"],
                KITE_PANEL | {"radius_lower_bound", "radius_upper_bound", "clique_lower_bound"},
            ),
            (["invariants", "path:4"], KITE_PANEL),
            (["kite-census", "--max-n", "6"], {"max_n", "rows", "all_distinct"}),
            (
                ["das-verify", "--p", "3", "--q", "2"],
                {"target", "target_params", "n", "m", "t", "space_description",
                 "classes_scanned", "prefilter_survivors", "mates", "verdict", "claim"},
            ),
            (
                ["bounds", "--p", "5", "--q", "3"],
                {"p", "lower", "upper", "q", "spectral_radius", "sandwich_holds"},
            ),
            (["enumerate", "--n", "3"], {"n", "count", "graphs"}),
            (["lemma41-check", "--max-p", "9"], {"max_p", "checks", "violations"}),
        ],
        ids=["charpoly", "spectrum", "cospectral", "invariants-kite", "invariants-plain",
             "kite-census", "das-verify", "bounds", "enumerate", "lemma41-check"],
    )
    def test_exact_keys(self, capsys, argv, keys):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == EXIT_OK
        assert set(json.loads(out)) == keys


class TestGlobalFlags:
    @pytest.mark.parametrize("flag", [["--workers", "0"]], ids=" ".join)
    def test_nonpositive_is_usage_error(self, capsys, flag):
        code, out, _ = run(capsys, *flag, "spectrum", "path:3")
        assert code == EXIT_USAGE
        assert out == ""

    def test_unknown_format_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--format", "yaml", "spectrum", "path:3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "yaml" in err

    def test_convergence_error_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "QL_STEP_CAP", 0)
        code, out, err = run(capsys, "spectrum", "path:3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestCharpolyCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "charpoly", "kite:3,1")
        assert code == EXIT_OK
        assert out.strip() == "λ⁴ − 4λ² − 2λ + 1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "charpoly", "kite:3,1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "-2", "-4", "0", "1"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "charpoly", "complete:3")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["coefficient"] for r in rows] == ["-2", "-3", "0", "1"]

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "charpoly", "kite:oops")
        assert code == EXIT_USAGE
        assert "error:" in err


class TestSpectrumAndCospectral:
    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "spectrum", "complete:3")
        vals = json.loads(out)["eigenvalues"]
        assert vals == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)

    def test_zero_prints_unsigned(self, capsys, rng):
        # a zero eigenvalue comes out of the solver as +-tiny; the sign its
        # last bits happen to give it must not reach any format
        specs = ["knm:6,2", "gb:4", "g6:DEo"]
        while len(specs) < 11:
            g = random_graph(rng, rng.randint(4, 14))
            if charpoly(g)[0] == 0:
                specs.append(f"g6:{encode_graph6(g)}")
        for spec in specs:
            code, out, _ = run(capsys, "spectrum", spec)
            assert code == EXIT_OK
            assert "-0.000000" not in out.split(), spec
            _, out, _ = run(capsys, "--format", "json", "spectrum", spec)
            vals = json.loads(out)["eigenvalues"]
            _, out, _ = run(capsys, "--format", "csv", "spectrum", spec)
            vals += [float(row["eigenvalue"]) for row in csv.DictReader(io.StringIO(out))]
            assert 0.0 in vals, spec
            assert all(math.copysign(1.0, v) > 0 for v in vals if v == 0), spec

    def test_cospectral_pair(self, capsys):
        code, out, _ = run(capsys, "cospectral", "g6:DEo", "path:5")
        assert code == EXIT_OK
        assert out.strip() == "not cospectral"
        code, out, _ = run(capsys, "cospectral", "kite:3,0", "complete:3")
        assert out.strip() == "cospectral"


class TestInvariants:
    def test_kite_panel(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "invariants", "kite:7,2")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert (payload["n"], payload["m"], payload["triangles"]) == (9, 23, 35)
        assert payload["clique_number"] == 7
        assert payload["clique_lower_bound"] == 4
        assert payload["radius_lower_bound"] < payload["spectral_radius"] < payload["radius_upper_bound"]

    @pytest.mark.parametrize("spec,has_bounds", [("kite:3,0", False), ("kite:24,0", False), ("kite:3,1", True)])
    def test_radius_bounds_only_with_a_tail(self, capsys, spec, has_bounds):
        # kite:p,0 is K_p, where the sandwich (claimed for q >= 1) fails
        code, out, _ = run(capsys, "--format", "json", "invariants", spec)
        payload = json.loads(out)
        assert code == EXIT_OK
        bound_keys = {"radius_lower_bound", "radius_upper_bound", "clique_lower_bound"}
        assert bound_keys & payload.keys() == (bound_keys if has_bounds else set())
        if has_bounds:
            assert payload["radius_lower_bound"] < payload["spectral_radius"] < payload["radius_upper_bound"]

    def test_plain_graph_panel(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "invariants", "path:4")
        payload = json.loads(out)
        assert payload["connected"] is True
        assert "radius_lower_bound" not in payload


class TestCensusAndVerify:
    def test_census(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "kite-census", "--max-n", "12")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["all_distinct"] is True

    def test_das_verify_ok(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "das-verify", "--p", "4", "--q", "2")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["verdict"] == "DAS-confirmed-at-scale"
        assert payload["mates"] == []

    def test_planted_mate_exits_2(self, capsys, monkeypatch):
        # a canonical form that never repeats passes every cospectral class,
        # the kite's own included, off as a mate; the mate check, which would
        # refuse the kite itself, is switched off to reach the exit-2 path
        keys = itertools.count()
        monkeypatch.setattr(das, "canonical_form", lambda g: next(keys))
        monkeypatch.setattr(das, "_assert_mate_invariants", lambda target, mate_g6: None)
        code, out, _ = run(capsys, "--format", "json", "das-verify", "--p", "3", "--q", "2")
        payload = json.loads(out)
        assert code == EXIT_THEOREM_CONTRADICTED
        assert payload["verdict"] == das.VERDICT_MATES
        mates = payload["mates"]
        target = charpoly(make_kite(3, 2))
        assert mates and all(charpoly(decode_graph6(m)) == target for m in mates)
        code, out, _ = run(capsys, "das-verify", "--p", "3", "--q", "2")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert out.endswith(f"verdict {das.VERDICT_MATES}, mates: {', '.join(mates)}\n")

    @staticmethod
    def plant_collision(monkeypatch, kite, twin):
        """The census's packed walk gives ``kite`` the packed value of ``twin``,
        another kite of the same order, at the width the census asks for."""
        real = das._kite_packed

        def planted(p, q_max, w):
            *_, twin_value = real(*twin, w)
            for q, packed in enumerate(real(p, q_max, w)):
                yield twin_value if (p, q) == kite else packed

        monkeypatch.setattr(das, "_kite_packed", planted)

    def test_planted_collision_exits_2(self, capsys, monkeypatch):
        # Kite_{4,2} given the polynomial of Kite_{3,3}, the other kite of order 6
        self.plant_collision(monkeypatch, (4, 2), (3, 3))
        code, out, _ = run(capsys, "kite-census", "--max-n", "7")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert out.splitlines() == [
            "n=4: 1 kites, all distinct",
            "n=5: 2 kites, all distinct",
            "n=6: 3 kites, COLLISION",
            "n=7: 4 kites, all distinct",
        ]
        code, out, _ = run(capsys, "--format", "json", "kite-census", "--max-n", "7")
        payload = json.loads(out)
        assert code == EXIT_THEOREM_CONTRADICTED
        assert payload["all_distinct"] is False
        assert [row["all_distinct"] for row in payload["rows"]] == [True, True, False, True]

    def test_planted_collision_at_the_cap_exits_2(self, capsys, monkeypatch):
        # Kite_{29,1} given the polynomial of Kite_{28,2}: both of order 30
        self.plant_collision(monkeypatch, (29, 1), (28, 2))
        code, out, _ = run(capsys, "kite-census", "--max-n", "30")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert out.splitlines() == [
            f"n={n}: {n - 3} kites, {'COLLISION' if n == 30 else 'all distinct'}"
            for n in range(4, 31)
        ]

    def test_das_verify_evidence_claim(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "das-verify", "--p", "3", "--q", "3")
        payload = json.loads(out)
        assert payload["claim"] == "evidence"

    def test_das_verify_q1_rejected(self, capsys):
        code, _, err = run(capsys, "das-verify", "--p", "4", "--q", "1")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "q >= 2" in err

    def test_lemma41_check(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "lemma41-check", "--max-p", "15")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["violations"] == []


    def test_lemma41_check_csv(self, capsys):
        # one row per (p, q, r); the text is the one pinned before the rows
        # were built lazily
        code, out, _ = run(capsys, "--format", "csv", "lemma41-check", "--max-p", "9")
        assert code == EXIT_OK
        assert out == LEMMA41_CSV_P9

    def test_lemma41_violation_exits_2_with_exact_fractions(self, capsys, monkeypatch):
        # a lower bound of 13/4 at p = 5 squares to 169/16, which breaks its
        # one case, 2m(r-1)/r = 11
        real = bounds._radius_lower
        monkeypatch.setattr(bounds, "_radius_lower", lambda p: Fraction(13, 4) if p == 5 else real(p))
        violation = {
            "p": 5, "q": 1, "r": 2, "lhs_squared": "11", "rhs_squared": "169/16", "holds": False,
        }
        code, out, _ = run(capsys, "--format", "json", "lemma41-check", "--max-p", "9")
        assert code == EXIT_THEOREM_CONTRADICTED
        cases = lemma41_oracle(9)[0]
        assert json.loads(out) == {"max_p": 9, "checks": cases, "violations": [violation]}
        code, out, _ = run(capsys, "lemma41-check", "--max-p", "9")
        assert (code, out) == (EXIT_THEOREM_CONTRADICTED, f"{cases} inequality checks, 1 violations\n")
        code, out, _ = run(capsys, "--format", "csv", "lemma41-check", "--max-p", "9")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert "5,1,2,11,169/16,False" in out.splitlines()

    def test_lemma41_violations_at_one_p_exit_2(self, capsys, monkeypatch):
        # a lower bound of 15/2 at p = 9 squares to 56.25, below p = 9's three
        # largest left sides, 185/3 at (1, 6), 296/5 at (1, 5) and 57 at (2, 4)
        real = bounds._radius_lower

        def radius_lower(p):
            return Fraction(15, 2) if p == 9 else real(p)

        monkeypatch.setattr(bounds, "_radius_lower", radius_lower)
        code, out, _ = run(capsys, "--format", "json", "lemma41-check", "--max-p", "12")
        assert code == EXIT_THEOREM_CONTRADICTED
        payload = json.loads(out)
        found = {(v["p"], v["q"], v["r"]) for v in payload["violations"]}
        assert (payload["checks"], found) == lemma41_oracle(12, lambda p: radius_lower(p) ** 2)
        assert found == {(9, 1, 6), (9, 1, 5), (9, 2, 4)}

    def test_lemma41_check_over_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--format", "json", "lemma41-check", "--max-p", "101")
        assert code == EXIT_USAGE
        assert out == ""
        assert "capped" in err


LEMMA41_CSV_P9 = "\r\n".join([
    "p,q,r,lhs_squared,rhs_squared,holds",
    "5,1,2,11,256036/15625,True",
    "6,1,2,16,1181569/46656,True",
    "6,1,3,64/3,1181569/46656,True",
    "7,1,2,22,4268356/117649,True",
    "7,1,3,88/3,4268356/117649,True",
    "7,1,4,33,4268356/117649,True",
    "7,2,2,23,4268356/117649,True",
    "8,1,2,29,12909649/262144,True",
    "8,1,3,116/3,12909649/262144,True",
    "8,1,4,87/2,12909649/262144,True",
    "8,1,5,232/5,12909649/262144,True",
    "8,2,2,30,12909649/262144,True",
    "8,2,3,40,12909649/262144,True",
    "9,1,2,37,34128964/531441,True",
    "9,1,3,148/3,34128964/531441,True",
    "9,1,4,111/2,34128964/531441,True",
    "9,1,5,296/5,34128964/531441,True",
    "9,1,6,185/3,34128964/531441,True",
    "9,2,2,38,34128964/531441,True",
    "9,2,3,152/3,34128964/531441,True",
    "9,2,4,57,34128964/531441,True",
    "9,3,2,39,34128964/531441,True",
]) + "\r\n"


class TestBoundsCommand:
    def test_sandwich(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bounds", "--p", "5", "--q", "3")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["sandwich_holds"] is True
        assert payload["lower"] < payload["spectral_radius"] < payload["upper"]

    def test_p_too_small(self, capsys):
        code, _, err = run(capsys, "bounds", "--p", "2")
        assert code == EXIT_USAGE

    def test_p_beyond_float_range_is_usage_error(self, capsys):
        # 1/p**3 has no float value here
        code, out, err = run(capsys, "bounds", "--p", str(10**200))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1

    def test_collapsed_float_sandwich_is_usage_error(self, capsys):
        # from p = 2**26 + 1 the correctly rounded float lower and upper
        # bounds are equal; at 2**26 the upper one is still 1 ulp above
        code, out, _ = run(capsys, "bounds", "--p", str(2**26 + 1))
        assert code == EXIT_USAGE and out == ""
        code, out, _ = run(capsys, "bounds", "--p", str(2**26))
        assert code == EXIT_OK and out

    def test_q_below_one_is_usage_error(self, capsys):
        # the sandwich is claimed for q >= 1 only
        code, out, err = run(capsys, "bounds", "--p", "5", "--q", "0")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:")

    def test_violated_sandwich_contradicts_theorem(self, capsys, monkeypatch):
        # a wrong bound: an upper bound of 4.05 at p = 5 is above the lower
        # one, 4.048, and below rho(Kite_{5,3}) = 4.0550...
        real = bounds._radius_upper
        monkeypatch.setattr(bounds, "_radius_upper", lambda p: Fraction(81, 20) if p == 5 else real(p))
        code, out, _ = run(capsys, "bounds", "--p", "5", "--q", "3")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert "< 4.050000000" in out and "VIOLATED" in out
        code, out, _ = run(capsys, "--format", "json", "bounds", "--p", "5", "--q", "3")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert json.loads(out)["sandwich_holds"] is False

    def test_wrong_radius_contradicts_theorem(self, capsys, monkeypatch):
        # a wrong rho: Kite_{6,2}'s polynomial, radius 5.035..., stands in for
        # Kite_{5,3}'s, whose sandwich ends at 4.1166...; the plant replaces
        # the radius factor, which bounds --q reads
        monkeypatch.setattr(cli, "kite_radius_factor", lambda p, q: kite_charpoly(6, 2))
        code, out, _ = run(capsys, "bounds", "--p", "5", "--q", "3")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert "= 5.035470" in out and "VIOLATED" in out
        code, out, _ = run(capsys, "--format", "json", "bounds", "--p", "5", "--q", "3")
        assert code == EXIT_THEOREM_CONTRADICTED
        assert json.loads(out)["sandwich_holds"] is False


KITE_SHAPED = ([f"kite:{p},{n - p}" for n in range(1, 25) for p in range(1, n + 1)]
               + [f"{family}:{n}" for family in ("path", "complete") for n in range(1, 25)])


def test_kite_shaped_specs_match_the_power_sums(capsys):
    # a kite-shaped spec takes its polynomial and its radius from the kite's
    # own algebra; the built graph's power sums share no code with that walk
    for spec in KITE_SHAPED:
        g, kp = parse_graph_spec(spec)
        assert kp is not None and kp.p + kp.q == g.n, spec
        poly = charpoly(g)
        code, out, _ = run(capsys, "--format", "json", "charpoly", spec)
        assert code == EXIT_OK
        assert json.loads(out)["coefficients"] == poly.to_json(), spec
        code, out, _ = run(capsys, "--format", "json", "invariants", spec)
        assert code == EXIT_OK
        assert json.loads(out)["spectral_radius"] == round(bounds.largest_root(poly), 10), spec


@pytest.mark.parametrize("spec", ["path:0", "complete:0"])
def test_empty_kite_shaped_specs_are_no_kites(capsys, spec):
    assert parse_graph_spec(spec)[1] is None
    assert run(capsys, "charpoly", spec) == (EXIT_OK, "1\n", "")
    code, out, _ = run(capsys, "--format", "json", "invariants", spec)
    assert code == EXIT_OK and json.loads(out)["spectral_radius"] is None


def test_kite_radius_is_the_built_graphs(capsys):
    # the CLI takes a kite's radius from the pendant recurrence's radius
    # factor; it is the float that the power sums of the built kite give, bit for bit
    for n in range(1, 25):
        for p in range(1, n + 1):
            q = n - p
            rho = bounds.spectral_radius(make_kite(p, q))
            code, out, _ = run(capsys, "--format", "json", "invariants", f"kite:{p},{q}")
            assert code == EXIT_OK
            assert json.loads(out)["spectral_radius"] == round(rho, 10), (p, q)
            if p >= 3 and q >= 1:
                code, out, _ = run(capsys, "--format", "json", "bounds", "--p", str(p), "--q", str(q))
                assert code == EXIT_OK
                assert json.loads(out)["spectral_radius"] == rho, (p, q)


class TestEnumerateCommand:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "--n", "5", "--connected")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["count"] == 21

    def test_cache_flag(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "enumerate", "--n", "4"
        )
        assert code == EXIT_OK
        assert len(cache_load(tmp_path, EnumConstraints(4))) == 11

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--connected")
        assert (code, len(out.splitlines())) == (EXIT_OK, 6)
        # the cache holds the whole space; --connected filters what it prints
        assert [p.name for p in tmp_path.iterdir()] == ["n4.g6"]
        assert len(cache_load(tmp_path, EnumConstraints(4))) == 11

    @pytest.mark.parametrize("extra", [[], ["--connected"]])
    def test_second_run_reads_the_cache(self, capsys, tmp_path, extra):
        argv = ["--cache-dir", str(tmp_path), "enumerate", "--n", "6", *extra]
        first = run(capsys, *argv)
        inode = (tmp_path / "n6.g6").stat().st_ino
        assert run(capsys, *argv) == first
        assert first[0] == EXIT_OK
        assert (tmp_path / "n6.g6").stat().st_ino == inode  # read, not rewritten

    def test_empty_env_var_is_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert (code, len(out.splitlines())) == (EXIT_OK, 4)
        assert not any(tmp_path.iterdir())  # nothing written to the working directory

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv(CACHE_DIR_ENV, str(env_dir))
        run(capsys, "--cache-dir", str(flag_dir), "enumerate", "--n", "3")
        assert (flag_dir / "n3.g6").exists()
        assert not env_dir.exists()

    def test_unusable_cache_dir_is_usage_error(self, tmp_path):
        # run as the user runs it, so an uncaught OSError would show as a traceback
        regular = tmp_path / "file"
        regular.write_text("")
        src = os.path.dirname(os.path.dirname(kitespec.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for not_a_dir in (str(regular), os.devnull):
            argv = ["--cache-dir", not_a_dir, "enumerate", "--n", "3"]
            proc = subprocess.run(
                [sys.executable, "-m", "kitespec", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (EXIT_USAGE, ""), not_a_dir
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert "Not a directory" in proc.stderr and not_a_dir in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "15")
        assert code == EXIT_USAGE
        # inside the order cap, but 106321628 classes: refused before any walk
        code, out, err = run(capsys, "enumerate", "--n", "11", "--edges", "27")
        assert (code, out) == (EXIT_USAGE, "")
        assert "holds 106321628 classes, past the enumeration cap" in err

    @pytest.mark.parametrize("extra", [[], ["--edges", "4"], ["--connected"]])
    def test_lost_class_fails_polya_check(self, capsys, monkeypatch, tmp_path, extra):
        # a walk that drops its first graph is one class short of Polya's count
        real = enumeration.enumerate_graphs
        monkeypatch.setattr(enumeration, "enumerate_graphs", lambda c: islice(real(c), 1, None))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "enumerate", "--n", "5", *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "Polya's count" in err
        assert not any(tmp_path.iterdir())  # nothing was cached

    def test_reader_closing_the_pipe_early_is_no_error(self):
        # n = 8 prints about 135 KB, more than a pipe buffer holds, so the
        # write fails once the reader has gone
        src = os.path.dirname(os.path.dirname(kitespec.__file__))
        env = {k: v for k, v in os.environ.items() if k != CACHE_DIR_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kitespec", "enumerate", "--n", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err, first) == (EXIT_OK, b"", b"G?????\n")


class TestUsageContract:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_bad_format(self, capsys):
        assert main(["--format", "yaml", "charpoly", "path:3"]) == EXIT_USAGE


GOOD_SPECS = ["kite:3,1", "kite:5,3", "kite:2,2", "knm:6,2", "gb:4", "gc:4", "g6:DEo", "path:1"]
BAD_SPECS = [
    "kite:0,1", "kite:3", "kite:a,1", "kite:3,-1", "cycle:5", "nocolon", "g6:~",
    "path:25", "complete:-1", "gc:2", "knm:3,3", "kite:30,3",
]
FORMATS = ["json", "text", "csv"]
GOLDEN_ARGVS = (
    [["--format", f, cmd, spec] for cmd in ("charpoly", "spectrum", "invariants")
     for spec in GOOD_SPECS for f in FORMATS]
    + [[cmd, spec] for cmd in ("charpoly", "invariants") for spec in BAD_SPECS]
    + [["--format", f, "cospectral", a, b] for a, b in [("g6:DEo", "g6:Ds_"), ("kite:4,2", "gc:4")]
       for f in FORMATS]
    + [["--format", f, *args] for f in FORMATS for args in [
        ["kite-census", "--max-n", "8"],
        ["das-verify", "--p", "4", "--q", "2"],
        ["bounds", "--p", "5"],
        ["bounds", "--p", "5", "--q", "3"],
        ["enumerate", "--n", "4"],
        ["lemma41-check", "--max-p", "9"],
    ]]
    + [
        ["kite-census", "--max-n", "31"],
        ["--format", "json", "das-verify", "--p", "3", "--q", "3"],
        ["das-verify", "--p", "3", "--q", "1"],
        ["das-verify", "--p", "8", "--q", "2"],
        ["das-verify", "--p", "5", "--q", "5"],
        ["bounds", "--p", "2"],
        ["bounds", "--p", "5", "--q", "0"],
        ["bounds", "--p", "6", "--q", "30"],
        ["--format", "json", "bounds", "--p", str(10**100)],
        ["bounds", "--p", str(10**100)],
        ["--format", "json", "enumerate", "--n", "5", "--connected"],
        ["--format", "json", "enumerate", "--n", "5", "--edges", "4"],
        ["enumerate", "--n", "10"],
        ["enumerate", "--n", "4", "--edges", "7"],
        ["lemma41-check", "--max-p", "101"],
        ["lemma41-check", "--max-p", "2"],
        [],
        ["frobnicate"],
        ["--format", "yaml", "charpoly", "path:3"],
        # --tol is no flag: each of these is refused with exit 1
        ["--tol", "0.5", "spectrum", "kite:4,2"],
        ["--tol", "0", "spectrum", "path:3"],
        ["--tol", "1e-300", "spectrum", "complete:5"],
        ["--tol", "1e-8", "--format", "json", "spectrum", "complete:3"],
        ["--workers", "0", "das-verify", "--p", "3", "--q", "2"],
        ["--workers", "x", "das-verify", "--p", "3", "--q", "2"],
        ["spectrum"],
    ]
)
GOLDEN_SHA256 = "f309bad56c8c8ceb3fd72c3404fc7c03b1f43625ca33da203c66e29c6417c715"


def test_golden_outputs(capsys, monkeypatch):
    """Exit code and stdout of every command in every format, bad specs and
    usage errors included, pinned by one hash (stderr is left out: argparse
    wording differs between Python versions)."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    digest = hashlib.sha256()
    for argv in GOLDEN_ARGVS:
        code, out, _ = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
    assert len(GOLDEN_ARGVS) > 100
    assert digest.hexdigest() == GOLDEN_SHA256
