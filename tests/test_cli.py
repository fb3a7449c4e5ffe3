"""CLI behavior: golden outputs, determinism, cache transparency, exit codes."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charvar.invariants as invariants
from charvar import cli
from charvar.errors import ContextError, NotPolynomial
from charvar.invariants import (
    SUITES,
    clear_memo,
    compute_invariant,
    document_bytes,
    polynomial_document,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "cache"))
    return tmp_path / "cache"


def _document_bytes(kind, n, g):
    return document_bytes(polynomial_document(compute_invariant(kind, n, g)))


def _edited(document, edit):
    doc = json.loads(document)
    edit(doc)
    return document_bytes(doc)


def _constant_to_7(doc):
    assert doc["terms"][0] == {"e": [0], "c": "1"}
    doc["terms"][0]["c"] = "7"


def _fail_duality(doc):
    doc["meta"]["checks"]["duality"].update(passed=False, witness="edited")


def _dim_plus_1(doc):
    doc["meta"]["dim2N"] += 1


def _first_term(edit):
    def apply(doc):
        assert doc["terms"][0] == {"e": [0, 0], "c": "1"}
        edit(doc["terms"][0])

    return apply


def _dim_float(doc):
    doc["meta"]["dim2N"] = float(doc["meta"]["dim2N"])


def _swap_first_terms(doc):
    doc["terms"][0], doc["terms"][1] = doc["terms"][1], doc["terms"][0]


def _e_before_c(document):
    first = '{"c":"1","e":[0,0]}'
    assert first in document
    return document.replace(first, '{"e":[0,0],"c":"1"}', 1).encode()


def _pretty(document):
    return json.dumps(json.loads(document), indent=1, sort_keys=True).encode()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_e_2_3_text_golden(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "3")
        assert code == 0
        assert out == "1 - 4*q^2 + 6*q^4 - 14*q^6 + 6*q^8 - 4*q^10 + q^12\n"

    def test_hqt_1_5_is_one(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "hqt", "--n", "1", "--g", "5")
        assert code == 0 and out == "1\n"

    def test_pp_2_3_text(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--kind", "pp", "--n", "2", "--g", "3", "--format", "text"
        )
        assert code == 0 and out == "1 + t^4 + t^8\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--kind", "E", "--n", "2", "--g", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "E" and doc["n"] == 2 and doc["g"] == 3
        assert doc["vars"] == ["q"] and doc["version"] == 1
        assert doc["terms"][0] == {"e": [0], "c": "1"}
        assert doc["terms"][-1] == {"e": [12], "c": "1"}
        assert doc["meta"]["dim2N"] == 12
        assert set(doc["meta"]["checks"]) == {"degrees", "duality", "euler"}

    def test_byte_determinism_and_cache_transparency(self, capsys):
        args = ("compute", "--kind", "hqt", "--n", "2", "--g", "2", "--format", "json")
        code1, cold, _ = run(capsys, *args)
        code2, warm, _ = run(capsys, *args)  # second run served from disk cache
        assert code1 == code2 == 0
        assert cold == warm

    def test_bad_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--kind", "zz", "--n", "2", "--g", "3")
        assert code == 2 and "kind" in err

    def test_bad_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "compute", "--kind", "E", "--n", "0", "--g", "3")
        assert code == 2

    def test_missing_flags_exit_2(self, capsys):
        assert run(capsys, "compute", "--kind", "E")[0] == 2

    def test_unusable_cache_directory_exits_2(self, capsys, monkeypatch):
        from charvar.invariants import InvariantCache

        def refuse(self, result):
            raise OSError("read-only file system")

        monkeypatch.setattr(InvariantCache, "store", refuse)
        code, _, err = run(capsys, "compute", "--kind", "E", "--n", "1", "--g", "2")
        assert code == 2 and "cache directory unusable" in err

    def test_assertion_failure_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NotPolynomial("falsified", factor=None)

        monkeypatch.setattr(cli, "compute_invariant", boom)
        code, out, _ = run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "2")
        assert code == 3 and "NotPolynomial" in out
        code, out, _ = run(
            capsys, "compute", "--kind", "E", "--n", "2", "--g", "2", "--format", "json"
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NotPolynomial"

    def test_an_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ContextError("operands in different contexts")

        monkeypatch.setattr(cli, "compute_invariant", boom)
        code, out, err = run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "2")
        assert (code, out) == (3, "")
        assert err == "error[ContextError]: operands in different contexts\n"

    def test_a_closed_form_over_a_wrong_denominator_exits_3_with_one_line(
        self, capsys, monkeypatch
    ):
        variables, denominator, rows = invariants._FORM_ROWS["E2"]
        monkeypatch.setitem(invariants._FORM_ROWS, "E2", (variables, denominator + 1, rows))
        code, out, err = run(capsys, "check", "--suite", "closedform", "--n", "2", "--g", "2")
        assert (code, out) == (3, "")
        assert err == "error[NonIntegerCoefficient]: scaling by 1/3 gives the coefficient 2/3\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_a_closed_stdout_ends_the_process_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            child = subprocess.Popen(
                [sys.executable, "-m", "charvar", "compute", "--kind", "E", "--n", "2",
                 "--g", "2"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (-signal.SIGPIPE, b"")


class TestCheck:
    def test_euler_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "euler", "--n", "2", "--g", "3")
        assert code == 0 and "PASS euler" in out and "-8" in out

    def test_closedform_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "closedform", "--n", "3", "--g", "2")
        assert code == 0
        assert "PASS closed_form_H3" in out and "PASS closed_form_PP3" in out

    def test_duality_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "duality", "--n", "2", "--g", "3")
        assert code == 0
        assert "PASS duality" in out and "PASS degrees" in out and "PASS positivity" in out

    def test_duality_full_scan_rank_four(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "duality", "--n", "4", "--g", "2")
        assert code == 0 and "PASS duality" in out

    def test_all_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "all", "--n", "2", "--g", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert "to_E_match" in doc["checks"] and "closed_form_E2" in doc["checks"]

    def test_euler_low_genus_usage_error(self, capsys):
        assert run(capsys, "check", "--suite", "euler", "--n", "2", "--g", "1")[0] == 2

    def test_all_suite_skips_inapplicable_checks_at_degenerate_genus(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "all", "--n", "2", "--g", "0")
        assert code == 0
        assert "euler" not in out and "closed_form" not in out

    def test_closedform_unknown_n_usage_error(self, capsys):
        assert run(capsys, "check", "--suite", "closedform", "--n", "4", "--g", "2")[0] == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from charvar.invariants import CheckEntry, CheckReport

        report = CheckReport()
        report.add("duality", CheckEntry(False, witness="made-up witness"))
        monkeypatch.setattr(cli, "run_check", lambda *a, **k: report)
        code, out, _ = run(capsys, "check", "--suite", "duality", "--n", "2", "--g", "2")
        assert code == 1 and "FAIL duality: made-up witness" in out

    def test_a_falsified_closed_form_names_its_difference(self, capsys, monkeypatch):
        """With the printed E2 off by 1, the closedform suite fails
        closed_form_E2 with the lowest differing term, and the CLI exits 1."""
        from charvar import invariants
        from charvar.polynomials import FactoredFraction, SparsePoly

        real = invariants.closed_form

        def off_by_one(which, g, n=None):
            form = real(which, g, n)
            if which == "E2":
                form = FactoredFraction.from_poly(form.as_polynomial() + SparsePoly.one(("q",)))
            return form

        monkeypatch.setattr(invariants, "closed_form", off_by_one)
        entry = invariants.run_check("closedform", 2, 2).entries["closed_form_E2"]
        assert not entry.passed
        assert entry.witness == "difference has coefficient -1 at 1"
        code, out, _ = run(capsys, "check", "--suite", "closedform", "--n", "2", "--g", "2")
        assert code == 1
        assert "FAIL closed_form_E2: difference has coefficient -1 at 1" in out
        assert "PASS closed_form_H2" in out


class TestCount:
    def test_both_oracles_agree(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "sl", "--q", "3", "--g", "1",
            "--zeta-order", "2", "--oracle", "both",
        )
        assert code == 0
        assert "brute_tuples: 24" in out and "character_tuples: 24" in out
        assert "agreement: True" in out

    def test_character_oracle_bridge_value(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "gl", "--q", "3", "--g", "2",
            "--zeta-order", "2", "--oracle", "character",
        )
        assert code == 0
        # |PGL(2,3)| * (q-1)^4 * E_2(3) = 24 * 16 * 550
        assert "character_tuples: 211200" in out

    @pytest.mark.parametrize("order", [3, 0])
    def test_unavailable_central_order_exits_2(self, capsys, order):
        code, _, err = run(
            capsys, "count", "--family", "gl", "--q", "3", "--g", "1",
            "--zeta-order", str(order),
        )
        assert code == 2 and f"central element of order {order} unavailable" in err

    def test_sl_center_misses_order_allowed_by_q(self, capsys):
        # 4 divides q-1 = 4, but the SL(2,5) center is only {±Id}
        code, _, err = run(
            capsys, "count", "--family", "sl", "--q", "5", "--g", "1", "--zeta-order", "4"
        )
        assert code == 2 and "central element of order 4 unavailable" in err

    def test_sl_hint_makes_no_claim_about_q(self, capsys):
        # 3 divides q-1 = 6, but the SL(2,7) center is only {±Id}
        code, _, err = run(
            capsys, "count", "--family", "sl", "--q", "7", "--g", "1", "--zeta-order", "3"
        )
        assert code == 2 and "central element of order 3 unavailable" in err
        assert "(central elements have orders 1, 2)" in err and "q-1" not in err

    def test_group_too_large_exits_2(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "gl", "--q", "7", "--g", "1", "--zeta-order", "2"
        )
        assert code == 2

    def test_huge_q_meets_the_order_bound_before_the_primality_test(self, capsys):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "count", "--family", "gl", "--q", "1000000000000000003", "--g", "1",
            "--zeta-order", "2",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "exceeds the bound 500" in err

    def test_character_assertion_failure_exits_3(self, capsys, monkeypatch):
        from charvar.errors import LiftFailure

        def boom(group):
            raise LiftFailure("no consistent cyclotomic lift")

        monkeypatch.setattr(cli, "character_table", boom)
        code, _, err = run(
            capsys, "count", "--family", "sl", "--q", "3", "--g", "1",
            "--zeta-order", "2", "--oracle", "character",
        )
        assert code == 3 and "LiftFailure" in err

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "tuple_count", lambda *a, **k: 999)
        code, out, _ = run(
            capsys, "count", "--family", "sl", "--q", "3", "--g", "1",
            "--zeta-order", "2", "--oracle", "both",
        )
        assert code == 1 and "agreement: False" in out

    def test_an_internal_assert_exits_3_with_one_line(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("classes are not class-constant")

        monkeypatch.setattr(cli, "tuple_count", boom)
        code, out, err = run(
            capsys, "count", "--family", "sl", "--q", "3", "--g", "1", "--zeta-order", "2"
        )
        assert (code, out) == (3, "")
        assert err == "error[AssertionError]: classes are not class-constant\n"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "sl", "--q", "3", "--g", "2",
            "--zeta-order", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert doc["brute_tuples"] == doc["character_tuples"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_large_genus_prints_every_digit(self, capsys, fmt):
        """The counts at g = 1300 run past Python's default 4,300-digit limit."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            code, out, _ = run(
                capsys, "count", "--family", "gl", "--q", "3", "--g", "1300",
                "--zeta-order", "2", "--format", fmt,
            )
            assert code == 0
            if fmt == "json":
                doc = json.loads(out)
                assert doc["agreement"] is True and len(str(doc["brute_tuples"])) > 4300
            else:
                assert "agreement: True" in out
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestCache:
    def test_list_empty(self, capsys):
        code, out, _ = run(capsys, "cache", "--list")
        assert code == 0 and out == ""

    def test_compute_then_list_then_clear(self, capsys):
        run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "3")
        code, out, _ = run(capsys, "cache", "--list")
        assert code == 0 and out == "E/2/3\n"
        assert run(capsys, "cache", "--clear")[0] == 0
        code, out, _ = run(capsys, "cache", "--list")
        assert code == 0 and out == ""

    def test_clear_deletes_only_cached_documents(self, capsys, isolated_cache):
        run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "2")
        foreign = {"notes.json": b"{}", "E_n02_g2.json": b"{}"}
        for name, content in foreign.items():
            (isolated_cache / name).write_bytes(content)
        assert run(capsys, "cache", "--clear")[0] == 0
        assert sorted(p.name for p in isolated_cache.iterdir()) == sorted(foreign)

    def test_a_directory_named_like_a_document_is_no_entry(self, capsys, isolated_cache):
        run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "3")
        (isolated_cache / "E_n2_g2.json").mkdir()
        assert run(capsys, "cache", "--list") == (0, "E/2/3\n", "")
        assert run(capsys, "cache", "--clear") == (0, "", "")
        assert [p.name for p in isolated_cache.iterdir()] == ["E_n2_g2.json"]
        assert (isolated_cache / "E_n2_g2.json").is_dir()
        code, out, err = run(capsys, "compute", "--kind", "E", "--n", "2", "--g", "2")
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_clear_of_a_missing_directory_creates_nothing(self, capsys, tmp_path):
        missing = tmp_path / "a" / "b"
        assert run(capsys, "cache", "--clear", "--cache-dir", str(missing)) == (0, "", "")
        assert list(tmp_path.iterdir()) == []

    def test_clear_of_a_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_bytes(b"kept")
        code, out, err = run(capsys, "cache", "--clear", "--cache-dir", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert path.read_bytes() == b"kept"

    def test_list_of_a_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_bytes(b"kept")
        code, out, err = run(capsys, "cache", "--list", "--cache-dir", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert path.read_bytes() == b"kept"

    def test_list_of_a_missing_directory_is_empty(self, capsys, tmp_path):
        missing = tmp_path / "a" / "b"
        assert run(capsys, "cache", "--list", "--cache-dir", str(missing)) == (0, "", "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, kind, file_name, content",
        [
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: b"{not json"),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: b"\xff\xfe\x80 not utf-8"),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: b"[]"),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: b'{"version": 1}'),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _document_bytes("hqt", 2, 3)),
            ("list", "hqt", "E_n2_g1_old.json", lambda cold: b"{}"),
            ("compute", "E", "E_n2_g2.json", lambda cold: _edited(cold, _constant_to_7)),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(cold, _fail_duality)),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(cold, _dim_plus_1)),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(cold, _dim_float)),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, _first_term(lambda t: t.update(e=[0.0, 0])))),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, _first_term(lambda t: t.update(e=[0, False])))),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, _first_term(lambda t: t.update(c=1)))),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, lambda doc: doc.update(extra=None))),
            ("compute", "hqt", "Hqt_n2_g2.json", _pretty),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(cold, _swap_first_terms)),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, _first_term(lambda t: t.update(c="01")))),
            ("compute", "hqt", "Hqt_n2_g2.json",
             lambda cold: _edited(cold, _first_term(lambda t: t.update(c="+1")))),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(
                cold, lambda doc: doc["terms"].insert(1, {"e": [1, 0], "c": "0"}))),
            ("compute", "hqt", "Hqt_n2_g2.json", lambda cold: _edited(
                cold, lambda doc: doc["terms"].insert(1, doc["terms"][0]))),
            ("compute", "hqt", "Hqt_n2_g2.json", _e_before_c),
        ],
        ids=["invalid-json", "not-utf-8", "json-list", "missing-keys", "wrong-key",
             "stray-name", "constant-edited", "check-flipped", "dim-off-by-one",
             "dim2N-float", "exponent-float", "exponent-bool", "coefficient-unquoted",
             "extra-key", "pretty-printed", "terms-swapped", "coefficient-leading-zero",
             "coefficient-plus-sign", "zero-term-added", "exponent-duplicated",
             "e-before-c"],
    )
    def test_bad_cache_file_is_skipped(
        self, capsys, isolated_cache, command, kind, file_name, content
    ):
        args = ("compute", "--kind", kind, "--n", "2", "--g", "2", "--format", "json")
        clear_memo()
        code, cold, _ = run(capsys, *args)
        assert code == 0
        (isolated_cache / file_name).write_bytes(content(cold))
        clear_memo()
        if command == "list":
            code, out, err = run(capsys, "cache", "--list")
            assert code == 0 and out == "Hqt/2/2\n"
            assert "Traceback" not in err
            return
        code, out, err = run(capsys, *args)
        assert code == 0 and out == cold
        assert "Traceback" not in err
        warnings = err.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning:")
        assert file_name in warnings[0]
        assert (isolated_cache / file_name).read_bytes() == cold.encode()
        clear_memo()
        assert run(capsys, *args) == (0, cold, "")  # the rewritten file is a hit

    def test_stored_failing_check_is_served(self, capsys, isolated_cache, monkeypatch):
        """A stored report that records a failed check reproduces on load, so
        the document is a hit, not a miss."""
        from charvar import invariants

        real = invariants.attached_checks

        def failing(kind, n, g, poly):
            report = real(kind, n, g, poly)
            report.add("duality", invariants.CheckEntry(False, witness="recorded"))
            return report

        monkeypatch.setattr(invariants, "attached_checks", failing)
        args = ("compute", "--kind", "E", "--n", "2", "--g", "2", "--format", "json")
        clear_memo()
        try:
            code, cold, _ = run(capsys, *args)
            assert code == 0 and '"witness":"recorded"' in cold
            clear_memo()
            assert run(capsys, *args) == (0, cold, "")
        finally:
            clear_memo()  # later tests must not see the doctored report

    def test_all_suite_loads_each_kind_once(self, capsys, monkeypatch):
        """Memo hits compare bytes: one load per kind and one check run per
        computed result; the suites read the attached reports."""
        from charvar import invariants

        counts = {"load": 0, "checks": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            invariants.InvariantCache, "load", counted("load", invariants.InvariantCache.load)
        )
        monkeypatch.setattr(
            invariants, "attached_checks", counted("checks", invariants.attached_checks)
        )
        clear_memo()
        assert run(capsys, "check", "--suite", "all", "--n", "2", "--g", "2")[0] == 0
        assert counts == {"load": 4, "checks": 4}

    def test_cache_dir_flag_overrides_env(self, capsys, tmp_path):
        other = tmp_path / "other-cache"
        run(
            capsys, "compute", "--kind", "E", "--n", "1", "--g", "2",
            "--cache-dir", str(other),
        )
        code, out, _ = run(capsys, "cache", "--list", "--cache-dir", str(other))
        assert code == 0 and out == "E/1/2\n"
        code, out, _ = run(capsys, "cache", "--list")  # env cache untouched
        assert "E/1/2" not in out


# (argv, documented exit code), in the order one process makes the calls:
# malformed argv, help, a computation, usage errors, another computation.
IN_PROCESS_TABLE = [
    (["frobnicate"], 2),
    (["compute", "--kind", "E", "--g", "2"], 2),
    (["compute", "--kind", "E", "--n", "abc", "--g", "2"], 2),
    (["--help"], 0),
    (["compute", "--kind", "E", "--n", "2", "--g", "2"], 0),
    (["count", "--family", "gl", "--q", "3", "--g", "1", "--zeta-order", "0"], 2),
    (["check", "--suite", "euler", "--n", "2", "--g", "1"], 2),
    (["compute", "--kind", "hqt", "--n", "2", "--g", "1", "--format", "json"], 0),
]
FRESH_PROCESS = "import sys; from charvar.cli import main; sys.exit(main(sys.argv[1:]))"


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    """Repeated main() calls share one parser and carry nothing between calls:
    each gives the exit code, stdout and stderr of a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    clear_memo()
    parser = cli._shared_parser()
    for argv, expected in IN_PROCESS_TABLE:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-c", FRESH_PROCESS, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == expected and "Traceback" not in err, argv
    assert cli._shared_parser() is parser


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    """`python -m charvar` gives the exit code, stdout and stderr of main()."""
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv, expected in IN_PROCESS_TABLE[:5]:
        code, out, err = run(capsys, *argv)
        module = subprocess.run([sys.executable, "-m", "charvar", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (module.returncode, module.stdout, module.stderr), argv
        assert code == expected, argv


def _transcript_grid(tmp):
    """compute, check, count and cache over valid and invalid values that the
    parser accepts; argparse's own messages vary between Python versions."""
    grid = []
    for kind in ("E", "hqt", "hxy", "pp", "HQT", "zz", ""):
        for n in (-1, 0, 1, 2, 3):
            for g in (-1, 0, 1, 2, 3):
                for fmt in ("text", "json"):
                    grid.append(["compute", "--kind", kind, "--n", str(n), "--g", str(g),
                                 "--format", fmt])
    for suite in (*SUITES, "all"):
        for n in (-1, 0, 1, 2, 3):
            for g in (-1, 0, 1, 2, 3):
                for fmt in ("text", "json"):
                    grid.append(["check", "--suite", suite, "--n", str(n), "--g", str(g),
                                 "--format", fmt])
    for family, qs in (("gl", (0, 1, 2, 3, 4, 7, 11)), ("sl", (0, 1, 2, 3, 4, 5, 7))):
        for q in qs:
            for g in (0, 1, 2):
                for zeta in (0, 1, 2, 3, 4):
                    grid.append(["count", "--family", family, "--q", str(q), "--g", str(g),
                                 "--zeta-order", str(zeta)])
    for oracle in ("brute", "character"):
        for fmt in ("text", "json"):
            grid.append(["count", "--family", "sl", "--q", "3", "--g", "2", "--zeta-order",
                         "2", "--oracle", oracle, "--format", fmt])
    a_file, missing = tmp / "a-file", tmp / "missing" / "dir"
    a_file.write_bytes(b"kept")
    for root in (tmp / "filled", missing, a_file, a_file / "below"):
        for argv in (["cache", "--list"], ["cache", "--clear"], ["cache", "--list"],
                     ["compute", "--kind", "E", "--n", "2", "--g", "2"],
                     ["check", "--suite", "euler", "--n", "2", "--g", "2"],
                     ["cache", "--list"], ["cache", "--clear"], ["cache", "--list"]):
            grid.append([*argv, "--cache-dir", str(root)])
    return grid


# SHA-256 of every (argv, exit code, stdout bytes, stderr bytes) of the grid
# above, temporary paths replaced by "<tmp>".
TRANSCRIPT_DIGEST = "db165fa286f2a2f350010fbad42c9e82ef11307e79cde3a66e6cd2e838486ca2"


def test_the_cli_transcript_is_pinned(capsysbinary, tmp_path):
    """One process runs the grid in order; every byte and exit code is pinned."""
    clear_memo()
    digest = hashlib.sha256()
    tmp = str(tmp_path).encode()
    for argv in _transcript_grid(tmp_path):
        code = cli.main(argv)
        out, err = capsysbinary.readouterr()
        record = (argv, code, out.replace(tmp, b"<tmp>"), err.replace(tmp, b"<tmp>"))
        digest.update(repr(record).replace(str(tmp_path), "<tmp>").encode())
    clear_memo()
    assert digest.hexdigest() == TRANSCRIPT_DIGEST
