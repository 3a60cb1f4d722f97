import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spaltenstein
import spaltenstein.cli as cli
import spaltenstein.coinvariant as coinvariant
import spaltenstein.presentation as presentation
import spaltenstein.reports as reports
import spaltenstein.tableaux as tableaux
from spaltenstein.cli import main
from spaltenstein.presentation import HilbertSeries, h_of_tableau
from spaltenstein.tableaux import (
    Composition,
    Partition,
    count_column_strict,
    enumerate_column_strict,
    iter_pairs,
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCommands:
    def test_degree_worked_example(self):
        code, text = run_cli(
            [
                "degree",
                "--lambda", "4,3,3,2",
                "--mu", "1,4,1,3,1,2",
                "--tableau", "2,1,2,2;3,2,4;4,4,6;6,5",
            ]
        )
        assert code == 0
        assert text == "2\n"

    def test_present_json(self):
        code, text = run_cli(
            ["present", "--lambda", "2,0", "--mu", "1,1", "--family", "H", "--format", "json"]
        )
        assert code == 0
        data = json.loads(text)
        assert data["hilbert"] == [1, 1]
        assert data["certified"] is True
        assert data["family"] == "H"

    def test_enumerate_empty_is_success(self):
        code, text = run_cli(["enumerate", "--lambda", "1,1", "--mu", "2,0"])
        assert code == 0
        assert json.loads(text) == []

    def test_enumerate_table(self):
        code, text = run_cli(
            ["enumerate", "--lambda", "2,0", "--mu", "1,1", "--format", "table"]
        )
        assert code == 0
        assert text.splitlines() == ["1,2", "2,1"]

    def test_verify(self):
        code, text = run_cli(["verify", "--lambda", "2,1", "--mu", "1,1,1"])
        assert code == 0
        data = json.loads(text)
        assert data["certified"] is True
        assert data["dimension"] == 3

    def test_hilbert(self):
        code, text = run_cli(["hilbert", "--lambda", "3,2,1", "--mu", "1,1,2,2"])
        assert code == 0
        assert "hilbert" in json.loads(text)

    def test_components_dot(self):
        code, text = run_cli(
            ["components", "--lambda", "2,0", "--mu", "1,1", "--format", "dot"]
        )
        assert code == 0
        assert text.startswith("digraph cells {")

    def test_transfer(self):
        code, text = run_cli(["transfer", "--lambda", "2,0", "--mu", "2"])
        assert code == 0
        data = json.loads(text)
        assert data["certified"] is True
        assert data["shift"] == 2

    def test_basis(self):
        code, text = run_cli(["basis", "--lambda", "2,0", "--mu", "1,1"])
        assert code == 0
        data = json.loads(text)
        assert len(data) == 2

    def test_sweep(self):
        code, text = run_cli(["sweep", "--d-max", "2"])
        assert code == 0
        lines = [json.loads(line) for line in text.splitlines()]
        assert all(rec["certified"] for rec in lines)
        assert {"lambda": [2], "mu": [1, 1], "hilbert": [1, 1], "dimension": 2,
                "certified": True} in lines


class TestVerifyWork:
    def test_builds_each_family_once(self, monkeypatch):
        families = []
        real = presentation.build_quotient

        def counting(lam, mu, family="H"):
            families.append(family)
            return real(lam, mu, family)

        monkeypatch.setattr(presentation, "build_quotient", counting)
        code, _ = run_cli(["verify", "--lambda", "3,1", "--mu", "1,2,1"])
        assert code == 0
        assert sorted(families) == ["E", "H"]

    def test_betti_failure_computes_betti_once(self, monkeypatch):
        calls = []

        def wrong_betti(lam, mu):
            calls.append((lam, mu))
            return HilbertSeries([9])

        monkeypatch.setattr(cli, "betti", wrong_betti)
        code, text = run_cli(["verify", "--lambda", "2,1", "--mu", "1,1,1"])
        assert code == 1
        assert text == '{"betti":[9],"check":"betti","hilbert":[1,2]}\n'
        assert len(calls) == 1


class TestBasisWork:
    def test_one_chain_per_tableau(self, monkeypatch):
        # the term count, the degree and the polynomial of each tableau are
        # read off one reduction chain, wherever _chain is looked up: the
        # chain kept for the key; the enumerated tableaux need no validation
        chains, checks = [], []
        real_chain, real_check = tableaux._chain, tableaux._check_member

        def counting_chain(columns, mu_parts):
            chains.append(columns)
            return real_chain(columns, mu_parts)

        def counting_check(T, mu):
            checks.append(T)
            return real_check(T, mu)

        for module in (tableaux, presentation, cli, reports):
            if hasattr(module, "_chain"):
                monkeypatch.setattr(module, "_chain", counting_chain)
            if hasattr(module, "_check_member"):
                monkeypatch.setattr(module, "_check_member", counting_check)
        presentation.clear_caches()
        code, text = run_cli(["basis", "--lambda", "3,2,1", "--mu", "2,2,1,1"])
        assert code == 0
        assert len(json.loads(text)) == 8
        assert len(chains) == len(set(chains)) == 8
        assert checks == []


class TestDeterminism:
    def test_identical_bytes(self):
        args = ["present", "--lambda", "3,1", "--mu", "1,1,1,1", "--format", "json"]
        assert run_cli(args) == run_cli(args)

    def test_sweep_identical_bytes(self):
        args = ["sweep", "--d-max", "3"]
        assert run_cli(args) == run_cli(args)


class TestUsageErrors:
    def test_degree_shape_differs_from_lambda_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["degree", "--lambda", "2,1", "--mu", "1,1,1", "--tableau", "1,2,3"])
        assert info.value.code == 2

    def test_empty_inner_tableau_row_exits_2(self, capsys):
        # an empty row before a non-empty one is no Young diagram; a
        # trailing empty row is stripped
        for text in ("1;;2", ";1;2"):
            with pytest.raises(SystemExit) as info:
                main(["degree", "--lambda", "1,1", "--mu", "1,1", "--tableau", text])
            assert info.value.code == 2
            assert "not weakly decreasing" in capsys.readouterr().err
        argv = ["degree", "--lambda", "1,1", "--mu", "1,1", "--tableau", "1;2;"]
        assert run_cli(argv) == (0, "0\n")

    def test_negative_sweep_bounds_exit_2(self):
        for argv in (["--d-max", "-3"], ["--d-max", "2", "--n-max", "-1"]):
            with pytest.raises(SystemExit) as info:
                main(["sweep", *argv])
            assert info.value.code == 2

    def test_bad_partition_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--lambda", "1,2", "--mu", "1,1,1"])
        assert info.value.code == 2

    def test_size_mismatch_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--lambda", "2,1", "--mu", "1,1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["enumerate", "hilbert", "degree"])
    def test_pair_errors_name_size_first_then_height(self, command, capsys):
        # presentation._validate_pair words the usage errors; a pair with
        # both faults reports the size
        extra = ["--tableau", "1"] if command == "degree" else []
        cases = (
            ("2,1", "1,1", "|lambda|=3 and |mu|=2 differ"),
            ("1,1,1", "3", "lambda has more than 1 parts"),
            ("1,1,1,1", "3", "|lambda|=4 and |mu|=3 differ"),
        )
        for lam, mu, message in cases:
            with pytest.raises(SystemExit) as info:
                main([command, "--lambda", lam, "--mu", mu, *extra])
            assert info.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == f"spaltenstein: error: {message}"

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_too_many_lambda_parts_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["hilbert", "--lambda", "1,1,1", "--mu", "3"])
        assert info.value.code == 2

    def test_ring_above_limit_exits_2(self):
        coinvariant._RINGS.pop(9, None)
        with pytest.raises(SystemExit) as info:
            main(["hilbert", "--lambda", "9", "--mu", "9"])
        assert info.value.code == 2
        assert 9 not in coinvariant._RINGS

    def test_transfer_of_a_huge_pair_exits_2(self):
        # the regular composition (1, ..., 1) of d parts is never built:
        # the ring guard refuses d first
        big = str(10**30)
        with pytest.raises(SystemExit) as info:
            main(["transfer", "--lambda", big, "--mu", big], out=io.StringIO())
        assert info.value.code == 2

    def test_sweep_above_limit_exits_2_before_output(self):
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--d-max", "9"], out=out)
        assert info.value.code == 2
        assert out.getvalue() == ""

    def test_degree_builds_no_ring(self):
        # the README degree example has d = 12, above the ring limit
        code, _ = run_cli(
            [
                "degree",
                "--lambda", "4,3,3,2",
                "--mu", "1,4,1,3,1,2",
                "--tableau", "2,1,2,2;3,2,4;4,4,6;6,5",
            ]
        )
        assert code == 0
        assert 12 not in coinvariant._RINGS


class TestWorkCap:
    LAM, MU = Partition([3, 2]), Composition([2, 2, 1])

    def work(self, command, fmt):
        count = count_column_strict(self.LAM, self.MU)
        if command == "components" and fmt == "dot":
            return count * count
        if command == "basis":
            return sum(len(h_of_tableau(T, self.MU).terms)
                       for T in enumerate_column_strict(self.LAM, self.MU))
        return count

    @pytest.mark.parametrize("command, fmt", [
        ("enumerate", "json"), ("enumerate", "table"), ("enumerate", "semistandard"),
        ("components", "json"), ("components", "table"), ("components", "dot"),
        ("basis", "json"), ("basis", "table"),
    ])
    def test_exit_0_at_the_cap_and_2_above(self, command, fmt, monkeypatch, capsys):
        argv = [command, "--lambda", "3,2", "--mu", "2,2,1"]
        argv += ["--semistandard"] if fmt == "semistandard" else ["--format", fmt]
        work = self.work(command, fmt)
        monkeypatch.setattr(cli, "MAX_WORK", work)
        code, text = run_cli(argv)
        assert code == 0 and text
        monkeypatch.setattr(cli, "MAX_WORK", work - 1)
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(argv, out=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert f"{work} " in err and "Traceback" not in err

    def test_basis_checks_the_count_first(self, monkeypatch, capsys):
        count = count_column_strict(self.LAM, self.MU)
        monkeypatch.setattr(cli, "MAX_WORK", count - 1)
        with pytest.raises(SystemExit) as info:
            main(["basis", "--lambda", "3,2", "--mu", "2,2,1"], out=io.StringIO())
        assert info.value.code == 2
        assert f"{count} fillings" in capsys.readouterr().err

    def test_huge_enumeration_refused_by_count(self, capsys):
        # 137,846,528,820 fillings; the count takes milliseconds
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--lambda", "40", "--mu", "20,20"], out=io.StringIO())
        assert info.value.code == 2
        assert "137846528820 fillings" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "components", "basis"])
    def test_boxes_refused_before_the_count(self, command, monkeypatch, capsys):
        # the count walks the columns, so a huge part is refused first
        called = []
        monkeypatch.setattr(cli, "count_column_strict", lambda lam, mu: called.append(1))
        with pytest.raises(SystemExit) as info:
            main([command, "--lambda", str(10**30), "--mu", str(10**30)], out=io.StringIO())
        assert info.value.code == 2 and not called
        assert f"{10**30} boxes exceed" in capsys.readouterr().err
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_BOXES", 5)
        assert run_cli([command, "--lambda", "3,2", "--mu", "2,2,1"])[0] == 0
        monkeypatch.setattr(cli, "MAX_BOXES", 4)
        with pytest.raises(SystemExit) as info:
            main([command, "--lambda", "3,2", "--mu", "2,2,1"], out=io.StringIO())
        assert info.value.code == 2
        assert "5 boxes exceed the limit of 4" in capsys.readouterr().err

    def test_term_count_refuses_a_small_count(self, capsys):
        # 1,860 fillings, under the cap, but 2,227,530 polynomial terms
        with pytest.raises(SystemExit) as info:
            main(["basis", "--lambda", "6,6", "--mu", "3,3,3,3"], out=io.StringIO())
        assert info.value.code == 2
        assert "2227530 polynomial terms" in capsys.readouterr().err


def _text(parts):
    return ",".join(map(str, parts))


# small parts, empty, negative and huge entries, and text that is no list
PART = st.one_of(st.integers(-2, 4), st.sampled_from([10**6, 10**30]))
INT_LIST = st.lists(PART, max_size=4).map(_text)
TEXT = st.one_of(INT_LIST, st.sampled_from(["", " ", "x", "1,,2", "2.5", "1;2"]))
VALID_PAIRS = list(iter_pairs(5))
NOISE = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["--lambda", "--mu", "--tableau"]), TEXT),
        st.tuples(st.just("--format"), st.sampled_from(["json", "table", "dot", "xml"])),
        st.tuples(st.just("--family"), st.sampled_from(["H", "E", "F"])),
        st.tuples(st.sampled_from(["--d-max", "--n-max"]), st.sampled_from(["-1", "9", "x"])),
        st.tuples(st.sampled_from(["--semistandard", "--help", "--bogus"])),
    ),
    max_size=2,
)


@st.composite
def cli_argv(draw):
    """argv of a subcommand: its own flags, mostly with a valid pair of
    d <= 5 (and, for degree, one of its tableaux), else with drawn text;
    a third of the time, then up to two stray flags."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["frobnicate"]))
    argv = [command]
    if command == "sweep":
        argv += ["--d-max", str(draw(st.one_of(st.integers(-2, 3), st.sampled_from([9, 10**30]))))]
        if draw(st.booleans()):
            argv += ["--n-max", str(draw(st.integers(-1, 3)))]
    elif draw(st.integers(0, 3)):
        lam, mu = draw(st.sampled_from(VALID_PAIRS))
        argv += ["--lambda", _text(lam), "--mu", _text(mu)]
        tabs = enumerate_column_strict(lam, mu) if command == "degree" else []
        if tabs:
            rows = draw(st.sampled_from(tabs)).rows
            argv += ["--tableau", ";".join(map(_text, rows))]
    else:
        argv += ["--lambda", draw(TEXT), "--mu", draw(TEXT)]
        if command == "degree":
            argv += ["--tableau", ";".join(draw(st.lists(INT_LIST, min_size=1, max_size=3)))]
    if command in ("enumerate", "basis", "present", "components"):
        formats = ["json", "table"] + (["dot"] if command == "components" else [])
        argv += ["--format", draw(st.sampled_from(formats))]
    if draw(st.integers(0, 2)):
        return argv
    return argv + [token for flag in draw(NOISE) for token in flag]


def _value(argv, flag):
    """The last value of flag in argv, as argparse keeps it, else None."""
    values = [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == flag]
    return values[-1] if values else None


def _builds_a_large_ring(argv):
    """Whether argv is a valid pair or sweep bound of 5 < d <= MAX_D: such
    commands would build the d = 6..8 rings, which take seconds to
    minutes, so the fuzz leaves them out.  Above MAX_D they are refused
    before any ring is built, and stay in."""
    if argv[0] == "sweep":
        bound = _value(argv, "--d-max") or ""
        return bound.lstrip("-").isdigit() and 5 < int(bound) <= coinvariant.MAX_D
    try:
        lam = cli.parse_partition(_value(argv, "--lambda") or "")
        mu = cli.parse_composition(_value(argv, "--mu") or "")
    except argparse.ArgumentTypeError:
        return False
    return lam.size() == mu.size() and 5 < mu.size() <= coinvariant.MAX_D


class TestFuzz:
    @given(cli_argv())
    @settings(max_examples=300, deadline=timedelta(seconds=5))
    def test_exits_0_1_or_2_and_raises_nothing_else(self, argv):
        assume(not _builds_a_large_ring(argv))
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv, out=io.StringIO())
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_module(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "spaltenstein", *argv], env=env, capture_output=True
    )


class TestModuleEntryPoint:
    def test_same_bytes_as_main(self):
        argv = ["hilbert", "--lambda", "3,2,1", "--mu", "2,2,2"]
        proc = run_module(argv)
        assert proc.returncode == 0
        assert proc.stdout.decode() == run_cli(argv)[1]

    def test_bad_pair_exits_2(self):
        proc = run_module(["hilbert", "--lambda", "2,1", "--mu", "1,1"])
        assert proc.returncode == 2
        assert proc.stdout == b""


class TestWideInput:
    # lam = mu = (1000) has 1000 columns, more than the recursion limit
    def test_enumerate_one_tableau(self):
        code, text = run_cli(["enumerate", "--lambda", "1000", "--mu", "1000"])
        assert code == 0
        assert json.loads(text) == [{"rows": [[1] * 1000], "shape": [1000]}]

    def test_components(self):
        code, text = run_cli(["components", "--lambda", "1000", "--mu", "1000"])
        assert code == 0
        (triple,) = json.loads(text)
        assert triple["dimension"] == 0


# What importing the CLI may load beyond a bare interpreter: the library;
# the modules the CLI uses, which are fractions (with decimal and
# numbers), argparse (with gettext) and json; and the core modules that
# the library and those modules import, which a site that preloads less
# than this one would leave to the CLI to load.
CLI_MODULES = {"fractions", "decimal", "_decimal", "numbers", "argparse", "gettext", "_json"}
CORE_MODULES = {
    "itertools", "math", "operator", "_operator", "functools", "_functools",
    "collections", "collections.abc", "_collections", "keyword", "reprlib",
    "_sre", "enum", "types", "copyreg", "warnings",
}
PACKAGES = ("spaltenstein", "json", "re")
# loaded by the dataclasses -> inspect chain or by type annotations
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def loaded_modules(statement):
    """The names in sys.modules of a fresh interpreter, with the test's own
    interpreter and environment, after running statement."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


class TestPublicApi:
    def test_all_is_pinned(self):
        # a public name may be dropped only on purpose, here
        assert sorted(spaltenstein.__all__) == [
            "BasisError", "BlockStructure", "Composition", "GradedQuotient",
            "HilbertSeries", "Partition", "Polynomial", "Tableau", "TransferError",
            "TruncationError", "VerificationError", "anti_invariant_transfer", "betti",
            "build_quotient", "cell_order", "certify_basis", "clear_caches",
            "coinvariant", "column_sequence_to_partition", "complete_block",
            "components", "compositions", "count_column_strict", "dims",
            "dominance_leq", "elementary_block", "enumerate_column_strict",
            "enumerate_semistandard", "generators", "h_of_tableau", "iter_pairs",
            "linalg", "normal_form", "partition_to_column_sequence", "partitions",
            "permute", "poset_dot", "poset_edges", "presentation", "reduce_tableau",
            "rel_equivalence", "reports", "straighten", "structure_constants",
            "symring", "tableau_degree", "tableaux", "transpose",
        ]


class TestImportBudget:
    def test_cli_loads_only_what_it_uses(self):
        bare = loaded_modules("")
        added = loaded_modules("import spaltenstein.cli") - bare
        assert "spaltenstein.cli" in added
        stray = {
            name for name in added
            if name not in CLI_MODULES | CORE_MODULES and name.split(".")[0] not in PACKAGES
        }
        assert not stray
        # a name the environment preloads cannot show what the CLI loads
        assert not added & {name for name in UNUSED if name not in bare}
