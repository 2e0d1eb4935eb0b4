import pytest

from morphlab import morphisms
from morphlab.cli import machine_line, main


def parse_machine_line(line: str) -> dict[str, str]:
    """Inverse of :func:`morphlab.cli.machine_line`."""
    return dict(part.partition("=")[::2] for part in line.split())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckIf:
    def test_negative_decision(self, capsys):
        code, out, _ = run(capsys, "check-if", "--morphism", "a->ab;b->a",
                           "--word", "abaab")
        assert code == 1
        assert out.splitlines()[0] == "NOT-IF"
        assert "z=a" in out

    def test_positive_decision(self, capsys):
        code, out, _ = run(capsys, "check-if", "--morphism", "a->ab;b->a",
                           "--word", "abaaba")
        assert code == 0
        assert out.strip() == "IF"

    def test_machine_format_roundtrip(self, capsys):
        code, out, _ = run(capsys, "check-if", "--morphism", "a->ab;b->a",
                           "--word", "abaab", "--format", "machine")
        assert code == 1
        record = parse_machine_line(out.strip())
        assert record["command"] == "check-if"
        assert record["result"] == "NOT-IF"
        assert record["word"] == "abaab"

    @pytest.mark.parametrize("spec, line", [
        ("a->ab;b->a", "command=check-if result=NOT-IF word=b"),
        ("a->abc;b->ac;c->b", "command=check-if result=NOT-IF word=c"),
        ("a->aab;b->bba", "command=check-if result=IF"),
    ])
    def test_every_word(self, capsys, spec, line):
        code, out, _ = run(capsys, "check-if", "--morphism", spec, "--every-word",
                           "--format", "machine")
        assert out.strip() == line
        assert code == (1 if "NOT-IF" in line else 0)

    @pytest.mark.parametrize("which", [(), ("--word", "ab", "--every-word")])
    def test_one_of_word_and_every_word(self, capsys, which):
        with pytest.raises(SystemExit) as caught:
            main(["check-if", "--morphism", "a->ab;b->a", *which])
        assert caught.value.code == 2
        assert "--every-word" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check-if", "--morphism", "nonsense",
                           "--word", "ab")
        assert code == 2
        assert "error" in err


class TestCheckRecognizable:
    def test_negative_with_rotation(self, capsys):
        code, out, _ = run(capsys, "check-recognizable", "--morphism",
                           "a->ab;b->ba", "--word", "aa", "--format", "machine")
        assert code == 1
        record = parse_machine_line(out.strip())
        assert record["result"] == "NOT-RECOGNIZABLE"
        assert record["count"] == "2"

    def test_positive(self, capsys):
        code, out, _ = run(capsys, "check-recognizable", "--morphism",
                           "a->ab;b->a", "--word", "abaab")
        assert code == 0
        assert out.strip() == "RECOGNIZABLE"

    def test_refuses_an_image_above_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 64)
        code, out, err = run(capsys, "check-recognizable", "--morphism", "a->ab;b->a",
                             "--word", "a" * 32 + "b")
        assert code == 2
        assert out == ""
        assert err.startswith("error: phi^1(u) would hold more than 64 symbols")

    def test_erasing_one_symbol_morphism_is_rejected(self, capsys):
        # phi(a) = phi(aa) = empty, so the morphism is not injective
        code, out, err = run(capsys, "check-recognizable", "--morphism", "a->.",
                             "--word", "a")
        assert code == 2
        assert out == ""
        assert "injective" in err


class TestApplyOccGen:
    def test_apply_iterations(self, capsys):
        code, out, _ = run(capsys, "apply", "--morphism", "a->ab;b->a",
                           "--word", "b", "--iterations", "5")
        assert code == 0
        assert out.strip() == "abaababa"

    def test_apply_refuses_iterations_above_the_budget(self, capsys):
        code, out, err = run(capsys, "apply", "--morphism", "a->ab;b->a",
                             "--word", "a", "--iterations", "60")
        assert code == 2
        assert out == ""
        assert "phi^60(u) would hold more than 16777216 symbols" in err

    def test_file_argument_refused_before_it_is_read(self, capsys, tmp_path):
        # a sparse file: its size is set, its bytes are never written or read
        big = tmp_path / "big.txt"
        with big.open("wb") as f:
            f.truncate(2**24 + 1)
        code, _, err = run(capsys, "mus", "--text", f"@{big}")
        assert code == 2
        assert "16777217 bytes, more than the budget of 16777216" in err
        small = tmp_path / "small.txt"
        small.write_text("abaababa\n")
        code, out, _ = run(capsys, "mus", "--text", f"@{small}")
        assert code == 0
        assert out.splitlines() == ["[3,4] aa", "[5,7] bab"]

    def test_occ_machine(self, capsys):
        code, out, _ = run(capsys, "occ", "--pattern", "ab", "--text",
                           "abbabaabbaababba", "--format", "machine")
        assert code == 0
        record = parse_machine_line(out.strip())
        assert record["count"] == "5"
        assert record["positions"] == "1,4,7,11,13"

    @pytest.mark.parametrize("pattern, text, expected", [
        ("a", "abc", "1 occurrences at 1"),  # the pattern's alphabet is smaller
        ("ac", "ab", "0 occurrences at -"),  # the text's alphabet is smaller
    ])
    def test_occ_over_the_joined_alphabet(self, capsys, pattern, text, expected):
        code, out, _ = run(capsys, "occ", "--pattern", pattern, "--text", text)
        assert code == 0
        assert out.strip() == expected

    def test_gen_fibonacci(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "fibonacci", "--order", "6")
        assert code == 0
        assert out.strip() == "abaababa"

    def test_gen_list_morphisms(self, capsys):
        code, out, _ = run(capsys, "gen", "--list-morphisms")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert "fibonacci: a->ab;b->a" in lines

    def test_gen_without_args_is_error(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 2
        assert "error" in err

    def test_word_from_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("abaab\n")
        code, out, _ = run(capsys, "apply", "--morphism", "a->ab;b->a",
                           "--word", f"@{path}")
        assert code == 0
        assert out.strip() == "abaababa"


class TestMusNetocc:
    def test_mus_lines(self, capsys):
        code, out, _ = run(capsys, "mus", "--text", "abaababa")
        assert code == 0
        assert out.splitlines() == ["[3,4] aa", "[5,7] bab"]

    def test_netocc_lines(self, capsys):
        code, out, _ = run(capsys, "netocc", "--text", "abaababaabaab")
        assert code == 0
        assert out.splitlines() == [
            "[1,6] abaaba",
            "[6,11] abaaba",
            "[9,13] abaab",
        ]


class TestVerify:
    def test_tm_mus_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tm-mus",
                           "--max-order", "8")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines == [f"PASS tm_{i}" for i in range(5, 9)]

    @pytest.mark.parametrize("suite, max_order, first", [
        ("fibonacci-mus", "3", 6),
        ("fibonacci-mus", "5", 6),
        ("tm-mus", "0", 5),
        ("tm-mus", "4", 5),
        ("no-closed-form", "6", 7),
    ])
    def test_max_order_below_the_first_order_is_error(self, capsys, suite, max_order, first):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-order", max_order)
        assert code == 2
        assert out == ""
        assert f"at least {first}, got {max_order}" in err

    @pytest.mark.parametrize("suite, max_order, cap", [
        ("fibonacci-mus", "31", 30),
        ("tm-mus", "23", 22),
        ("no-closed-form", "31", 30),
    ])
    def test_max_order_above_the_cap_is_error_before_any_order_runs(
        self, capsys, suite, max_order, cap
    ):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-order", max_order)
        assert code == 2
        assert out == ""  # no PASS line: the cap is checked before the first order
        assert f"at most the cap {cap}, got {max_order}" in err

    def test_max_order_is_rejected_for_occ_preserve(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "occ-preserve", "--max-order", "1")
        assert code == 2
        assert out == ""
        assert "--max-order does not apply to occ-preserve" in err

    def test_max_order_at_the_first_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fibonacci-mus",
                           "--max-order", "6")
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("#")] == ["PASS F_6"]

    def test_occ_preserve_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "occ-preserve",
                           "--format", "machine")
        assert code == 0
        records = [parse_machine_line(l) for l in out.strip().splitlines()]
        assert [r["preconditions"] for r in records] == ["True", "False", "False", "True"]
        assert [(r["before"], r["after"]) for r in records] == [
            ("2", "2"), ("2", "3"), ("1", "2"), ("1", "1")
        ]


class TestBenchAndScanDebug:
    def test_bench_is_an_unknown_subcommand(self, capsys):
        # the decision is timed by criterion 10 and by perfbench/, not the CLI
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--min-order", "10", "--max-order", "12"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_scan_debug_is_an_unknown_subcommand(self, capsys):
        # the decision reads no text-level scan, so there is nothing to dump
        with pytest.raises(SystemExit) as exc:
            main(["scan-debug", "--morphism", "a->ab;b->a", "--word", "abaababa"])
        assert exc.value.code == 2
        assert "invalid choice: 'scan-debug'" in capsys.readouterr().err


def test_machine_line_roundtrip():
    line = machine_line(command="occ", count=3, positions="1,2,3")
    assert parse_machine_line(line) == {
        "command": "occ", "count": "3", "positions": "1,2,3"
    }
