import pytest

from morphlab.cli import machine_line, main, parse_machine_line


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

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check-if", "--morphism", "nonsense",
                           "--word", "ab")
        assert code == 2
        assert "error" in err


class TestCheckStrongIf:
    def test_fibonacci_fails_on_b(self, capsys):
        code, out, _ = run(capsys, "check-strong-if", "--morphism", "a->ab;b->a",
                           "--format", "machine")
        assert code == 1
        assert parse_machine_line(out.strip())["symbol"] == "b"

    def test_positive(self, capsys):
        code, out, _ = run(capsys, "check-strong-if", "--morphism", "a->aab;b->bba")
        assert code == 0
        assert out.strip() == "STRONGLY-IF"


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


class TestApplyOccGen:
    def test_apply_iterations(self, capsys):
        code, out, _ = run(capsys, "apply", "--morphism", "a->ab;b->a",
                           "--word", "b", "--iterations", "5")
        assert code == 0
        assert out.strip() == "abaababa"

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

    def test_scan_debug(self, capsys):
        code, out, _ = run(capsys, "scan-debug", "--morphism", "a->ab;b->a",
                           "--word", "abaababa")
        assert code == 0
        assert out.splitlines() == [
            "S[1] = a,b",
            "S[3] = b",
            "S[4] = a,b",
            "S[6] = a,b",
            "S[8] = b",
            "P_pref = []",
            "P_suf = [8]",
            "occ = 8",
        ]

    def test_scan_debug_equal_images(self, capsys):
        # b is listed before a; each S line lists its symbols sorted
        code, out, _ = run(capsys, "scan-debug", "--morphism", "b->bb;a->bb",
                           "--word", "bbbb")
        assert code == 0
        assert out.splitlines() == [
            "S[1] = a,b",
            "S[2] = a,b",
            "S[3] = a,b",
            "P_pref = [1]",
            "P_suf = [4]",
            "occ = 6",
        ]

    def test_scan_debug_rejects_erasing(self, capsys):
        code, out, err = run(capsys, "scan-debug", "--morphism", "a->ab;b->.",
                             "--word", "ab")
        assert code == 2
        assert out == ""
        assert "erased: b" in err


def test_machine_line_roundtrip():
    line = machine_line(command="occ", count=3, positions="1,2,3")
    assert parse_machine_line(line) == {
        "command": "occ", "count": "3", "positions": "1,2,3"
    }
