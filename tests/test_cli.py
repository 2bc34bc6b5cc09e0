import contextlib
import io
import json
import shutil

import pytest

from tableqa import cli
from tableqa.cli import COMMANDS, build_parser, main


class TestIngest:
    def test_workspace_layout(self, cli_workspace):
        tables = list((cli_workspace / "tables").iterdir())
        assert len(tables) >= 40
        assert (cli_workspace / "table_kinds.txt").exists()

    def test_transposed_table_written(self, cli_workspace):
        text = (cli_workspace / "tables" / "whoopi-goldberg.csv").read_text()
        assert text.splitlines()[0].startswith("spouse,born")

    def test_ingest_with_trained_model(self, cli_workspace, fixtures_dir,
                                       tmp_path, capsys):
        fx = str(fixtures_dir)
        ws2 = tmp_path / "ws2"
        code = main(["ingest", "--tables", f"{fx}/tables",
                     "--table-type-model",
                     str(cli_workspace / "models" / "table-type.model"),
                     "--workspace", str(ws2)])
        assert code == 0
        assert "ingested" in capsys.readouterr().out

    def test_ingest_requires_kind_source(self, fixtures_dir, tmp_path, capsys):
        code = main(["ingest", "--tables", f"{fixtures_dir}/tables",
                     "--workspace", str(tmp_path / "ws3")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_models_written(self, cli_workspace):
        for task in ("table-type", "column-type", "select", "where"):
            assert (cli_workspace / "models" / f"{task}.model").exists()

    def test_same_seed_byte_identical(self, cli_workspace, fixtures_dir,
                                      tmp_path):
        fx = str(fixtures_dir)
        out1 = tmp_path / "a.model"
        out2 = tmp_path / "b.model"
        for out in (out1, out2):
            assert main(["train", "--task", "select",
                         "--workspace", str(cli_workspace),
                         "--manifest", f"{fx}/manifest.txt",
                         "--embeddings", f"{fx}/pipeline.vec",
                         "--seed", "7", "--epochs", "40",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, cli_workspace, fixtures_dir, tmp_path):
        fx = str(fixtures_dir)
        out1 = tmp_path / "s1.model"
        out2 = tmp_path / "s2.model"
        for seed, out in ((1, out1), (2, out2)):
            assert main(["train", "--task", "column-type",
                         "--workspace", str(cli_workspace),
                         "--labels", f"{fx}/column_labels.txt",
                         "--seed", str(seed), "--epochs", "20",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_inputs_is_validation_error(self, cli_workspace, capsys):
        code = main(["train", "--task", "select",
                     "--workspace", str(cli_workspace)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRetrieve:
    def test_ranks_gold_table_first(self, cli_workspace, capsys):
        code = main(["retrieve", "--workspace", str(cli_workspace),
                     "--question", "What is the capital of Louisiana?",
                     "--sim", "cosine", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[1] == "state-capitals"

    def test_k_below_one_is_usage_error(self, cli_workspace):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--workspace", str(cli_workspace),
                  "--question", "What is the capital of Louisiana?", "--k", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("question", ["", "the of", "zyxxyq qqqzz"])
    def test_question_without_indexed_stem_is_error(self, cli_workspace, capsys,
                                                    question):
        code = main(["retrieve", "--workspace", str(cli_workspace),
                     "--question", question])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == _no_indexed_word(question)
        assert captured.out == ""


def _no_indexed_word(question):
    return ("error: [source-selection] question has no indexed word to rank "
            f"tables by: {question!r}\n")


class TestAsk:
    def test_husband_question_golden_scope(self, cli_workspace, fixtures_dir,
                                           capsys):
        fx = str(fixtures_dir)
        code = main(["ask", "Who is the husband of Whoopi Goldberg?",
                     "--workspace", str(cli_workspace),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Lyle Trachtenberg" in out
        assert 'SELECT "spouse" FROM "whoopi-goldberg"' in out
        assert "gold: match" in out

    def test_full_pipeline_with_retrieval(self, cli_workspace, fixtures_dir,
                                          capsys):
        fx = str(fixtures_dir)
        code = main(["ask", "What is the capital of Louisiana?",
                     "--workspace", str(cli_workspace),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "all", "--sim", "cosine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "table: state-capitals" in out
        assert "Baton Rouge" in out
        assert "gold: match" in out

    def test_question_with_dotted_capital_i(self, cli_workspace, fixtures_dir,
                                            capsys):
        fx = str(fixtures_dir)
        code = main(["ask", "What is the capital of İllinois?",
                     "--workspace", str(cli_workspace),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt"])
        assert code == 0, capsys.readouterr().err
        assert "table: " in capsys.readouterr().out

    @pytest.mark.parametrize("question", ["the of a", "zyxxyq qqqzz", "???"])
    def test_question_without_indexed_stem_is_error(self, cli_workspace,
                                                    fixtures_dir, capsys,
                                                    question):
        # the rule `retrieve` applies, and with its message
        code = main(["ask", question, "--workspace", str(cli_workspace),
                     "--embeddings", f"{fixtures_dir}/pipeline.vec",
                     "--scope", "all"])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", _no_indexed_word(question))

    def test_golden_scope_needs_manifest_question(self, cli_workspace,
                                                  fixtures_dir, capsys):
        fx = str(fixtures_dir)
        code = main(["ask", "Entirely novel question?",
                     "--workspace", str(cli_workspace),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 1

    def test_repl(self, cli_workspace, fixtures_dir, capsys, monkeypatch):
        import io

        fx = str(fixtures_dir)
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("What is the capital of Texas?\n\n"),
        )
        code = main(["ask", "--repl",
                     "--workspace", str(cli_workspace),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 0
        assert "Austin" in capsys.readouterr().out

    def test_repl_loads_index_once_and_answers_as_single_runs(
            self, cli_workspace, fixtures_dir, capsys, monkeypatch):
        import io

        import tableqa.harness

        fx = str(fixtures_dir)
        argv = ["--workspace", str(cli_workspace),
                "--embeddings", f"{fx}/pipeline.vec",
                "--manifest", f"{fx}/manifest.txt", "--scope", "all"]
        questions = ["What is the capital of Louisiana?",
                     "Who is the husband of Whoopi Goldberg?",
                     "What is the capital of Texas?"]
        singles = []
        for question in questions:
            assert main(["ask", question, *argv]) == 0
            singles.append(capsys.readouterr().out)

        builds, loads = [], []
        real_build, real_load = tableqa.harness.build_index, cli.load_index

        def counting_build(tables):
            builds.append(len(tables))
            return real_build(tables)

        def counting_load(path, table_ids):
            loads.append(path)
            return real_load(path, table_ids)

        monkeypatch.setattr(tableqa.harness, "build_index", counting_build)
        monkeypatch.setattr(cli, "build_index", counting_build)
        monkeypatch.setattr(cli, "load_index", counting_load)
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(questions) + "\n\n"))
        assert main(["ask", "--repl", *argv]) == 0
        out = capsys.readouterr().out
        assert builds == []
        assert loads == [cli_workspace / "index.npz"]
        header = "enter questions, one per line (blank line or EOF to quit)\n"
        assert out == header + "".join(singles)

    def test_question_matching_two_entries_is_error(
            self, cli_workspace, fixtures_dir, tmp_path, capsys, monkeypatch):
        import io

        fx = str(fixtures_dir)
        lines = (fixtures_dir / "manifest.txt").read_text().splitlines()
        louisiana = next(line for line in lines if line.startswith("q01\t"))
        texas = next(line for line in lines if line.startswith("q02\t"))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join([louisiana, "q01b" + louisiana[3:], texas])
                            + "\n")
        argv = ["--workspace", str(cli_workspace),
                "--embeddings", f"{fx}/pipeline.vec",
                "--manifest", str(manifest), "--scope", "golden"]
        message = ("error: question matches manifest entries q01, q01b: "
                   "'What is the capital of Louisiana?'\n")

        assert main(["ask", "What is the capital of Louisiana?", *argv]) == 1
        assert capsys.readouterr().err == message

        monkeypatch.setattr("sys.stdin", io.StringIO(
            "What is the capital of Louisiana?\n"
            "What is the capital of Texas?\n\n"))
        assert main(["ask", "--repl", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == message
        assert "Baton Rouge" not in captured.out
        assert "Austin" in captured.out
        assert "gold: match" in captured.out


class TestEval:
    def test_select_json(self, cli_workspace, fixtures_dir, capsys):
        fx = str(fixtures_dir)
        code = main(["eval", "--task", "select",
                     "--workspace", str(cli_workspace),
                     "--manifest", f"{fx}/manifest.txt",
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--split", "train", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "select"
        assert set(payload["confusion"]) == {"tp", "fp", "fn", "tn"}
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_table_type_classifies_each_labelled_table_once(
            self, cli_workspace, fixtures_dir, capsys, monkeypatch):
        from tableqa.harness import load_corpus, load_table_kinds
        from tableqa.tabular import (
            TableTypeModel,
            classify_table_type,
            extract_table_type_features,
            load_table_type_model,
        )

        fx = str(fixtures_dir)
        raw = load_corpus(f"{fx}/tables")
        kinds = load_table_kinds(f"{fx}/table_types.txt")
        model = load_table_type_model(cli_workspace / "models" / "table-type.model")
        wrong = sorted(tid for tid, t in raw.items() if tid in kinds and
                       classify_table_type(extract_table_type_features(t), model)
                       is not kinds[tid])

        calls = []
        real_logit = TableTypeModel.logit

        def counting_logit(self, features):
            calls.append(features)
            return real_logit(self, features)

        monkeypatch.setattr(TableTypeModel, "logit", counting_logit)
        code = main(["eval", "--task", "table-type",
                     "--workspace", str(cli_workspace),
                     "--tables", f"{fx}/tables", "--kinds",
                     f"{fx}/table_types.txt", "--format", "json"])
        assert code == 0
        assert len(calls) == sum(tid in kinds for tid in raw) == 58
        out = capsys.readouterr().out
        assert json.loads(out)["misclassified"] == wrong
        saved = cli_workspace / "reports" / "table-type.json"
        assert saved.read_text() == out

    @pytest.mark.parametrize("text", ["", "# comments only\n\n"],
                             ids=["empty", "comments-only"])
    def test_column_type_without_labelled_columns_is_error(
            self, cli_workspace, tmp_path, capsys, text):
        labels = tmp_path / "labels.txt"
        labels.write_text(text)
        code = main(["eval", "--task", "column-type",
                     "--workspace", str(cli_workspace), "--labels", str(labels)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {labels}: no labelled columns\n"

    def test_table_type_text(self, cli_workspace, fixtures_dir, capsys):
        fx = str(fixtures_dir)
        code = main(["eval", "--task", "table-type",
                     "--workspace", str(cli_workspace),
                     "--tables", f"{fx}/tables", "--kinds",
                     f"{fx}/table_types.txt"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_retrieval_json(self, cli_workspace, fixtures_dir, capsys):
        fx = str(fixtures_dir)
        code = main(["eval", "--task", "retrieval",
                     "--workspace", str(cli_workspace),
                     "--manifest", f"{fx}/manifest.txt",
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "p@1" in payload["cosine"]["p_at_k"]


class TestReports:
    def test_eval_writes_workspace_report(self, cli_workspace, fixtures_dir,
                                          capsys):
        fx = str(fixtures_dir)
        assert main(["eval", "--task", "where",
                     "--workspace", str(cli_workspace),
                     "--manifest", f"{fx}/manifest.txt",
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--split", "train"]) == 0
        capsys.readouterr()
        saved = cli_workspace / "reports" / "where-train.json"
        assert saved.exists()
        payload = json.loads(saved.read_text())
        assert payload["task"] == "where"


class TestPipelineEval:
    def test_json_grid(self, cli_workspace, fixtures_dir, capsys):
        fx = str(fixtures_dir)
        code = main(["pipeline-eval", "--workspace", str(cli_workspace),
                     "--manifest", f"{fx}/manifest.txt",
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--split", "dev", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for scope in ("golden", "individual", "all"):
            for mode in ("wordmatch", "embedding"):
                assert "f1" in payload[scope][mode]


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    # argparse rejects each value before any file is read
    @pytest.mark.parametrize("argv", [
        ["train", "--task", "select", "--epochs", "-1"],
        ["train", "--task", "select", "--lr", "0"],
        ["train", "--task", "select", "--lr", "nan"],
        ["train", "--task", "select", "--lr", "inf"],
        ["train", "--task", "select", "--batch-size", "0"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_out_of_range_numeric_flag_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workspace", str(tmp_path / "ws")])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err

    def test_ask_has_no_threshold_flag(self, tmp_path, capsys):
        # ~ validates every manifest at its one default threshold
        with pytest.raises(SystemExit) as exc:
            main(["ask", "q?", "--threshold", "0.45", "--workspace",
                  str(tmp_path / "ws"), "--embeddings", str(tmp_path / "none.vec")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["table-type", "column-type", "select",
                                      "where"])
    def test_negative_seed_exits_2(self, cli_workspace, fixtures_dir, tmp_path,
                                   capsys, task):
        # every input the task needs is given, so only the seed is wrong
        fx = str(fixtures_dir)
        inputs = {
            "table-type": ["--tables", f"{fx}/tables",
                           "--kinds", f"{fx}/table_types.txt"],
            "column-type": ["--labels", f"{fx}/column_labels.txt"],
        }.get(task, ["--manifest", f"{fx}/manifest.txt",
                     "--embeddings", f"{fx}/pipeline.vec"])
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", task, "--workspace", str(cli_workspace),
                  "--seed", "-1", "--out", str(tmp_path / "m.model"), *inputs])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0: -1" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()



def _parse(parser, argv):
    """(exit code or None, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# per subcommand: a missing required option, an invalid choice and an
# out-of-range number, where it takes one, and an unknown option
_USAGE_ERRORS = [
    ["ingest", "--workspace", "w"],
    ["ingest", "--tables", "t", "--workspace", "w", "--seed", "1"],
    ["train", "--workspace", "w"],
    ["train", "--task", "sql", "--workspace", "w"],
    ["train", "--task", "select", "--workspace", "w", "--epochs", "-1"],
    ["train", "--task", "select", "--workspace", "w", "--lr", "nan"],
    ["retrieve", "--workspace", "w"],
    ["retrieve", "--workspace", "w", "--question", "q", "--sim", "jaccard"],
    ["retrieve", "--workspace", "w", "--question", "q", "--k", "0"],
    ["eval", "--workspace", "w"],
    ["eval", "--task", "select", "--workspace", "w", "--split", "val"],
    ["eval", "--task", "select", "--workspace", "w", "--format", "xml"],
    ["ask", "q", "--workspace", "w"],
    ["ask", "q", "--workspace", "w", "--embeddings", "e", "--scope", "none"],
    ["ask", "q", "--workspace", "w", "--embeddings", "e", "--threshold", "1"],
    ["pipeline-eval", "--workspace", "w", "--manifest", "m"],
    ["pipeline-eval", "--workspace", "w", "--manifest", "m", "--embeddings", "e",
     "--split", "val"],
]


class TestOneCommandParser:
    # main builds only the subcommand it runs; that parser must read, and
    # word its help and errors, as the parser of all six does

    def test_commands_table_lists_the_six(self):
        assert list(COMMANDS) == ["ingest", "train", "retrieve", "eval", "ask",
                                  "pipeline-eval"]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_is_the_full_parsers(self, command):
        want = _parse(build_parser(), [command, "--help"])
        assert want[0] == 0 and want[1].startswith(f"usage: tableqa {command} ")
        assert _parse(build_parser(command), [command, "--help"]) == want

    @pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=" ".join)
    def test_usage_error_is_the_full_parsers(self, argv):
        want = _parse(build_parser(), argv)
        assert want[0] == 2 and want[2], want
        assert _parse(build_parser(argv[0]), argv) == want

    def test_full_help_lists_all_six(self):
        code, out, _ = _parse(build_parser(), ["--help"])
        assert code == 0
        for name, (help_text, _, _) in COMMANDS.items():
            assert f"    {name}" in out and help_text in out, name

    def test_main_builds_only_the_named_command(self, monkeypatch, capsys):
        built = []

        def recording(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        for argv in (["ask", "--help"], ["--help"], ["bogus"], []):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == ["ask", None, None, None]


def _with_value(line, value):
    # an "array <name> <shape> <v0> <v1> ..." line with v0 replaced
    fields = line.split(" ")
    fields[3] = value
    return " ".join(fields)


def _corrupted(text, how):
    lines = text.splitlines(keepends=True)
    if how == "truncated":
        return "".join(lines[:4]) + lines[4][:len(lines[4]) // 2]
    if how in ("nan", "inf"):
        return "".join(lines[:3] + [_with_value(lines[3], how)] + lines[4:])
    if how == "spec":
        return "".join(lines[:1] + ["spec 77 32,16,8 binary2\n"] + lines[2:])
    assert how == "missing-array"
    return "".join(lines[:4] + lines[5:])


class TestMalformedInputs:
    @pytest.mark.parametrize("how", ["truncated", "nan", "inf", "spec",
                                     "missing-array"])
    def test_bad_model_file_is_error_not_traceback(self, cli_workspace,
                                                   fixtures_dir, tmp_path,
                                                   capsys, how):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        model = ws / "models" / "where.model"
        model.write_text(_corrupted(model.read_text(), how))
        fx = str(fixtures_dir)
        code = main(["ask", "Who is the husband of Whoopi Goldberg?",
                     "--workspace", str(ws),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}:")

    def test_huge_spec_is_error_naming_the_line(self, cli_workspace, fixtures_dir,
                                                tmp_path, capsys):
        # the declared 77 x 32e9 first layer is never allocated: the file's
        # own W0 line disagrees with it
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        model = ws / "models" / "where.model"
        lines = model.read_text().splitlines(keepends=True)
        lines[1] = "spec 77 32000000000,16,8 binary2 1\n"
        model.write_text("".join(lines))
        fx = str(fixtures_dir)
        code = main(["ask", "Who is the husband of Whoopi Goldberg?",
                     "--workspace", str(ws),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}:3: array W0 has shape 77,32, "
            "expected 77,32000000000\n")

    @pytest.mark.parametrize("source, slot, expected, got", [
        ("where", "select", "spec 25 32,16,8 binary2 1", "spec 77 32,16,8 binary2 1"),
        ("select", "column-type", "spec 9 32,32 softmax7 1",
         "spec 25 32,16,8 binary2 1"),
    ])
    def test_model_of_another_task_names_its_spec_line(
            self, cli_workspace, fixtures_dir, tmp_path, capsys, source, slot,
            expected, got):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        model = ws / "models" / f"{slot}.model"
        shutil.copyfile(ws / "models" / f"{source}.model", model)
        fx = str(fixtures_dir)
        code = main(["ask", "Who is the husband of Whoopi Goldberg?",
                     "--workspace", str(ws),
                     "--embeddings", f"{fx}/pipeline.vec",
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}:2: expected {expected!r} for a {slot} model, "
            f"got {got!r}\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--task", "select", "--workspace", "{ws}", "--manifest", "{bad}",
         "--embeddings", "{fx}/pipeline.vec"],
        ["ask", "Who is the husband of Whoopi Goldberg?", "--workspace", "{ws}",
         "--embeddings", "{bad}"],
        ["pipeline-eval", "--workspace", "{ws}", "--manifest", "{bad}",
         "--embeddings", "{fx}/pipeline.vec"],
        ["eval", "--task", "column-type", "--workspace", "{ws}", "--labels", "{bad}"],
        ["ingest", "--tables", "{bad}", "--kinds", "{fx}/table_types.txt",
         "--workspace", "{tmp}/ws"],
        ["ingest", "--tables", "{tmp}/tables", "--kinds", "{fx}/table_types.txt",
         "--workspace", "{tmp}/ws"],
    ], ids=["train-manifest", "ask-embeddings", "pipeline-eval-manifest",
            "eval-labels", "ingest-tables", "ingest-directory-named-csv"])
    def test_unreadable_input_is_error_not_traceback(self, cli_workspace,
                                                     fixtures_dir, tmp_path,
                                                     capsys, argv):
        # a path that does not exist, or a directory where a table file is
        # expected
        (tmp_path / "tables" / "sub.csv").mkdir(parents=True)
        bad = tmp_path / "missing.txt"
        code = main([arg.format(ws=cli_workspace, fx=fixtures_dir, tmp=tmp_path,
                                bad=bad) for arg in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        culprit = bad if "{bad}" in argv else tmp_path / "tables" / "sub.csv"
        assert str(culprit) in err

    @pytest.mark.parametrize("target, line, argv", [
        ("{tmp}/tables/state-capitals.csv", 3,
         ["ingest", "--tables", "{tmp}/tables", "--kinds", "{fx}/table_types.txt",
          "--workspace", "{tmp}/out"]),
        ("{tmp}/table_types.txt", 2,
         ["ingest", "--tables", "{fx}/tables", "--kinds", "{bad}",
          "--workspace", "{tmp}/out"]),
        ("{tmp}/column_labels.txt", 2,
         ["eval", "--task", "column-type", "--workspace", "{tmp}", "--labels", "{bad}"]),
        ("{tmp}/manifest.txt", 4,
         ["pipeline-eval", "--workspace", "{tmp}", "--manifest", "{bad}",
          "--embeddings", "{fx}/pipeline.vec"]),
        ("{tmp}/pipeline.vec", 5,
         ["ask", "Who is the husband of Whoopi Goldberg?", "--workspace", "{tmp}",
          "--embeddings", "{bad}"]),
        ("{tmp}/models/table-type.model", 3,
         ["ingest", "--tables", "{fx}/tables", "--table-type-model", "{bad}",
          "--workspace", "{tmp}/out"]),
        ("{tmp}/models/where.model", 4,
         ["ask", "Who is the husband of Whoopi Goldberg?", "--workspace", "{tmp}",
          "--embeddings", "{fx}/pipeline.vec", "--manifest", "{fx}/manifest.txt",
          "--scope", "golden"]),
    ], ids=["table", "kinds", "labels", "manifest", "embeddings",
            "table-type-model", "model"])
    def test_bytes_not_utf8_are_error_naming_the_line(self, cli_workspace,
                                                      fixtures_dir, tmp_path,
                                                      capsys, target, line, argv):
        # the fixtures and a workspace over them, with one byte that is not
        # UTF-8 put into the target file's line
        shutil.copytree(fixtures_dir, tmp_path, dirs_exist_ok=True)
        shutil.copytree(cli_workspace, tmp_path, dirs_exist_ok=True)
        bad = tmp_path / target.format(tmp=".")
        lines = bad.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
        bad.write_bytes(b"\n".join(lines))
        assert main([arg.format(fx=fixtures_dir, tmp=tmp_path, bad=bad)
                     for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:{line}: not UTF-8 text (byte 0xff)\n")

    def test_malformed_kinds_line_is_error(self, fixtures_dir, tmp_path, capsys):
        kinds = tmp_path / "kinds.txt"
        kinds.write_text("# id<TAB>kind\nstate-capitals\tentity-instance\textra\n")
        code = main(["ingest", "--tables", f"{fixtures_dir}/tables",
                     "--kinds", str(kinds), "--workspace", str(tmp_path / "ws")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {kinds}:2: ")

    def test_unknown_kind_is_error(self, fixtures_dir, tmp_path, capsys):
        kinds = tmp_path / "kinds.txt"
        kinds.write_text("state-capitals\tcolumnar\n")
        code = main(["ingest", "--tables", f"{fixtures_dir}/tables",
                     "--kinds", str(kinds), "--workspace", str(tmp_path / "ws")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {kinds}:1: ")


    def test_malformed_manifest_cell_names_file_and_line(self, cli_workspace,
                                                         fixtures_dir, tmp_path,
                                                         capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# qid split table alternates cells question query\n"
            "q1\ttrain\tstate-capitals\t-\t0:1:2\tCapital of Texas?\t"
            "SELECT \"Capital\" FROM \"state-capitals\"\n"
        )
        code = main(["ask", "Capital of Texas?", "--workspace", str(cli_workspace),
                     "--embeddings", f"{fixtures_dir}/pipeline.vec",
                     "--manifest", str(manifest), "--scope", "golden"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: manifest validation failed: q1: {manifest}:2: "
            "bad cell '0:1:2', expected row:column\n"
        )


class TestTrainReport:
    def test_mlp_tasks_report_final_epoch_loss(self, cli_workspace, fixtures_dir,
                                               tmp_path, capsys):
        out = tmp_path / "c.model"
        assert main(["train", "--task", "column-type",
                     "--workspace", str(cli_workspace),
                     "--labels", f"{fixtures_dir}/column_labels.txt",
                     "--epochs", "3", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"trained column-type model -> {out}, final epoch loss ")
        float(line.rsplit(" ", 1)[1])

    def test_zero_epochs_report_no_loss(self, cli_workspace, fixtures_dir,
                                        tmp_path, capsys):
        out = tmp_path / "c.model"
        assert main(["train", "--task", "column-type",
                     "--workspace", str(cli_workspace),
                     "--labels", f"{fixtures_dir}/column_labels.txt",
                     "--epochs", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == (
            f"trained column-type model -> {out}")


class TestTrainingInputErrors:
    def test_malformed_labels_line_is_error(self, cli_workspace, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("state-capitals\tx\tentity\n")
        code = main(["train", "--task", "column-type",
                     "--workspace", str(cli_workspace), "--labels", str(labels),
                     "--out", str(tmp_path / "c.model")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {labels}:1: ")

    def test_kinds_naming_no_table_is_error(self, fixtures_dir, tmp_path, capsys):
        kinds = tmp_path / "kinds.txt"
        kinds.write_text("nosuchtable\tentity-instance\n")
        code = main(["train", "--task", "table-type",
                     "--workspace", str(tmp_path / "ws"),
                     "--tables", f"{fixtures_dir}/tables", "--kinds", str(kinds)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {kinds}: ")


class TestEmbeddingErrors:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_component_is_error(self, cli_workspace, fixtures_dir,
                                           tmp_path, capsys, value):
        fx = str(fixtures_dir)
        lines = (fixtures_dir / "pipeline.vec").read_text().splitlines(keepends=True)
        token, first, *rest = lines[2].split(" ")
        vec = tmp_path / "corrupt.vec"
        vec.write_text("".join(lines[:2] + [" ".join([token, value, *rest])]
                               + lines[3:]))
        code = main(["ask", "Who is the husband of Whoopi Goldberg?",
                     "--workspace", str(cli_workspace),
                     "--embeddings", str(vec),
                     "--manifest", f"{fx}/manifest.txt",
                     "--scope", "golden"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {vec}:3: ")


def _corrupted_table_type(text, how):
    lines = text.splitlines(keepends=True)
    if how == "truncated":
        return "".join(lines[:2])
    if how == "bias-nan":
        return "".join(lines[:4] + ["array bias 1 nan\n"] + lines[5:])
    if how == "missing-array":
        return "".join(lines[:1] + lines[2:])
    if how == "scale-zero":
        return "".join(lines[:3] + [_with_value(lines[3], "0.0")] + lines[4:])
    assert how == "v1"
    return "".join(["tableqa-tabletype v1\n"] + lines[1:])


class TestTableTypeModelErrors:
    # a zero scale entry would make every logit nan and label every table
    # entity-instance
    @pytest.mark.parametrize("how, line", [("truncated", 2), ("bias-nan", 5),
                                           ("missing-array", 5), ("v1", 1),
                                           ("scale-zero", 4)])
    def test_corrupt_model_is_error_not_traceback(self, cli_workspace,
                                                  fixtures_dir, tmp_path,
                                                  capsys, how, line):
        model = tmp_path / "table-type.model"
        saved = (cli_workspace / "models" / "table-type.model").read_text()
        model.write_text(_corrupted_table_type(saved, how))
        code = main(["ingest", "--tables", f"{fixtures_dir}/tables",
                     "--table-type-model", str(model),
                     "--workspace", str(tmp_path / "ws")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {model}:{line}: ")

    def test_v1_file_is_named_as_not_v2(self, cli_workspace, fixtures_dir,
                                        tmp_path, capsys):
        model = tmp_path / "models" / "table-type.model"
        model.parent.mkdir()
        saved = (cli_workspace / "models" / "table-type.model").read_text()
        model.write_text(_corrupted_table_type(saved, "v1"))
        assert main(["eval", "--task", "table-type", "--workspace", str(tmp_path),
              "--tables", f"{fixtures_dir}/tables",
              "--kinds", f"{fixtures_dir}/table_types.txt"]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}:1: not a tableqa-tabletype v2 model file\n")


class TestIngestErrors:
    def test_kinds_leaving_out_a_table_is_error(self, fixtures_dir, tmp_path,
                                                capsys):
        kinds = tmp_path / "kinds.txt"
        head = (fixtures_dir / "table_types.txt").read_text().splitlines()[:3]
        kinds.write_text("\n".join(head) + "\n")
        code = main(["ingest", "--tables", f"{fixtures_dir}/tables",
                     "--kinds", str(kinds), "--workspace", str(tmp_path / "ws")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no kind label or model for table 'albert-einstein'\n")

    def test_cell_over_csv_field_limit_is_error_naming_the_line(self, tmp_path,
                                                                 capsys):
        # the csv module refuses a field longer than 131,072 characters
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "long.csv").write_text("a,b\n1,2\nx," + "y" * 140_000 + "\n")
        kinds = tmp_path / "kinds.txt"
        kinds.write_text("long\tentity-instance\n")
        code = main(["ingest", "--tables", str(tables), "--kinds", str(kinds),
                     "--workspace", str(tmp_path / "ws")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tables / 'long.csv'}:3: field larger than field limit")


class TestColumnLabelEntries:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("line, message", [
        ("nosuchtable\t0\tText",
         ": entry nosuchtable 0 text: no table 'nosuchtable' in the workspace"),
        ("state-capitals\t9\tText",
         ": entry state-capitals 9 text: table 'state-capitals' has 3 columns"),
        ("state-capitals\t3\tText",
         ": entry state-capitals 3 text: table 'state-capitals' has 3 columns"),
        ("state-capitals\t-1\tText", ":1: negative column index -1"),
    ])
    def test_entry_outside_workspace_is_error(self, cli_workspace, tmp_path,
                                              capsys, command, line, message):
        labels = tmp_path / "labels.txt"
        labels.write_text(line + "\n")
        args = [command, "--task", "column-type",
                "--workspace", str(cli_workspace), "--labels", str(labels)]
        if command == "train":
            args += ["--out", str(tmp_path / "c.model")]
        code = main(args)
        assert code == 1
        assert capsys.readouterr().err == f"error: {labels}{message}\n"


class TestTrainReadsOnlyNamedTables:
    """`train --task column-type` reads the tables its labels name, and
    `train --task select|where` the tables the manifest names."""

    @staticmethod
    def _train(ws, fx, task, out):
        inputs = (["--labels", f"{fx}/column_labels.txt"] if task == "column-type"
                  else ["--manifest", f"{fx}/manifest.txt",
                        "--embeddings", f"{fx}/pipeline.vec"])
        return main(["train", "--task", task, "--workspace", str(ws),
                     "--seed", "7", "--epochs", "3", "--out", str(out)] + inputs)

    @pytest.mark.parametrize("task", ["column-type", "select", "where"])
    def test_unnamed_table_leaves_the_model_unchanged(self, cli_workspace,
                                                      fixtures_dir, tmp_path,
                                                      task):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        assert self._train(ws, fixtures_dir, task, tmp_path / "clean.model") == 0
        extra = ws / "tables" / "zz-unnamed.csv"
        models = {}
        for how, text in (("well-formed", "a,b\n1,2\n"),
                          ("malformed", "a,b\nonly one cell\n")):
            extra.write_text(text)
            models[how] = tmp_path / f"{how}.model"
            assert self._train(ws, fixtures_dir, task, models[how]) == 0
        clean = (tmp_path / "clean.model").read_bytes()
        assert all(path.read_bytes() == clean for path in models.values())

    @pytest.mark.parametrize("task", ["select", "where"])
    @pytest.mark.parametrize("table_id", ["state-capitals", "../state-capitals"])
    def test_missing_manifest_table_is_unknown(self, cli_workspace, fixtures_dir,
                                               tmp_path, capsys, task, table_id):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        # the table sits one directory above tables/, where "../" would reach
        (ws / "tables" / "state-capitals.csv").rename(ws / "state-capitals.csv")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"q1\ttrain\t{table_id}\t-\t1:1\tCapital of Texas?\t"
            f"SELECT \"Capital\" FROM \"{table_id}\" WHERE \"State\" ~ 'texas'\n")
        code = main(["train", "--task", task, "--workspace", str(ws),
                     "--manifest", str(manifest),
                     "--embeddings", f"{fixtures_dir}/pipeline.vec",
                     "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: manifest validation failed: q1: {manifest}:1: "
            f"unknown table {table_id!r}\n")

    def test_labels_table_outside_the_tables_directory_is_unknown(
            self, cli_workspace, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        shutil.copy(ws / "tables" / "state-capitals.csv", ws / "outside.csv")
        labels = tmp_path / "labels.txt"
        labels.write_text("../outside\t0\tText\n")
        code = main(["train", "--task", "column-type", "--workspace", str(ws),
                     "--labels", str(labels), "--out", str(tmp_path / "c.model")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: entry ../outside 0 text: no table '../outside' "
            "in the workspace\n")

    @pytest.mark.parametrize("task", ["column-type", "select", "where"])
    def test_malformed_named_table_is_error(self, cli_workspace, fixtures_dir,
                                            tmp_path, capsys, task):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        table = ws / "tables" / "state-capitals.csv"
        table.write_text("State,Capital,Population\nTexas,Austin\n")
        code = self._train(ws, fixtures_dir, task, tmp_path / "m.model")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {table}:2: row has 2 cells, expected 3\n")
