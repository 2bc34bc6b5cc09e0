"""Command-line shell: ingest, train, retrieve, eval, ask, pipeline-eval.

A workspace directory accumulates the pipeline's artifacts:

    workspace/
      tables/           ingested (transposed) tables, one file per table
      table_kinds.txt   resolved table kinds from ingestion
      index.npz         the TF-IDF index over all of tables/
      models/           trained model files, one per task
      reports/          JSON copies of every eval / pipeline-eval report

Each of these files is written only when its bytes change, so an
unchanged file keeps its mtime. Ingest makes ``tables/`` mirror the
corpus: it also removes the table files no table of the corpus wrote.
Ingest also builds and saves the index (``retrieval.save_index``), and
only when it wrote or removed a table file or finds no index: writing or
removing one deletes the old index first, so an ingest cut short leaves
no stale index behind. ``retrieve``, ``ask``, ``eval --task retrieval``
and ``pipeline-eval`` load it (``retrieval.load_index``) instead of
building one, and read a workspace table only when they reach it.

Exit codes: 0 on success, 1 on validation, data or file errors, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from .clauses import SELECT_SPEC, WHERE_SPEC, parse_question
from .embed import load_embeddings
from .errors import NoTables, TableQAError, UntrainedModel
from .harness import (
    ModelBundle,
    RowMode,
    Scope,
    Split,
    TableDir,
    evaluate_retrieval,
    evaluate_select,
    evaluate_table_type,
    evaluate_where,
    ingest_corpus,
    load_corpus,
    load_manifest,
    load_table_kinds,
    parse_manifest,
    rank_sources,
    run_pipeline,
    split_index,
    sweep_pipeline,
    table_files,
    train_select_model,
    train_where_model,
    validate_manifest,
)
from .nn import TrainConfig, load_model, save_model, spec_line
from .query import print_query
from .retrieval import Similarity, build_index, load_index, save_index
from .tabular import (
    extract_table_type_features,
    load_table_type_model,
    save_table_type_model,
    train_table_type_model,
)
from .textproc import write_if_changed
from .typerec import (
    COLUMN_TYPE_SPEC,
    classify_column_type,
    extract_column_type_features,
    load_column_labels,
    train_column_type_model,
)

TASKS = ("table-type", "column-type", "select", "where")


def _workspace_tables(ws: Path) -> TableDir:
    """The workspace's tables, each read when first used."""
    tables_dir = ws / "tables"
    if not tables_dir.is_dir():
        raise TableQAError(f"workspace has no tables directory: {tables_dir}")
    return TableDir(tables_dir)


def _index_path(ws: Path) -> Path:
    return ws / "index.npz"


def _workspace_index(ws: Path, tables: TableDir):
    """The index ``ingest`` saved, checked against the tables' ids."""
    return load_index(_index_path(ws), tables)


def _model_path(ws: Path, task: str) -> Path:
    return ws / "models" / f"{task}.model"


# the network each MLP task's features and classes are shaped for
_SPECS = {"column-type": COLUMN_TYPE_SPEC, "select": SELECT_SPEC,
          "where": WHERE_SPEC}


def _load_task_model(ws: Path, task: str):
    """The workspace's ``task`` model; a model file of another shape, such
    as another task's, is an error naming its spec line."""
    path = _model_path(ws, task)
    model = load_model(path)
    if model.spec != _SPECS[task]:
        raise UntrainedModel(
            f"{path}:2: expected {spec_line(_SPECS[task])!r} for a {task}"
            f" model, got {spec_line(model.spec)!r}"
        )
    return model


def _load_bundle(ws: Path) -> ModelBundle:
    models = {task: _load_task_model(ws, task) for task in _SPECS
              if _model_path(ws, task).exists()}
    return ModelBundle(select_model=models.get("select"),
                       where_model=models.get("where"),
                       coltype_model=models.get("column-type"))


def _labeled_columns(ws: Path, labels_path):
    """(cells, type) per column-labels entry, each checked against the
    workspace's tables; only the tables the labels name are read."""
    labels = load_column_labels(labels_path)
    tables = _workspace_tables(ws)
    out = []
    for tid, idx, ctype in labels:
        entry = f"{labels_path}: entry {tid} {idx} {ctype.name.lower()}"
        if tid not in tables:
            raise TableQAError(f"{entry}: no table {tid!r} in the workspace")
        if idx >= tables[tid].n_columns:
            raise TableQAError(
                f"{entry}: table {tid!r} has {tables[tid].n_columns} columns"
            )
        out.append((tables[tid].column(idx), ctype))
    return out


def _table_text(table) -> str:
    """``table`` as CSV text: the header row, then the rows."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(table.headers)
    writer.writerows(table.rows)
    return out.getvalue()


def _split_entries(entries, split: str):
    if split == "all":
        return entries
    return [e for e in entries if e.split is Split(split)]


def _report(ws: Path, name: str, report: dict, fmt: str) -> None:
    """Write ``report`` as JSON to ``ws/reports/<name>.json`` and print it
    in ``fmt``."""
    text = json.dumps(report, indent=2, default=str) + "\n"
    reports = ws / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    write_if_changed(reports / f"{name}.json", text)
    if fmt == "json":
        sys.stdout.write(text)
    else:
        _emit_text(report, sys.stdout)


def _emit_text(report: dict, out, indent: int = 0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            _emit_text(value, out, indent + 1)
        elif isinstance(value, float):
            out.write(f"{pad}{key:<22s} {value:.4f}\n")
        elif isinstance(value, list):
            out.write(f"{pad}{key}:\n")
            for item in value:
                out.write(f"{pad}  {item}\n")
        else:
            out.write(f"{pad}{key:<22s} {value}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    raw = load_corpus(args.tables)
    kinds = load_table_kinds(args.kinds) if args.kinds else None
    model = load_table_type_model(args.table_type_model) \
        if args.table_type_model else None
    if kinds is None and model is None:
        raise TableQAError("ingest needs --kinds or --table-type-model")
    ingested = ingest_corpus(raw, kinds=kinds, table_type_model=model)
    if not ingested:
        raise NoTables(f"{args.tables}: no table files to ingest")

    ws = Path(args.workspace)
    tables_dir = ws / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    index_path = _index_path(ws)
    files = {f"{table.id}.csv": table for table in ingested.values()}
    for name, table in files.items():
        if write_if_changed(tables_dir / name, _table_text(table)):
            index_path.unlink(missing_ok=True)
    # tables/ mirrors the corpus: a table file left from an earlier ingest
    # would still be read by every later command
    stale = [name for name in table_files(tables_dir) if name not in files]
    for name in stale:
        index_path.unlink(missing_ok=True)
        os.remove(tables_dir / name)
    if not index_path.exists():
        # in the order later commands list tables/, which numbers the stems
        save_index(build_index([files[name] for name in sorted(files)]), index_path)
    write_if_changed(ws / "table_kinds.txt", "".join(
        f"{tid}\t{table.kind.value}\n" for tid, table in sorted(raw.items())))
    transposed = sum(1 for tid in raw if raw[tid].kind.value == "key-value")
    summary = f"ingested {len(ingested)} tables into {tables_dir} " \
        f"({transposed} transposed)"
    if stale:
        summary += f"; removed {len(stale)} stale table " \
            f"{'file' if len(stale) == 1 else 'files'}"
    print(summary)
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                       seed=args.seed, batch_size=args.batch_size)


def cmd_train(args) -> int:
    ws = Path(args.workspace)
    out = Path(args.out) if args.out else _model_path(ws, args.task)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.task == "table-type":
        if not (args.tables and args.kinds):
            raise TableQAError("train --task table-type needs --tables and --kinds")
        raw = load_corpus(args.tables)
        kinds = load_table_kinds(args.kinds)
        samples = [(extract_table_type_features(t), kinds[tid])
                   for tid, t in raw.items() if tid in kinds]
        if not samples:
            raise TableQAError(
                f"{args.kinds}: names no table under {args.tables}"
            )
        model = train_table_type_model(samples)
        save_table_type_model(model, out)
    elif args.task == "column-type":
        if not args.labels:
            raise TableQAError("train --task column-type needs --labels")
        samples = [(extract_column_type_features(cells), ctype)
                   for cells, ctype in _labeled_columns(ws, args.labels)]
        model = train_column_type_model(samples, _train_config(args))
        save_model(model, out)
    else:
        if not (args.manifest and args.embeddings):
            raise TableQAError(
                f"train --task {args.task} needs --manifest and --embeddings"
            )
        # every entry is validated, so the tables of all splits are read,
        # and no other table
        lines = parse_manifest(args.manifest)
        tables = _workspace_tables(ws)
        store = load_embeddings(args.embeddings)
        bundle = _load_bundle(ws)
        if bundle.coltype_model is None:
            raise TableQAError(
                "train the column-type model first (its distribution is a feature)"
            )
        entries = _split_entries(validate_manifest(lines, tables, store), "train")
        trainer = train_select_model if args.task == "select" else train_where_model
        model = trainer(entries, tables, store, bundle, _train_config(args))
        save_model(model, out)
    # the three MLP tasks report their last epoch loss; the table-type
    # logistic regression keeps no loss history
    history = getattr(model, "loss_history", None)
    loss = f", final epoch loss {history[-1]:.6g}" if history else ""
    print(f"trained {args.task} model -> {out}{loss}")
    return 0


def cmd_retrieve(args) -> int:
    ws = Path(args.workspace)
    index = _workspace_index(ws, _workspace_tables(ws))
    ranked = rank_sources(parse_question(args.question), index,
                          Similarity(args.sim), k=args.k)
    for rank, (tid, value) in enumerate(ranked, start=1):
        print(f"{rank:2d}. {tid:<28s} {value:.6f}")
    return 0


def cmd_eval(args) -> int:
    ws = Path(args.workspace)
    fmt = args.format
    if args.task == "table-type":
        if not (args.tables and args.kinds):
            raise TableQAError("eval --task table-type needs --tables and --kinds")
        raw = load_corpus(args.tables)
        kinds = load_table_kinds(args.kinds)
        model = load_table_type_model(_model_path(ws, "table-type"))
        accuracy, wrong = evaluate_table_type(raw, kinds, model)
        report = {"task": "table-type", "tables": len(raw),
                  "accuracy": accuracy, "misclassified": wrong}
        _report(ws, "table-type", report, fmt)
        return 0

    if args.task == "column-type":
        if not args.labels:
            raise TableQAError("eval --task column-type needs --labels")
        model = _load_task_model(ws, "column-type")
        held = _labeled_columns(ws, args.labels)[::4]
        if not held:
            raise TableQAError(f"{args.labels}: no labelled columns")
        hits = sum(
            classify_column_type(extract_column_type_features(cells), model)[0]
            is ctype
            for cells, ctype in held
        )
        report = {"task": "column-type", "held_out_columns": len(held),
                  "accuracy": hits / len(held)}
        _report(ws, "column-type", report, fmt)
        return 0

    if not (args.manifest and args.embeddings):
        raise TableQAError(f"eval --task {args.task} needs --manifest and --embeddings")
    tables = _workspace_tables(ws)
    store = load_embeddings(args.embeddings)
    entries = _split_entries(load_manifest(args.manifest, tables, store),
                             args.split)

    if args.task == "retrieval":
        report = evaluate_retrieval(entries, _workspace_index(ws, tables))
        payload = {
            sim.value: {
                "p_at_k": {f"p@{k}": v for k, v in data["p_at_k"].items()},
                **({"adjusted_p_at_k":
                    {f"p@{k}": v for k, v in data["adjusted_p_at_k"].items()}}
                   if data["adjusted_p_at_k"] else {}),
            }
            for sim, data in report.items()
        }
        report = {"task": "retrieval", "split": args.split,
                  "questions": len(entries), **payload}
        _report(ws, f"retrieval-{args.split}", report, fmt)
        return 0

    bundle = _load_bundle(ws)
    evaluator = evaluate_select if args.task == "select" else evaluate_where
    m = evaluator(entries, tables, store, bundle)
    report = {
        "task": args.task, "split": args.split, "questions": len(entries),
        "confusion": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
        "accuracy": m.accuracy, "precision": m.precision, "recall": m.recall,
    }
    _report(ws, f"{args.task}-{args.split}", report, fmt)
    return 0


class _AskSession:
    """Answers the questions of one `ask` run.

    Each retrieval index is made the first time a question needs it and
    kept for the rest of the session: the workspace's index over all
    tables is loaded, one split's index for the individual scope is built.
    """

    def __init__(self, ws, tables, entries, bundle, store, scope, row_mode,
                 similarity):
        self.ws, self.tables, self.entries = ws, tables, entries
        self.bundle, self.store = bundle, store
        self.scope, self.row_mode, self.similarity = scope, row_mode, similarity
        self.by_question = {}   # question text -> its manifest entries
        for e in entries:
            self.by_question.setdefault(e.question, []).append(e)
        self.indexes = {}   # None (all tables) or a Split -> TfIdfIndex

    def index(self, split):
        if split not in self.indexes:
            self.indexes[split] = _workspace_index(self.ws, self.tables) \
                if split is None else split_index(self.entries, self.tables, split)
        return self.indexes[split]

    def answer(self, question):
        tables, scope = self.tables, self.scope
        matches = self.by_question.get(question, [])
        if len(matches) > 1:
            qids = ", ".join(e.qid for e in matches)
            raise TableQAError(
                f"question matches manifest entries {qids}: {question!r}"
            )
        entry = matches[0] if matches else None
        golden = None
        index = None
        if scope is Scope.GOLDEN_TABLE:
            if entry is None:
                raise TableQAError(
                    "golden scope works only for manifest questions; use --scope all"
                )
            golden = tables[entry.table_id]
        elif scope is Scope.INDIVIDUAL_SET and entry is not None:
            index = self.index(entry.split)
        else:
            index = self.index(None)
        result = run_pipeline(question, tables, index, self.bundle, self.store,
                              row_mode=self.row_mode,
                              similarity=self.similarity, golden_table=golden)
        table = tables[result.table_id]
        print(f"table: {result.table_id}")
        print(f"query: {print_query(result.query)}")
        for r, c in sorted(result.cells):
            print(f"cell ({r},{c}) [{table.headers[c]}]: {table.rows[r][c]}")
        if entry is not None:
            flag = "match" if set(result.cells) == set(entry.gold_cells) \
                and result.table_id == entry.table_id else "differs from gold"
            print(f"gold: {flag}")


def cmd_ask(args) -> int:
    ws = Path(args.workspace)
    tables = _workspace_tables(ws)
    store = load_embeddings(args.embeddings)
    entries = load_manifest(args.manifest, tables, store) if args.manifest else []
    session = _AskSession(ws, tables, entries, _load_bundle(ws), store,
                          Scope(args.scope), RowMode(args.row_mode),
                          Similarity(args.sim))

    if args.question:
        session.answer(args.question)
    if args.repl:
        print("enter questions, one per line (blank line or EOF to quit)")
        for line in sys.stdin:
            question = line.strip()
            if not question:
                break
            try:
                session.answer(question)
            except TableQAError as exc:
                print(f"error: {exc}", file=sys.stderr)
    elif not args.question:
        raise TableQAError("ask needs a question argument or --repl")
    return 0


def cmd_pipeline_eval(args) -> int:
    ws = Path(args.workspace)
    tables = _workspace_tables(ws)
    store = load_embeddings(args.embeddings)
    entries = _split_entries(load_manifest(args.manifest, tables, store),
                             args.split)
    bundle = _load_bundle(ws)
    grid = sweep_pipeline(entries, tables, _workspace_index(ws, tables), bundle,
                          store)
    payload = {}
    for scope in Scope:
        payload[scope.value] = {}
        for mode in RowMode:
            cell = grid[(scope, mode)]
            p, r, f1 = cell.macro
            payload[scope.value][mode.value] = {
                "precision": p, "recall": r, "f1": f1,
                "failed_questions": [f"{o.qid}: {o.error}"
                                     for o in cell.failures],
            }
    report = {"split": args.split, "questions": len(entries), **payload}
    _report(ws, f"pipeline-{args.split}", report, args.format)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {value}")
    return value


def _ingest_arguments(p):
    p.add_argument("--tables", required=True, help="directory of raw table files")
    p.add_argument("--workspace", required=True)
    p.add_argument("--kinds", help="table kind labels file")
    p.add_argument("--table-type-model", help="trained table-type model file")


def _train_arguments(p):
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--workspace", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--epochs", type=_non_negative_int, default=300)
    p.add_argument("--lr", type=_positive_float, default=0.01)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--out", help="model file (default workspace/models/<task>.model)")
    p.add_argument("--tables", help="raw tables dir (table-type task)")
    p.add_argument("--kinds", help="table kind labels (table-type task)")
    p.add_argument("--labels", help="column labels file (column-type task)")
    p.add_argument("--manifest", help="manifest file (select/where tasks)")
    p.add_argument("--embeddings", help="embedding file (select/where tasks)")


def _retrieve_arguments(p):
    p.add_argument("--workspace", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--sim", default="inveuclidean",
                   choices=[s.value for s in Similarity])
    p.add_argument("--k", type=_positive_int, default=5)


def _eval_arguments(p):
    p.add_argument("--task", required=True,
                   choices=TASKS + ("retrieval",))
    p.add_argument("--workspace", required=True)
    p.add_argument("--split", default="all",
                   choices=("train", "dev", "test", "all"))
    p.add_argument("--tables", help="raw tables dir (table-type task)")
    p.add_argument("--kinds", help="table kind labels (table-type task)")
    p.add_argument("--labels", help="column labels file (column-type task)")
    p.add_argument("--manifest")
    p.add_argument("--embeddings")
    p.add_argument("--format", default="text", choices=("text", "json"))


def _ask_arguments(p):
    p.add_argument("question", nargs="?", help="natural-language question")
    p.add_argument("--workspace", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--manifest", help="needed for golden/individual scopes")
    p.add_argument("--scope", default="all",
                   choices=[s.value for s in Scope])
    p.add_argument("--row-mode", default="wordmatch",
                   choices=[m.value for m in RowMode])
    p.add_argument("--sim", default="inveuclidean",
                   choices=[s.value for s in Similarity],
                   help="retrieval similarity for non-golden scopes")
    p.add_argument("--repl", action="store_true",
                   help="keep a read-eval loop open on stdin")


def _pipeline_eval_arguments(p):
    p.add_argument("--workspace", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", default="all",
                   choices=("train", "dev", "test", "all"))
    p.add_argument("--format", default="text", choices=("text", "json"))


# name -> (help, argument adder, handler), in the order `tableqa --help` lists
COMMANDS = {
    "ingest": ("validate and transpose raw tables", _ingest_arguments, cmd_ingest),
    "train": ("fit one model", _train_arguments, cmd_train),
    "retrieve": ("rank tables for a question", _retrieve_arguments, cmd_retrieve),
    "eval": ("report metrics for one task", _eval_arguments, cmd_eval),
    "ask": ("answer one question", _ask_arguments, cmd_ask),
    "pipeline-eval": ("sweep table scopes x row-selection modes",
                      _pipeline_eval_arguments, cmd_pipeline_eval),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `tableqa` parser: every subcommand, or only ``command``.

    A parser of one subcommand parses that command's arguments, and words
    its help and errors, as the full parser does.
    """
    parser = argparse.ArgumentParser(
        prog="tableqa",
        description="question answering over web-extracted tables",
    )
    # the full parser's choice list, so usage lines read the same either way
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except (TableQAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
