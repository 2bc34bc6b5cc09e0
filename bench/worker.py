"""Runs one benchmark workload in this process and prints its results.

Started by ``bench/run.py``, which prepares the work directory (and the
synthetic corpus for ``qa-large``) and relays the output. Every call into
the program goes through its public API in this process: the CLI through
``tableqa.cli.main`` with argv lists, the library through
``tableqa.harness``. That keeps one process to measure for peak memory and
lets the traced run wrap the program's functions (see ``spans.py``).

Prints ``fingerprint {...}`` and ``samples {...}`` lines, then one JSON
line: ``{"correct", "attempted", "failed", "metrics", "checks"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import NamedTuple
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tableqa  # noqa: E402
# Call the program through module attributes only, so the traced run's
# wrappers (installed on those attributes) see every call.
from tableqa import cli, harness, nn, retrieval  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

TRAIN_SEED = "7"
TASKS = ("table-type", "column-type", "select", "where")
MIN_QUESTIONS = 200          # p95 needs at least ten samples beyond it
QA_SETUPS = 3                # library set-ups per qa-large run (median reported)
TRAIN_ROUNDS = 4             # train-eval rounds at least (medians reported)
INGESTS_PER_STEP = 5         # train-eval ingests per sampling point
LARGE_RANKED_QS = 10         # qa-large questions whose top-5 ranking is printed
TRACED_LARGE_QS = 50         # qa-large questions asked in the traced run
SWEEP_THREADS = 4            # sweep_pipeline's default pool size
GOLDEN_PASSES = 2            # train-eval asks the manifest this often per sampling point

_CELL_LINE = re.compile(r"^cell \((\d+),(\d+)\) \[(.*?)\]: (.*)$")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

class Entry(NamedTuple):
    qid: str
    split: str
    table_id: str
    gold: frozenset
    question: str


class Corpus:
    """Paths of one corpus plus its manifest, parsed here independently."""

    def __init__(self, root: Path, tables: str, kinds: str, labels: str,
                 manifest: str, embeddings: str):
        self.tables = root / tables
        self.kinds = root / kinds
        self.labels = root / labels
        self.manifest = root / manifest
        self.embeddings = root / embeddings
        self.entries: list[Entry] = []
        with open(self.manifest, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip() or line.startswith("#"):
                    continue
                qid, split, tid, _, cells, question, _ = line.rstrip("\n").split("\t")
                gold = frozenset(tuple(int(x) for x in pair.split(":"))
                                 for pair in cells.split(","))
                self.entries.append(Entry(qid, split, tid, gold, question))


def fixture_corpus() -> Corpus:
    return Corpus(ROOT / "fixtures", "tables", "table_types.txt",
                  "column_labels.txt", "manifest.txt", "pipeline.vec")


def large_corpus(work: Path) -> Corpus:
    return Corpus(work / "corpus", "tables", "table_kinds.txt",
                  "column_labels.txt", "manifest.txt", "corpus.vec")


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def problem(self, text: str):
        self.problems.append(text)

    def cli(self, argv: list[str], phase: str) -> float:
        """One CLI command in-process; returns its wall time in seconds."""
        self.phase(phase)
        err = io.StringIO()
        self.attempted += 1
        start = perf_counter()
        code = call_main(argv, io.StringIO(), err)
        seconds = perf_counter() - start
        self.phase("idle")
        self.check_exit(argv, code, err)
        return seconds

    def check_exit(self, argv: list[str], code, err: io.StringIO):
        if code != 0:
            self.failed += 1
            self.problem(f"{argv[0]} exited {code!r}: {err.getvalue().strip()[:300]}")


def call_main(argv: list[str], out: io.StringIO, err: io.StringIO):
    """``tableqa.cli.main`` with captured output; returns the exit code."""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)
    except SystemExit as exc:   # argparse usage errors
        return exc.code
    except Exception:  # a traceback is a failed command, not a crash
        return "traceback: " + traceback.format_exc(limit=3)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The CLI research loop: ingest, train x4, pipeline-eval
# ---------------------------------------------------------------------------

def ingest(run: Run, corpus: Corpus, ws: Path) -> float:
    return run.cli(["ingest", "--tables", str(corpus.tables), "--kinds",
                    str(corpus.kinds), "--workspace", str(ws)], "ingest")


def train_all(run: Run, corpus: Corpus, ws: Path) -> tuple[float, dict]:
    """The four train commands in dependency order; (seconds, model sha256s)."""
    per_task = {
        "table-type": ["--tables", str(corpus.tables), "--kinds", str(corpus.kinds)],
        "column-type": ["--labels", str(corpus.labels)],
        "select": ["--manifest", str(corpus.manifest), "--embeddings", str(corpus.embeddings)],
        "where": ["--manifest", str(corpus.manifest), "--embeddings", str(corpus.embeddings)],
    }
    total = 0.0
    for task in TASKS:
        total += run.cli(["train", "--task", task, "--workspace", str(ws),
                          "--seed", TRAIN_SEED] + per_task[task], f"train:{task}")
    shas = {}
    for task in TASKS:
        path = ws / "models" / f"{task}.model"
        shas[task] = sha256(path) if path.exists() else "missing"
    return total, shas


def pipeline_eval(run: Run, corpus: Corpus, ws: Path, split: str) -> tuple[float, dict]:
    seconds = run.cli(["pipeline-eval", "--workspace", str(ws), "--manifest",
                       str(corpus.manifest), "--embeddings", str(corpus.embeddings),
                       "--split", split, "--format", "json"], "eval")
    path = ws / "reports" / f"pipeline-{split}.json"
    report = json.loads(path.read_text("utf-8")) if path.exists() else {}
    cells = [report.get(scope, {}).get(mode)
             for scope in ("golden", "individual", "all")
             for mode in ("wordmatch", "embedding")]
    if any(c is None for c in cells):
        run.problem(f"pipeline-eval report lacks grid cells: {path}")
    for c in cells:
        if c is None:
            continue
        if not all(0.0 <= c[k] <= 1.0 for k in ("precision", "recall", "f1")):
            run.problem(f"pipeline-eval metric outside [0, 1]: {c}")
        if c["failed_questions"]:
            run.failed += len(c["failed_questions"])
            run.problem(f"pipeline stage errors: {c['failed_questions'][:3]}")
    n = sum(1 for e in corpus.entries if split in ("all", e.split))
    if report.get("questions") != n:
        run.problem(f"pipeline-eval saw {report.get('questions')} questions, expected {n}")
    run.attempted += 6 * n
    return seconds, report


def research_loop(run: Run, corpus: Corpus, ws: Path, split: str) -> dict:
    ingest(run, corpus, ws)
    train_s, shas = train_all(run, corpus, ws)
    eval_s, report = pipeline_eval(run, corpus, ws, split)
    return {"train_s": train_s, "eval_s": eval_s, "shas": shas, "report": report}


# ---------------------------------------------------------------------------
# Answer checks shared by the REPL and library paths
# ---------------------------------------------------------------------------

class Answers:
    """Per-question answers, checked against the tables and the gold."""

    def __init__(self, run: Run, tables: dict):
        self.run = run
        self.tables = tables
        self.first: dict[str, tuple] = {}    # qid -> (table_id, cells)

    def record(self, entry: Entry, table_id: str, cells: frozenset):
        qid = entry.qid
        answer = (table_id, tuple(sorted(cells)))
        if qid in self.first:
            if self.first[qid] != answer:
                self.run.problem(f"{qid}: answer changed between repeats")
            return
        self.first[qid] = answer

    def check_cells(self, table_id: str, cells) -> bool:
        table = self.tables.get(table_id)
        if table is None:
            self.run.problem(f"answer from unknown table {table_id!r}")
            return False
        for r, c in cells:
            if not (0 <= r < table.n_rows and 0 <= c < table.n_columns):
                self.run.problem(f"cell ({r},{c}) outside {table_id}")
                return False
        return True

    def scores(self, entries: list[Entry]) -> tuple[float, float]:
        """(macro cell F1, share answered from the gold table) over entries;
        a question without an answer (it failed) scores zero."""
        f1s, hits = [], 0
        for e in entries:
            tid, cells = self.first.get(e.qid, (None, ()))
            hits += tid == e.table_id
            f1s.append(_cell_f1(set(cells), set(e.gold)) if tid == e.table_id else 0.0)
        return statistics.fmean(f1s), hits / len(entries)


def _cell_f1(predicted: set, gold: set) -> float:
    overlap = len(predicted & gold)
    if not overlap:
        return 0.0
    p, r = overlap / len(predicted), overlap / len(gold)
    return 2 * p * r / (p + r)


# ---------------------------------------------------------------------------
# The REPL: `tableqa ask --repl` with per-question timing at stdin reads
# ---------------------------------------------------------------------------

class TimedStdin:
    """Feeds questions to the REPL and timestamps every read.

    Question k's latency is the time between read k and read k+1; its
    output is what the REPL wrote in between.
    """

    def __init__(self, questions, out: io.StringIO, err: io.StringIO, on_first):
        self.questions = questions
        self.out, self.err = out, err
        self.on_first = on_first
        self.times: list[float] = []
        self.out_marks: list[int] = []
        self.err_marks: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = perf_counter()
        if not self.times:
            self.on_first()
        self.times.append(now)
        self.out_marks.append(self.out.tell())
        self.err_marks.append(self.err.tell())
        k = len(self.times) - 1
        # a blank line ends the REPL after the last question
        return self.questions[k] + "\n" if k < len(self.questions) else "\n"


def repl_session(run: Run, corpus: Corpus, ws: Path, entries, scope: str,
                 answers: Answers, traced: bool = False):
    """One `ask --repl` session; returns (setup seconds, per-question seconds)."""
    argv = ["ask", "--repl", "--workspace", str(ws), "--embeddings",
            str(corpus.embeddings), "--manifest", str(corpus.manifest),
            "--scope", scope]
    out, err = io.StringIO(), io.StringIO()
    stdin = TimedStdin([e.question for e in entries], out, err,
                       lambda: run.phase("ask") if traced else None)
    run.phase("setup" if traced else "idle")
    saved = sys.stdin
    start = perf_counter()
    sys.stdin = stdin
    try:
        code = call_main(argv, out, err)
    finally:
        sys.stdin = saved
    end = perf_counter()
    run.phase("idle")
    run.attempted += 1 + len(entries)
    run.check_exit(argv, code, err)
    times = stdin.times + [end] * (len(entries) + 2 - len(stdin.times))
    text, errors = out.getvalue(), err.getvalue()
    latencies = []
    for k, entry in enumerate(entries):
        latencies.append(times[k + 1] - times[k])
        block = text[stdin.out_marks[k]:stdin.out_marks[k + 1]] \
            if k + 1 < len(stdin.out_marks) else ""
        err_block = errors[stdin.err_marks[k]:stdin.err_marks[k + 1]] \
            if k + 1 < len(stdin.err_marks) else "missing"
        if "error:" in err_block or not block:
            run.failed += 1
            run.problem(f"{entry.qid}: {err_block.strip()[:200] or 'no answer'}")
            continue
        _parse_answer(run, entry, block, answers)
    return times[0] - start, latencies


def _parse_answer(run: Run, entry: Entry, block: str, answers: Answers):
    table_id, cells, flag = None, [], None
    for line in block.splitlines():
        if line.startswith("table: "):
            table_id = line[len("table: "):]
        elif line.startswith("gold: "):
            flag = line[len("gold: "):]
        elif line.startswith("cell "):
            m = _CELL_LINE.match(line)
            if m is None:
                run.problem(f"{entry.qid}: unparsable line {line!r}")
                continue
            r, c, header, value = int(m[1]), int(m[2]), m[3], m[4]
            cells.append((r, c))
            table = answers.tables.get(table_id)
            if table is not None and answers.check_cells(table_id, [(r, c)]) and (
                    table.headers[c] != header or table.rows[r][c] != value):
                run.problem(f"{entry.qid}: printed cell ({r},{c}) differs from the table")
    if table_id is None or flag is None or not answers.check_cells(table_id, cells):
        run.problem(f"{entry.qid}: incomplete answer block")
        return
    match = table_id == entry.table_id and set(cells) == set(entry.gold)
    if (flag == "match") != match:
        run.problem(f"{entry.qid}: REPL says {flag!r}, gold comparison says {match}")
    answers.record(entry, table_id, frozenset(cells))


# ---------------------------------------------------------------------------
# The library path used by qa-large
# ---------------------------------------------------------------------------

def library_setup(run: Run, corpus: Corpus, ws: Path, traced: bool = False):
    """Ingest, embeddings, models, manifest validation, index; (seconds, state)."""
    run.phase("setup" if traced else "idle")
    start = perf_counter()
    raw = harness.load_corpus(corpus.tables)
    tables = harness.ingest_corpus(raw, kinds=harness.load_table_kinds(corpus.kinds))
    store = tableqa.load_embeddings(corpus.embeddings)
    models = ws / "models"
    bundle = harness.ModelBundle(
        select_model=nn.load_model(models / "select.model"),
        where_model=nn.load_model(models / "where.model"),
        coltype_model=nn.load_model(models / "column-type.model"),
    )
    entries = harness.load_manifest(corpus.manifest, tables, store)
    index = retrieval.build_index(list(tables.values()))
    seconds = perf_counter() - start
    run.phase("idle")
    run.attempted += 1
    if len(entries) != len(corpus.entries):
        run.problem(f"load_manifest kept {len(entries)} of {len(corpus.entries)} entries")
    return seconds, (tables, store, bundle, index)


def library_ask(run: Run, state, entry: Entry, answers: Answers) -> float:
    tables, store, bundle, index = state
    run.attempted += 1
    start = perf_counter()
    try:
        result = harness.run_pipeline(entry.question, tables, index, bundle, store,
                                      question_id=entry.qid)
    except harness.PipelineStageError as exc:
        seconds = perf_counter() - start
        run.failed += 1
        run.problem(f"{entry.qid}: {exc}")
        return seconds
    seconds = perf_counter() - start
    if answers.check_cells(result.table_id, result.cells):
        answers.record(entry, result.table_id, result.cells)
    return seconds


def top5(index, entries: list[Entry]) -> list:
    """Top-5 table ids per question under the pipeline's default similarity."""
    sim = retrieval.Similarity.INV_EUCLIDEAN
    return [[tid for tid, _ in retrieval.score(index, e.question, sim)[:5]]
            for e in entries]


def check_top1(run: Run, answers: Answers, entries: list[Entry], rankings):
    for e, ranked in zip(entries, rankings):
        got = answers.first.get(e.qid)
        if got is not None and got[0] != ranked[0]:
            run.problem(f"{e.qid}: answered from {got[0]}, retrieval ranks {ranked[0]} first")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def seeded_order(entries, seed: int) -> list:
    order = list(entries)
    random.Random(seed).shuffle(order)
    return order


def workspace_tables(ws: Path) -> dict:
    return harness.load_corpus(ws / "tables")


def compare_models(run: Run, first: dict, again: dict):
    """Same-seed training must give byte-identical model files."""
    run.attempted += len(again)
    for task, sha in again.items():
        if sha != first[task]:
            run.failed += 1
            run.problem(f"{task} model sha256 differs between same-seed runs")


def qa_fixture(run: Run, args, work: Path) -> dict:
    """`ask --repl` sessions on the fixture workspace, default options."""
    corpus = fixture_corpus()
    ws = work / "ws"
    loops = [research_loop(run, corpus, ws, "all")]
    answers = Answers(run, workspace_tables(ws))
    order = seeded_order(corpus.entries, args.seed)
    if args.trace:
        untraced = repl_session(run, corpus, ws, order, "all", answers)
        run.tracer.install()
        traced = repl_session(run, corpus, ws, order, "all", answers, traced=True)
        run.tracer.uninstall()
        return {"traced": traced, "untraced": untraced, "questions": len(order)}
    # A second research loop, between two halves of the sessions, so that
    # train_s and eval_s are not one sample each and every metric's samples
    # span the run: the machine's speed changes in spells of seconds.
    setups, latencies = [], []
    for half in (1, 2):
        start = perf_counter()
        while (len(setups) < 2 * half or len(latencies) < MIN_QUESTIONS * half / 2
               or perf_counter() - start < args.seconds / 2):
            setup, lat = repl_session(run, corpus, ws, order, "all", answers)
            setups.append(setup)
            latencies.extend(lat)
        if half == 1:
            loops.append(research_loop(run, corpus, ws, "all"))
    compare_models(run, loops[0]["shas"], loops[1]["shas"])
    rankings = top5(retrieval.build_index(list(answers.tables.values())), order)
    check_top1(run, answers, order, rankings)
    f1, p_at_1 = answers.scores(order)
    return {
        "setup_s": statistics.median(setups), "latencies": latencies,
        "train_s": statistics.median(lp["train_s"] for lp in loops),
        "eval_s": statistics.median(lp["eval_s"] for lp in loops),
        "answer_f1": f1, "retrieval_p_at_1": p_at_1,
        "fingerprint": {"models": loops[0]["shas"], "top5": digest(rankings),
                        "answers": digest([answers.first.get(e.qid) for e in order]),
                        "sweep": digest(loops[0]["report"])},
    }


def qa_large(run: Run, args, work: Path) -> dict:
    """The library path (index built once) on the synthetic corpus."""
    corpus = large_corpus(work)
    ws = work / "ws"
    loops = [research_loop(run, corpus, ws, "test")]
    order = corpus.entries   # the generator wrote the manifest in seed order
    if args.trace:
        asked = order[:TRACED_LARGE_QS]
        setup_u, state = library_setup(run, corpus, ws)
        answers = Answers(run, state[0])
        lat_u = [library_ask(run, state, e, answers) for e in asked]
        run.tracer.install()
        # free the first set-up before building the second
        state = answers.tables = None
        setup_t, state = library_setup(run, corpus, ws, traced=True)
        answers.tables = state[0]
        run.phase("ask")
        lat_t = [library_ask(run, state, e, answers) for e in asked]
        run.phase("idle")
        run.tracer.uninstall()
        return {"traced": (setup_t, lat_t), "untraced": (setup_u, lat_u),
                "questions": len(asked)}
    # Set-ups alternate with spells of questions, so that one slow spell of
    # the machine cannot hold all set-up samples. At least one pass over the
    # manifest, so the quality figures are over the same questions in every
    # run.
    answers = Answers(run, {})
    setups, latencies, state = [], [], None
    for k in range(1, QA_SETUPS + 1):
        # free the previous set-up first, so peak_rss_mb counts one copy
        state = answers.tables = None
        seconds, state = library_setup(run, corpus, ws)
        setups.append(seconds)
        answers.tables = state[0]
        start = perf_counter()
        while (len(latencies) < max(MIN_QUESTIONS, len(order)) * k / QA_SETUPS
               or perf_counter() - start < args.seconds / QA_SETUPS):
            entry = order[len(latencies) % len(order)]
            latencies.append(library_ask(run, state, entry, answers))
    ranked = order[:LARGE_RANKED_QS]
    rankings = top5(state[3], ranked)
    check_top1(run, answers, ranked, rankings)
    f1, p_at_1 = answers.scores(order)
    state = answers.tables = None
    # a second research loop, so train_s and eval_s are not one sample each
    loops.append(research_loop(run, corpus, ws, "test"))
    compare_models(run, loops[0]["shas"], loops[1]["shas"])
    return {
        "setup_s": statistics.median(setups), "latencies": latencies,
        "train_s": statistics.median(lp["train_s"] for lp in loops),
        "eval_s": statistics.median(lp["eval_s"] for lp in loops),
        "answer_f1": f1, "retrieval_p_at_1": p_at_1,
        "fingerprint": {"models": loops[0]["shas"], "top5": digest(rankings),
                        "answers": digest([answers.first.get(e.qid) for e in order]),
                        "sweep": digest(loops[0]["report"])},
    }


def train_eval(run: Run, args, work: Path) -> dict:
    """ingest, then train x4, pipeline-eval and `ask --scope golden`, repeated."""
    corpus = fixture_corpus()
    order = seeded_order(corpus.entries, args.seed)
    if args.trace:
        ws = work / "ws"
        run.tracer.install()
        research_loop(run, corpus, ws, "all")
        run.tracer.uninstall()
        answers = Answers(run, workspace_tables(ws))
        untraced = repl_session(run, corpus, ws, order, "golden", answers)
        run.tracer.install()
        traced = repl_session(run, corpus, ws, order, "golden", answers, traced=True)
        run.tracer.uninstall()
        return {"traced": traced, "untraced": untraced, "questions": len(order)}
    ws = work / "ws"
    setups = [ingest(run, corpus, ws)]
    answers = Answers(run, workspace_tables(ws))
    loops, latencies = [], []

    def sample():
        # Set-up and question samples are taken twice a round, so that one
        # slow spell of the machine cannot hold them all. The ingests
        # re-ingest the workspace, as a repeated research loop does:
        # creating files is kernel work whose cost swung up to 4x between
        # minutes on a shared 2-vCPU VM, rewriting them is mostly the
        # program's own work.
        setups.extend(ingest(run, corpus, ws) for _ in range(INGESTS_PER_STEP))
        _, lat = repl_session(run, corpus, ws, order * GOLDEN_PASSES, "golden", answers)
        latencies.extend(lat)

    start = perf_counter()
    while len(loops) < TRAIN_ROUNDS or perf_counter() - start < args.seconds:
        train_s, shas = train_all(run, corpus, ws)
        sample()
        eval_s, report = pipeline_eval(run, corpus, ws, "all")
        sample()
        loops.append({"train_s": train_s, "eval_s": eval_s, "shas": shas,
                      "report": report})
        if len(loops) > 1:
            compare_models(run, loops[0]["shas"], shas)
    _, p_at_1 = answers.scores(order)
    return {
        "setup_s": statistics.median(setups), "latencies": latencies,
        "train_s": statistics.median(lp["train_s"] for lp in loops),
        "eval_s": statistics.median(lp["eval_s"] for lp in loops),
        "answer_f1": loops[0]["report"]["golden"]["wordmatch"]["f1"],
        "retrieval_p_at_1": p_at_1,
        "fingerprint": {"models": loops[0]["shas"], "sweep": digest(loops[0]["report"]),
                        "answers": digest([answers.first.get(e.qid) for e in order])},
    }


WORKLOADS = {"qa-fixture": qa_fixture, "qa-large": qa_large, "train-eval": train_eval}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(result: dict) -> dict:
    lat_ms = [s * 1000.0 for s in result["latencies"]]
    return {
        "setup_s": (result["setup_s"], "s"),
        "ask_p50_ms": (statistics.median(lat_ms), "ms"),
        "ask_p95_ms": (statistics.quantiles(lat_ms, n=20)[18], "ms"),
        "train_s": (result["train_s"], "s"),
        "eval_s": (result["eval_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "answer_f1": (result["answer_f1"], "f1"),
        "retrieval_p_at_1": (result["retrieval_p_at_1"], "ratio"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# (metric, statistic, function key), per question in the ask phase
_PER_Q = [
    ("retrieval.build_index.calls_per_q", "calls", "retrieval.build_index"),
    ("retrieval.build_index.self_ms_per_q", "self", "retrieval.build_index"),
    ("retrieval.build_index.total_ms_per_q", "total", "retrieval.build_index"),
    ("retrieval.score.self_ms_per_q", "self", "retrieval.score"),
    ("textproc.tokenize.calls_per_q", "calls", "textproc.tokenize"),
    ("textproc.tokenize.self_ms_per_q", "self", "textproc.tokenize"),
    ("textproc.porter_stem.calls_per_q", "calls", "textproc.porter_stem"),
    ("textproc.edit_distance.calls_per_q", "calls", "textproc.edit_distance"),
    ("textproc.edit_distance.self_ms_per_q", "self", "textproc.edit_distance"),
    ("embed.proximity.calls_per_q", "calls", "embed.proximity"),
    ("embed.proximity.self_ms_per_q", "self", "embed.proximity"),
    ("typerec.column_type_distributions.calls_per_q", "calls",
     "typerec.column_type_distributions"),
    ("typerec.column_type_distributions.self_ms_per_q", "self",
     "typerec.column_type_distributions"),
    ("clauses.build_aux.self_ms_per_q", "self", "clauses.build_aux"),
    ("clauses.featurize_select.self_ms_per_q", "self", "clauses.featurize_select"),
    ("clauses.featurize_where.self_ms_per_q", "self", "clauses.featurize_where"),
    ("clauses.where_pairs_per_q", "calls", "clauses.featurize_where"),
    ("nn.predict_batch.self_ms_per_q", "self", "nn.predict_batch"),
    ("query.select_rows_word_match.self_ms_per_q", "self", "query.select_rows_word_match"),
]

# (metric, statistic, function key), summed over one set-up
_SETUP = [
    ("retrieval.build_index.setup_self_s", "self", "retrieval.build_index"),
    ("retrieval.build_index.setup_total_s", "total", "retrieval.build_index"),
    ("embed.load_embeddings.self_s", "self", "embed.load_embeddings"),
    ("embed.sim_match.setup_calls", "calls", "embed.sim_match"),
    ("query.execute.setup_calls", "calls", "query.execute"),
    ("harness.load_manifest.self_s", "self", "harness.load_manifest"),
    ("tabular.load_table.self_s", "self", "tabular.load_table"),
    ("tabular.transpose_key_value.self_s", "self", "tabular.transpose_key_value"),
]


def per_layer(result: dict, tracer: Tracer) -> dict:
    self_s, total_s, calls, nones, extra = tracer.merged()
    stats = {"calls": calls, "self": self_s, "total": total_s}
    n_q = result["questions"]

    def phase_sum(table, phase, key):
        """Sum over ``phase`` and its sub-phases (``train`` covers ``train:where``)."""
        return sum(v for (ph, k), v in table.items()
                   if k == key and (ph == phase or ph.startswith(phase + ":")))

    metrics = {}
    for name, kind, key in _PER_Q:
        value = phase_sum(stats[kind], "ask", key) / n_q
        metrics[name] = (value, "calls/q") if kind == "calls" else (value * 1000.0, "ms/q")
    prox_calls = phase_sum(calls, "ask", "embed.proximity")
    metrics["embed.proximity.oov_ratio"] = (
        phase_sum(nones, "ask", "embed.proximity") / prox_calls if prox_calls else 0.0,
        "ratio")

    # self times of every span in the ask phase, per layer; time with no
    # span open (key None) is the bench's own and not part of the latency
    ask_self = {k: v for (ph, k), v in self_s.items() if ph == "ask" and k}
    for layer in LAYERS:
        ms = sum(v for k, v in ask_self.items() if k.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_ms_per_q"] = (ms * 1000.0 / n_q, "ms/q")
    setup_t, lat_t = result["traced"]
    setup_u, lat_u = result["untraced"]
    traced_ms = sum(lat_t) * 1000.0 / n_q
    metrics["ask.traced_ms_per_q"] = (traced_ms, "ms/q")
    metrics["ask.unattributed_ms_per_q"] = (
        traced_ms - sum(ask_self.values()) * 1000.0 / n_q, "ms/q")
    metrics["trace.overhead_ms_per_q"] = (traced_ms - sum(lat_u) * 1000.0 / n_q, "ms/q")
    metrics["trace.overhead_setup_s"] = (setup_t - setup_u, "s")

    for name, kind, key in _SETUP:
        metrics[name] = (phase_sum(stats[kind], "setup", key),
                         "count" if kind == "calls" else "s")

    for stat in ("self", "total"):
        metrics[f"harness.build_samples.{stat}_s"] = (
            phase_sum(stats[stat], "train", "harness.build_select_samples")
            + phase_sum(stats[stat], "train", "harness.build_where_samples"), "s")
    for task in ("column-type", "select", "where"):
        metrics[f"nn.train.{task}.self_s"] = (
            phase_sum(self_s, f"train:{task}", "nn.train"), "s")
    metrics["nn.sgd_steps"] = (phase_sum(extra, "train", "nn.sgd_steps"), "count")
    metrics["textproc.edit_distance.train_calls"] = (
        phase_sum(calls, "train", "textproc.edit_distance"), "count")

    sweep_qs = phase_sum(calls, "eval", "harness.run_pipeline")
    busy = phase_sum(total_s, "eval", "harness.run_pipeline")
    eval_wall = phase_sum(total_s, "eval", "cli.main")
    metrics["query.select_rows_embedding.self_ms_per_q"] = (
        phase_sum(self_s, "eval", "query.select_rows_embedding") * 1000.0 / sweep_qs
        if sweep_qs else 0.0, "ms/q")
    metrics["harness.sweep.question_busy_s"] = (busy, "s")
    metrics["harness.sweep.busy_share"] = (
        busy / (eval_wall * SWEEP_THREADS) if eval_wall else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(tableqa.__file__).resolve().parents:
        print(f"error: imported tableqa from {tableqa.__file__}, not {src}", file=sys.stderr)
        return 1
    run = Run(Tracer() if args.trace else None)
    result = WORKLOADS[args.workload](run, args, Path(args.work))
    if args.trace:
        lines = result_lines(None, None, per_layer(result, run.tracer),
                             run.attempted, run.failed, run.problems)
    else:
        lines = result_lines(result["fingerprint"],
                             {"ask_questions": len(result["latencies"])},
                             end_to_end(result), run.attempted, run.failed,
                             run.problems)
    print("\n".join(lines))
    return 0


def result_lines(fingerprint, samples, metrics, attempted, failed, problems) -> list[str]:
    """Fingerprint and sample-count lines (untraced runs), then the result."""
    lines = []
    if fingerprint is not None:
        lines.append("fingerprint " + json.dumps(fingerprint, sort_keys=True))
        lines.append("samples " + json.dumps(samples))
    lines.append(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": problems[:20],
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
