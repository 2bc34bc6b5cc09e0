import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa.embed import EmbeddingStore, SimMatchConfig, load_embeddings
from tableqa.errors import (
    NonNumericComparison,
    OutOfBounds,
    QuerySyntaxError,
    TableMismatch,
    TableQAError,
    UnknownColumn,
    UnsupportedConstruct,
)
from tableqa.query import (
    Condition,
    Operator,
    StructuredQuery,
    execute,
    intersect_cells,
    parse_query,
    print_query,
    select_rows_embedding,
    select_rows_word_match,
)
from tableqa.tabular import Table


@pytest.fixture(scope="module")
def store(fixtures_dir):
    return load_embeddings(fixtures_dir / "toy.vec")


def presidents():
    return Table(
        id="presidents", name="presidents",
        headers=["President", "Party", "Term Start", "Number"],
        rows=[
            ["George Washington", "None", "1789-04-30", "1"],
            ["John Adams", "Federalist", "1797-03-04", "2"],
            ["Thomas Jefferson", "Democratic-Republican", "1801-03-04", "3"],
        ],
    )


class TestParse:
    def test_bare_select(self):
        q = parse_query('SELECT "born" FROM "Donald-Trump"')
        assert q.select == ("born",)
        assert q.from_table == "Donald-Trump"
        assert q.where == ()

    def test_sim_match_conjunct(self):
        q = parse_query("SELECT \"Value\" FROM \"T\" WHERE \"Key\" ~ 'birthday'")
        assert q.where == (Condition("Key", "birthday", Operator.SIM_MATCH),)

    def test_missing_projection(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT FROM T")

    def test_unquoted_identifiers(self):
        q = parse_query("SELECT born FROM Donald-Trump")
        assert q.select == ("born",)
        assert q.from_table == "Donald-Trump"

    def test_multi_column_and_conjuncts(self):
        q = parse_query(
            'SELECT "a", "b" FROM "t" WHERE "c" LIKE \'x\' AND "d" > \'5\''
        )
        assert q.select == ("a", "b")
        assert q.where[0].operator is Operator.LIKE
        assert q.where[1].operator is Operator.GREATER

    def test_order_and_limit(self):
        q = parse_query('SELECT "a" FROM "t" ORDER BY "Date" DESC LIMIT 1')
        assert q.order_by == ("Date", "DESC")
        assert q.limit == 1

    def test_descending_spelling_accepted(self):
        q = parse_query('SELECT "a" FROM "t" ORDER BY "Date" DESCENDING LIMIT 2')
        assert q.order_by == ("Date", "DESC")

    def test_keyword_case_insensitive(self):
        q = parse_query("select \"a\" from \"t\" where \"b\" like 'x' limit 3")
        assert q.limit == 3

    def test_position_in_error(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query('SELECT "a" FROM "t" LIMIT nope')
        assert exc.value.position == 26

    def test_unterminated_quote(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "a FROM t')

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "a" FROM "t" extra')


class TestUnsupported:
    def test_or_disjunction(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query("SELECT \"Date\" FROM \"t\" WHERE \"F1\" ~ 'x' OR \"F2\" ~ 'y'")

    def test_parenthesized_group(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query("SELECT \"Date\" FROM \"t\" WHERE ((\"F1\" ~ 'x'))")

    def test_sub_query(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query(
                'SELECT "President" FROM "t" WHERE "Number" > '
                "(SELECT \"Number\" FROM \"t\" WHERE \"President\" ~ 'John')"
            )

    def test_aggregate(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query('SELECT COUNT (Title) FROM "t"')

    def test_external_function(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query("SELECT \"a\" FROM \"t\" WHERE year = EXTERNAL ('current year')")


class TestPrintRoundTrip:
    def test_canonical_form(self):
        q = StructuredQuery(
            select=("born",), from_table="Donald-Trump",
            where=(Condition("Key", "birthday", Operator.SIM_MATCH),),
        )
        text = print_query(q)
        assert text == 'SELECT "born" FROM "Donald-Trump" WHERE "Key" ~ \'birthday\''
        assert parse_query(text) == q

    def test_random_asts_round_trip(self):
        rng = random.Random(13)
        idents = ["plain", "Two Words", 'has"quote', "hy-phen", "a.b", "42"]
        values = ["birthday", "UFC 200", "it's", "6' 3''", "x"]
        for _ in range(200):
            q = StructuredQuery(
                select=tuple(rng.sample(idents, rng.randrange(1, 3))),
                from_table=rng.choice(idents),
                where=tuple(
                    Condition(rng.choice(idents), rng.choice(values),
                              rng.choice(list(Operator)))
                    for _ in range(rng.randrange(0, 3))
                ),
                order_by=(rng.choice(idents), rng.choice(["ASC", "DESC"]))
                if rng.random() < 0.5 else None,
                limit=rng.randrange(1, 5) if rng.random() < 0.5 else None,
            )
            assert parse_query(print_query(q)) == q

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_generated_queries_round_trip(self, data):
        # names and keywords may hold quotes of either kind, grammar
        # keywords, operator symbols, parentheses and spaces
        text = st.one_of(
            st.text(alphabet=st.sampled_from(list("aZ9 _-.'\"~=<>,()")),
                    max_size=8),
            st.sampled_from(["SELECT", "FROM", "WHERE", "AND", "OR", "ORDER",
                             "BY", "LIMIT", "DESC", "LIKE", "EXTERNAL", "it's",
                             'say "hi"', "6' 3''", ""]),
        )
        q = StructuredQuery(
            select=tuple(data.draw(st.lists(text, min_size=1, max_size=3))),
            from_table=data.draw(text),
            where=tuple(data.draw(st.lists(
                st.builds(Condition, text, text, st.sampled_from(Operator)),
                max_size=3))),
            order_by=data.draw(st.none() | st.tuples(
                text, st.sampled_from(["ASC", "DESC"]))),
            limit=data.draw(st.none() | st.integers(1, 10**6)),
        )
        assert parse_query(print_query(q)) == q


class TestExecute:
    def test_empty_where_selects_all_rows(self, store):
        t = presidents()
        q = parse_query('SELECT "President" FROM "presidents"')
        cells = execute(q, t, store)
        assert cells == {(0, 0), (1, 0), (2, 0)}

    def test_cardinality_invariant(self, store):
        t = presidents()
        q = parse_query('SELECT "President", "Party" FROM "presidents"')
        assert len(execute(q, t, store)) == t.n_rows * 2

    def test_sim_match_substring_stage(self, store):
        t = presidents()
        q = parse_query(
            "SELECT \"President\", \"Party\" FROM \"presidents\" "
            "WHERE \"President\" ~ 'washington'"
        )
        assert execute(q, t, store) == {(0, 0), (0, 1)}

    def test_order_by_date_desc_limit_one(self, store):
        t = presidents()
        q = parse_query(
            'SELECT "President" FROM "presidents" ORDER BY "Term Start" DESC LIMIT 1'
        )
        assert execute(q, t, store) == {(2, 0)}

    def test_numeric_order_and_comparison(self, store):
        t = presidents()
        q = parse_query(
            "SELECT \"President\" FROM \"presidents\" WHERE \"Number\" > '1' "
            'ORDER BY "Number" ASC LIMIT 1'
        )
        assert execute(q, t, store) == {(1, 0)}

    def test_less_than(self, store):
        t = presidents()
        q = parse_query("SELECT \"President\" FROM \"presidents\" WHERE \"Number\" < '2'")
        assert execute(q, t, store) == {(0, 0)}

    def test_equals_exact(self, store):
        t = presidents()
        q = parse_query("SELECT \"Number\" FROM \"presidents\" WHERE \"Party\" = 'Federalist'")
        assert execute(q, t, store) == {(1, 3)}
        q2 = parse_query("SELECT \"Number\" FROM \"presidents\" WHERE \"Party\" = 'federalist'")
        assert execute(q2, t, store) == set()

    def test_unknown_column(self, store):
        t = presidents()
        q = parse_query('SELECT "Nope" FROM "presidents"')
        with pytest.raises(UnknownColumn):
            execute(q, t, store)

    def test_non_numeric_comparison(self, store):
        t = presidents()
        q = parse_query("SELECT \"President\" FROM \"presidents\" WHERE \"Party\" > '1'")
        with pytest.raises(NonNumericComparison):
            execute(q, t, store)

    def test_wrong_table_rejected(self, store):
        t = presidents()
        q = parse_query('SELECT "President" FROM "other"')
        with pytest.raises(ValueError):
            execute(q, t, store)

    def test_wrong_table_is_a_tableqa_error(self, store):
        q = parse_query('SELECT "President" FROM "other"')
        with pytest.raises(TableMismatch) as exc:
            execute(q, presidents(), store)
        assert isinstance(exc.value, TableQAError)
        assert str(exc.value) == "query targets 'other', table is 'presidents'"

    def test_embedding_stage_in_where(self, store):
        t = Table(id="kv", name="kv", headers=["Key", "Value"],
                  rows=[["spouse", "Melania"], ["height", "6' 3''"]])
        q = parse_query("SELECT \"Value\" FROM \"kv\" WHERE \"Key\" ~ 'husband'")
        assert execute(q, t, store, SimMatchConfig()) == {(0, 1)}


class TestWordMatchRows:
    def test_empty_pairs_all_rows(self):
        t = presidents()
        assert select_rows_word_match(t, set()) == {0, 1, 2}

    def test_single_match(self):
        t = presidents()
        assert select_rows_word_match(t, {(0, "adams")}) == {1}

    def test_argmax_scoring(self):
        t = Table(
            id="s", name="s", headers=["A", "B"],
            rows=[["x", "other"], ["nothing", "nothing"],
                  ["nothing", "nothing"], ["x", "y"]],
        )
        pairs = {(0, "x"), (1, "y")}
        assert select_rows_word_match(t, pairs) == {3}

    def test_token_not_substring(self):
        t = Table(id="c", name="c", headers=["Name"],
                  rows=[["Carter"], ["art show"]])
        assert select_rows_word_match(t, {(0, "art")}) == {1}

    def test_no_matches_means_all_rows(self):
        t = presidents()
        assert select_rows_word_match(t, {(0, "nonexistent")}) == {0, 1, 2}


class TestEmbeddingRows:
    def test_verbatim_token_wins(self, store):
        t = Table(id="e", name="e", headers=["K"],
                  rows=[["president"], ["capital"]])
        assert select_rows_embedding(t, {(0, "president")}, store) == {0}

    def test_out_of_vocabulary_keyword_selects_all(self, store):
        t = presidents()
        assert select_rows_embedding(t, {(0, "melania")}, store) == {0, 1, 2}

    def test_spouse_nearest_husband(self, store):
        t = Table(id="kv", name="kv", headers=["Key"],
                  rows=[["spouse"], ["president"], ["capital"]])
        assert select_rows_embedding(t, {(0, "husband")}, store) == {0}

    def test_agrees_with_word_match_on_exact_vocab_hit(self, store):
        rng = random.Random(6)
        vocab = ["spouse", "husband", "president", "capital"]
        for _ in range(50):
            rows = [[rng.choice(vocab)] for _ in range(rng.randrange(2, 6))]
            t = Table(id="p", name="p", headers=["K"], rows=rows)
            keyword = rng.choice([r[0] for r in rows])
            pairs = {(0, keyword)}
            assert select_rows_embedding(t, pairs, store) == \
                select_rows_word_match(t, pairs)

    def test_empty_pairs_all_rows(self, store):
        t = presidents()
        assert select_rows_embedding(t, set(), store) == {0, 1, 2}


class TestIntersect:
    def test_product(self):
        t = presidents()
        assert intersect_cells(t, {1}, {2}) == {(1, 2)}
        assert intersect_cells(t, {0, 1}, {0, 2}) == {(0, 0), (0, 2), (1, 0), (1, 2)}

    def test_empty_rows(self):
        assert intersect_cells(presidents(), set(), {1}) == set()

    def test_out_of_bounds(self):
        t = presidents()
        with pytest.raises(OutOfBounds):
            intersect_cells(t, {5}, {0})
        with pytest.raises(OutOfBounds):
            intersect_cells(t, {0}, {9})
