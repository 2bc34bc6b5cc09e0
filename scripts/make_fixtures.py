#!/usr/bin/env python3
"""Regenerate the fixture corpus under fixtures/.

Writes the table files, the table-kind labels, the post-ingest column-type
labels, and the question manifest, then cross-checks every manifest entry:
the gold query must parse, execute to exactly the gold cells, and the gold
SELECT/WHERE pair must reproduce those cells through word-match row
selection (the oracle-stub path used by the test suite).

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tableqa.embed import load_embeddings  # noqa: E402
from tableqa.query import (  # noqa: E402
    execute,
    intersect_cells,
    parse_query,
    select_rows_word_match,
)
from tableqa.tabular import Table, TableKind, transpose_key_value  # noqa: E402

FIX = ROOT / "fixtures"

EI = TableKind.ENTITY_INSTANCE
KV = TableKind.KEY_VALUE


@dataclass
class Fixture:
    id: str
    kind: TableKind
    headers: list
    rows: list
    coltypes: list          # post-ingest column types, by name
    fmt: str = "csv"


@dataclass
class Entry:
    qid: str
    split: str
    table: str
    question: str
    query: str
    cells: set
    alternates: list = field(default_factory=list)


TABLES = [
    # ------------------------------------------------------------------
    # entity-instance tables
    # ------------------------------------------------------------------
    Fixture(
        "us-presidents", EI,
        ["President", "Party", "Term Start", "Number"],
        [["George Washington", "None", "1789-04-30", "1"],
         ["John Adams", "Federalist", "1797-03-04", "2"],
         ["Thomas Jefferson", "Democratic-Republican", "1801-03-04", "3"],
         ["Abraham Lincoln", "Republican", "1861-03-04", "16"],
         ["Donald Trump", "Republican", "2017-01-20", "45"]],
        ["Text", "Text", "DateTime", "Numerical"],
    ),
    Fixture(
        "state-capitals", EI,
        ["State", "Capital", "Population"],
        [["Louisiana", "Baton Rouge", "4,657,757"],
         ["Texas", "Austin", "29,145,505"],
         ["Oregon", "Salem", "4,237,256"],
         ["New Jersey", "Trenton", "9,288,994"],
         ["Georgia", "Atlanta", "10,711,908"]],
        ["Text", "Text", "Numerical"],
    ),
    Fixture(
        "easter-dates", EI,
        ["Year", "Date", "Weekday"],
        [["2018", "April 1, 2018", "Sunday"],
         ["2019", "April 21, 2019", "Sunday"],
         ["2020", "April 12, 2020", "Sunday"]],
        ["DateTime", "DateTime", "DateTime"],
        fmt="tsv",
    ),
    Fixture(
        "superbowl-games", EI,
        ["Game", "Date", "City", "Winner"],
        [["LII", "February 4, 2018", "Minneapolis", "Philadelphia Eagles"],
         ["LIII", "February 3, 2019", "Atlanta", "New England Patriots"],
         ["LIV", "February 2, 2020", "Miami", "Kansas City Chiefs"]],
        ["Text", "DateTime", "Text", "Text"],
    ),
    Fixture(
        "cm-inch", EI,
        ["Inch", "Centimeter"],
        [["1 inch", "2.54 centimeters"]],
        ["Text", "Text"],
    ),
    Fixture(
        "mile-feet", EI,
        ["Mile", "Feet"],
        [["1 mile", "5,280 feet"]],
        ["Text", "Text"],
    ),
    Fixture(
        "cat-lifespan", EI,
        ["Animal", "Lifespan"],
        [["Cat", "4-5 years (In the wild)"]],
        ["Text", "Text"],
    ),
    Fixture(
        "nairu-concepts", EI,
        ["What is NAIRU? CONCEPTS", "History of NAIRU", "Different concepts of NAIRU"],
        [["Non-Accelerating Inflation Rate of Unemployment",
          "Introduced in the 1970s", "Estimates vary by model"]],
        ["Text", "Text", "Text"],
    ),
    Fixture(
        "ufc-fights", EI,
        ["Event", "Fighter", "Date", "Outcome"],
        [["UFC 200", "Brock Lesnar", "2016-07-09", "Win"],
         ["UFC 121", "Brock Lesnar", "2010-10-23", "Loss"],
         ["UFC 116", "Brock Lesnar", "2010-07-03", "Win"],
         ["UFC 226", "Daniel Cormier", "2018-07-07", "Win"]],
        ["Text", "Text", "DateTime", "Text"],
    ),
    Fixture(
        "boston-population", EI,
        ["City", "2016 Population", "2018 Population"],
        [["Boston", "673,184", "694,583"],
         ["Cambridge", "110,651", "118,927"],
         ["Worcester", "184,508", "185,877"]],
        ["Text", "Numerical", "Numerical"],
    ),
    Fixture(
        "wizards-record", EI,
        ["Team", "Wins", "Losses"],
        [["Washington", "32", "50"],
         ["Boston", "55", "27"],
         ["Toronto", "59", "23"]],
        ["Text", "Numerical", "Numerical"],
    ),
    Fixture(
        "science-jobs", EI,
        ["Title", "Location", "Salary"],
        [["Data Analyst", "Albany, NY", "$70,000"],
         ["Lab Technician", "Rochester, NY", "$55,000"],
         ["Research Scientist", "Syracuse, NY", "$90,000"],
         ["Chemist", "Rochester, NY", "$65,000"]],
        ["Text", "Text", "Currency"],
    ),
    Fixture(
        "stock-prices", EI,
        ["Company", "Price", "Change"],
        [["Acme", "$102.50", "+1.2%"],
         ["Globex", "$48.10", "-0.4%"],
         ["Initech", "$12.99", "+0.1%"]],
        ["Text", "Currency", "Percentage"],
    ),
    Fixture(
        "open-hours", EI,
        ["Day", "Open", "Hours"],
        [["Monday", "yes", "9am - 5pm"],
         ["Saturday", "yes", "10am - 4pm"],
         ["Sunday", "no", "Closed"]],
        ["DateTime", "Boolean", "Text"],
    ),
    Fixture(
        "world-rivers", EI,
        ["River", "Length km", "Continent"],
        [["Amazon", "6,400", "South America"],
         ["Nile", "6,650", "Africa"],
         ["Yangtze", "6,300", "Asia"]],
        ["Text", "Numerical", "Text"],
        fmt="tsv",
    ),
    Fixture(
        "country-currencies", EI,
        ["Country", "Currency", "Code"],
        [["Japan", "Yen", "JPY"],
         ["Portugal", "Euro", "EUR"],
         ["United Kingdom", "Pound sterling", "GBP"]],
        ["Text", "Text", "Currency"],
    ),
    Fixture(
        "planet-facts", EI,
        ["Planet", "Distance million km", "Moons"],
        [["Mercury", "58", "0"],
         ["Earth", "150", "1"],
         ["Jupiter", "778", "79"]],
        ["Text", "Numerical", "Numerical"],
    ),
    Fixture(
        "olympics-hosts", EI,
        ["Year", "City", "Country"],
        [["2008", "Beijing", "China"],
         ["2012", "London", "United Kingdom"],
         ["2016", "Rio de Janeiro", "Brazil"]],
        ["DateTime", "Text", "Text"],
    ),
    Fixture(
        "programming-languages", EI,
        ["Language", "First Released", "Creator", "Website"],
        [["Python", "February 1991", "Guido van Rossum", "https://www.python.org"],
         ["Java", "May 1995", "James Gosling", "https://www.oracle.com/java"],
         ["Rust", "July 2010", "Graydon Hoare", "https://www.rust-lang.org"]],
        ["Text", "DateTime", "Text", "URL"],
    ),
    Fixture(
        "tallest-buildings", EI,
        ["Building", "Height m", "City", "Completed"],
        [["Burj Khalifa", "828", "Dubai", "2010"],
         ["Shanghai Tower", "632", "Shanghai", "2015"],
         ["Eiffel Tower", "330", "Paris", "1889"]],
        ["Text", "Numerical", "Text", "DateTime"],
    ),
    Fixture(
        "grocery-prices", EI,
        ["Item", "Price", "In Stock"],
        [["Milk", "$3.49", "yes"],
         ["Bread", "$2.99", "no"],
         ["Eggs", "$4.25", "yes"]],
        ["Text", "Currency", "Boolean"],
    ),
    Fixture(
        "exam-results", EI,
        ["Student", "Score", "Passed"],
        [["Alice", "92%", "yes"],
         ["Bob", "58%", "no"],
         ["Carol", "74%", "yes"]],
        ["Text", "Percentage", "Boolean"],
    ),
    Fixture(
        "reference-websites", EI,
        ["Site", "URL", "Category"],
        [["Python", "https://www.python.org", "Programming"],
         ["Wikipedia", "https://www.wikipedia.org", "Reference"],
         ["GitHub", "https://github.com", "Development"]],
        ["Text", "URL", "Text"],
    ),
    Fixture(
        "movie-releases", EI,
        ["Movie", "Release Date", "Budget"],
        [["Dune", "October 22, 2020", "$165,000,000"],
         ["Tenet", "September 3, 2020", "$200,000,000"],
         ["Soul", "December 25, 2020", "$150,000,000"]],
        ["Text", "DateTime", "Currency"],
    ),
    Fixture(
        "bank-rates", EI,
        ["Bank", "Interest Rate", "Minimum Deposit"],
        [["Union Bank", "4.5%", "$500"],
         ["First National", "3.9%", "$1,000"],
         ["Coastal Credit", "5.1%", "$250"]],
        ["Text", "Percentage", "Currency"],
    ),
    Fixture(
        "recipe-times", EI,
        ["Recipe", "Prep Time", "Servings"],
        [["Pancakes", "20 minutes", "4"],
         ["Lasagna", "90 minutes", "8"],
         ["Salad", "10 minutes", "2"]],
        ["Text", "Text", "Numerical"],
    ),
    Fixture(
        "feature-flags", EI,
        ["Feature", "Enabled", "Coverage"],
        [["Dark mode", "yes", "100%"],
         ["Beta search", "no", "25%"],
         ["New editor", "yes", "50%"]],
        ["Text", "Boolean", "Percentage"],
    ),
    Fixture(
        "api-endpoints", EI,
        ["Endpoint", "Method", "Authenticated"],
        [["https://api.example.com/users", "GET", "yes"],
         ["https://api.example.com/orders", "POST", "yes"],
         ["https://api.example.com/status", "GET", "no"]],
        ["URL", "Text", "Boolean"],
    ),
    Fixture(
        "poll-results", EI,
        ["Candidate", "Support", "Sample Size"],
        [["Smith", "45%", "1,200"],
         ["Jones", "38%", "1,200"],
         ["Undecided", "17%", "1,200"]],
        ["Text", "Percentage", "Numerical"],
    ),
    # ------------------------------------------------------------------
    # key-value tables (column types refer to the transposed layout)
    # ------------------------------------------------------------------
    Fixture(
        "whoopi-goldberg", KV,
        ["Key", "Value"],
        [["spouse", "Lyle Trachtenberg (m. 1994-1995)"],
         ["born", "November 13, 1955 (age 62 years), New York City, NY"],
         ["height", "5' 5''"],
         ["children", "1 daughter"],
         ["occupation", "Actress, comedian, television host"],
         ["awards", "EGOT winner"]],
        ["Text", "DateTime", "Text", "Text", "Text", "Text"],
    ),
    Fixture(
        "donald-trump", KV,
        ["Key", "Value"],
        [["spouse", "Melania Trump (m. 2005), Marla Maples (m. 1993-1999), "
                    "Ivana Trump (m. 1977-1992)"],
         ["born", "June 14, 1946 (age 71 years), Jamaica Hospital Medical Center, "
                  "New York City, NY"],
         ["height", "6' 3''"],
         ["net worth", "3.1 billion USD (2018)"],
         ["education", "Wharton School of the University of Pennsylvania (1966-1968)"]],
        ["Text", "DateTime", "Text", "Currency", "Text"],
    ),
    Fixture(
        "barack-obama", KV,
        ["Key", "Value"],
        [["born", "August 4, 1961 (age 56 years)"],
         ["birthplace", "Honolulu, Hawaii"],
         ["spouse", "Michelle Obama (m. 1992)"],
         ["height", "6' 1''"],
         ["party", "Democratic Party"]],
        ["DateTime", "Text", "Text", "Text", "Text"],
    ),
    Fixture(
        "albert-einstein", KV,
        ["Property", "Value"],
        [["born", "March 14, 1879, Ulm, Germany"],
         ["died", "April 18, 1955, Princeton, NJ"],
         ["field", "Theoretical physics"],
         ["known for", "Theory of relativity"],
         ["awards", "Nobel Prize in Physics (1921)"]],
        ["DateTime", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "marie-curie", KV,
        ["Property", "Value"],
        [["born", "November 7, 1867, Warsaw, Poland"],
         ["died", "July 4, 1934, Passy, France"],
         ["field", "Physics and chemistry"],
         ["awards", "Nobel Prize in Physics (1903), Nobel Prize in Chemistry (1911)"],
         ["spouse", "Pierre Curie (m. 1895)"]],
        ["DateTime", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "eiffel-tower", KV,
        ["Key", "Value"],
        [["height", "330 m (1,083 ft)"],
         ["built", "1887-1889"],
         ["location", "Champ de Mars, Paris, France"],
         ["architect", "Stephen Sauvestre"],
         ["visitors", "6,207,303"],
         ["website", "https://www.toureiffel.paris"]],
        ["Text", "DateTime", "Text", "Text", "Numerical", "URL"],
    ),
    Fixture(
        "mount-everest", KV,
        ["Key", "Value"],
        [["height", "8,849 m (29,032 ft)"],
         ["location", "Nepal and China border"],
         ["first ascent", "May 29, 1953"],
         ["named after", "George Everest"],
         ["climbing season", "April to May"]],
        ["Text", "Text", "DateTime", "Text", "DateTime"],
    ),
    Fixture(
        "amazon-river", KV,
        ["Key", "Value"],
        [["length", "6,400 km (4,000 miles)"],
         ["continent", "South America"],
         ["countries", "Brazil, Peru, Colombia"],
         ["discharge", "209,000 cubic meters per second"],
         ["source", "Mantaro River, Peru"]],
        ["Text", "Text", "Text", "Text", "Text"],
    ),
    Fixture(
        "python-language", KV,
        ["Key", "Value"],
        [["designed by", "Guido van Rossum"],
         ["first appeared", "February 20, 1991"],
         ["paradigm", "Multi-paradigm: object-oriented, functional"],
         ["website", "https://www.python.org"],
         ["license", "Python Software Foundation License"]],
        ["Text", "DateTime", "Text", "URL", "Text"],
    ),
    Fixture(
        "tesla-model-3", KV,
        ["Key", "Value"],
        [["price", "$39,990"],
         ["range", "272 miles"],
         ["top speed", "140 mph"],
         ["seating", "5 adults"],
         ["warranty", "4 years or 50,000 miles"]],
        ["Currency", "Text", "Text", "Text", "Text"],
    ),
    Fixture(
        "iphone-12", KV,
        ["Key", "Value"],
        [["price", "$799"],
         ["display", "6.1 inch Super Retina XDR"],
         ["storage", "64, 128, or 256 GB"],
         ["battery life", "Up to 17 hours of video playback"],
         ["released", "October 23, 2020"],
         ["discontinued", "no"]],
        ["Currency", "Text", "Text", "Text", "DateTime", "Boolean"],
    ),
    Fixture(
        "mona-lisa", KV,
        ["Property", "Value"],
        [["artist", "Leonardo da Vinci"],
         ["year", "1503-1506"],
         ["medium", "Oil on poplar panel"],
         ["location", "Louvre, Paris"],
         ["dimensions", "77 cm x 53 cm"]],
        ["Text", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "statue-of-liberty", KV,
        ["Property", "Value"],
        [["height", "93 m (305 ft)"],
         ["dedicated", "October 28, 1886"],
         ["location", "Liberty Island, New York"],
         ["sculptor", "Frederic Auguste Bartholdi"],
         ["visitors", "3,200,000"]],
        ["Text", "DateTime", "Text", "Text", "Numerical"],
    ),
    Fixture(
        "great-wall", KV,
        ["Key", "Value"],
        [["length", "21,196 km (13,171 miles)"],
         ["built", "7th century BC onward"],
         ["location", "Northern China"],
         ["material", "Stone, brick, rammed earth, wood"],
         ["unesco since", "1987"]],
        ["Text", "Text", "Text", "Text", "DateTime"],
    ),
    Fixture(
        "taj-mahal", KV,
        ["Key", "Value"],
        [["built", "1632-1653"],
         ["architect", "Ustad Ahmad Lahauri"],
         ["location", "Agra, India"],
         ["style", "Mughal architecture"],
         ["cost", "32 million rupees"]],
        ["DateTime", "Text", "Text", "Text", "Text"],
    ),
    Fixture(
        "niagara-falls", KV,
        ["Key", "Value"],
        [["height", "51 m (167 ft)"],
         ["location", "Ontario, Canada and New York, USA"],
         ["flow rate", "2,400 cubic meters per second"],
         ["formed", "10,000 years ago"],
         ["visitors", "30,000,000"]],
        ["Text", "Text", "Text", "Text", "Numerical"],
    ),
    Fixture(
        "golden-gate", KV,
        ["Key", "Value"],
        [["opened", "May 27, 1937"],
         ["length", "2,737 m (8,980 ft)"],
         ["toll", "$8.75"],
         ["color", "International orange"],
         ["engineer", "Joseph Strauss"]],
        ["DateTime", "Text", "Currency", "Text", "Text"],
    ),
    Fixture(
        "london-eye", KV,
        ["Attribute", "Detail"],
        [["height", "135 m (443 ft)"],
         ["opened", "March 9, 2000"],
         ["capacity", "800 passengers"],
         ["rotation time", "30 minutes"],
         ["website", "https://www.londoneye.com"]],
        ["Text", "DateTime", "Text", "Text", "URL"],
    ),
    Fixture(
        "beethoven", KV,
        ["Attribute", "Detail"],
        [["born", "December 17, 1770, Bonn"],
         ["died", "March 26, 1827, Vienna"],
         ["era", "Classical and Romantic"],
         ["famous works", "Symphony No. 9, Moonlight Sonata"],
         ["instrument", "Piano"]],
        ["DateTime", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "shakespeare", KV,
        ["Attribute", "Detail"],
        [["born", "April 26, 1564, Stratford-upon-Avon"],
         ["died", "April 23, 1616"],
         ["spouse", "Anne Hathaway (m. 1582)"],
         ["plays written", "39"],
         ["sonnets", "154"]],
        ["DateTime", "DateTime", "Text", "Numerical", "Numerical"],
    ),
    Fixture(
        "cleopatra", KV,
        ["Attribute", "Detail"],
        [["born", "69 BC, Alexandria, Egypt"],
         ["died", "August 30 BC"],
         ["reign", "51 BC to 30 BC"],
         ["spouse", "Mark Antony"],
         ["language", "Koine Greek"]],
        ["Text", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "leonardo-da-vinci", KV,
        ["Key", "Value"],
        [["born", "April 15, 1452, Anchiano, Italy"],
         ["died", "May 2, 1519, Amboise, France"],
         ["known for", "Mona Lisa, The Last Supper"],
         ["fields", "Painting, engineering, anatomy"],
         ["patron", "Ludovico Sforza"]],
        ["DateTime", "DateTime", "Text", "Text", "Text"],
    ),
    Fixture(
        "hoover-dam", KV,
        ["Key", "Value"],
        [["opened", "March 1, 1936"],
         ["height", "221 m (726 ft)"],
         ["location", "Nevada and Arizona border"],
         ["construction cost", "$49 million"],
         ["annual visitors", "7,000,000"]],
        ["DateTime", "Text", "Text", "Currency", "Numerical"],
    ),
    Fixture(
        "mount-fuji", KV,
        ["Key", "Value"],
        [["height", "3,776 m (12,389 ft)"],
         ["location", "Honshu, Japan"],
         ["last eruption", "December 16, 1707"],
         ["first ascent", "663 by an anonymous monk"],
         ["type", "Stratovolcano"]],
        ["Text", "Text", "DateTime", "Text", "Text"],
    ),
    Fixture(
        "colosseum", KV,
        ["Property", "Value"],
        [["built", "70-80 AD"],
         ["capacity", "50,000 spectators"],
         ["location", "Rome, Italy"],
         ["material", "Travertine limestone, tuff, concrete"],
         ["unesco since", "1980"]],
        ["Text", "Text", "Text", "Text", "DateTime"],
    ),
    Fixture(
        "big-ben", KV,
        ["Property", "Value"],
        [["completed", "May 31, 1859"],
         ["height", "96 m (316 ft)"],
         ["clock faces", "4"],
         ["location", "Westminster, London"],
         ["official name", "Elizabeth Tower"]],
        ["DateTime", "Text", "Numerical", "Text", "Text"],
    ),
    Fixture(
        "machu-picchu", KV,
        ["Attribute", "Detail"],
        [["built", "1450 AD"],
         ["altitude", "2,430 m (7,970 ft)"],
         ["location", "Cusco Region, Peru"],
         ["rediscovered", "July 24, 1911 by Hiram Bingham"],
         ["entry fee", "$45"]],
        ["Text", "Text", "Text", "DateTime", "Currency"],
    ),
    Fixture(
        "sydney-opera-house", KV,
        ["Attribute", "Detail"],
        [["opened", "October 20, 1973"],
         ["architect", "Jorn Utzon"],
         ["construction cost", "$102 million"],
         ["annual events", "1,800"],
         ["website", "https://www.sydneyoperahouse.com"]],
        ["DateTime", "Text", "Currency", "Numerical", "URL"],
    ),
    Fixture(
        "laptop-compare", KV,
        ["Feature", "1", "2", "3", "4", "5"],
        [["product", "acer aspire e15", "dell xps 13", "hp spectre x360 13",
          "apple macbook pro 13-inch", "lenovo ideapad miix 520"],
         ["lowest price", "$349.99", "$799.99", "$1,199.99", "$1,099.99", "$999.99"],
         ["processor name", "intel core i3-7100u", "intel core i7-8550u",
          "intel core i7-7500u", "intel core i5", "intel core i5-8250u"],
         ["ram", "4 gb", "8 gb", "16 gb", "8 gb", "8 gb"],
         ["weight", "5.12 lb", "2.7 lb", "2.83 lb", "3.02 lb", "2.65 lb"],
         ["screen size", "15.6 inches", "13.3 inches", "13.3 inches",
          "13.3 inches", "12.2 inches"]],
        ["Text", "Currency", "Text", "Text", "Text", "Text"],
    ),
]


def Q(qid, split, table, question, query, cells, alternates=()):
    return Entry(qid, split, table, question, query, set(cells), list(alternates))


QUESTIONS = [
    Q("q01", "train", "state-capitals", "What is the capital of Louisiana?",
      "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'louisiana'",
      {(0, 1)}),
    Q("q02", "train", "state-capitals", "What is the capital of Texas?",
      "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'texas'",
      {(1, 1)}),
    Q("q03", "dev", "state-capitals", "What is the capital of Oregon?",
      "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'oregon'",
      {(2, 1)}),
    Q("q04", "train", "state-capitals", "What is the capital of New Jersey?",
      "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'jersey'",
      {(3, 1)}),
    Q("q05", "test", "state-capitals", "What is the capital of Georgia?",
      "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'georgia'",
      {(4, 1)}),
    Q("q06", "train", "us-presidents", "Who was the second president of the USA?",
      "SELECT \"President\" FROM \"us-presidents\" WHERE \"Number\" = '2'",
      {(1, 0)}),
    Q("q07", "train", "us-presidents", "When was Abraham Lincoln inaugurated?",
      "SELECT \"Term Start\" FROM \"us-presidents\" WHERE \"President\" ~ 'lincoln'",
      {(3, 2)}),
    Q("q08", "dev", "us-presidents", "What party was Thomas Jefferson?",
      "SELECT \"Party\" FROM \"us-presidents\" WHERE \"President\" ~ 'jefferson'",
      {(2, 1)}),
    Q("q09", "train", "us-presidents", "What number president is Donald Trump?",
      "SELECT \"Number\" FROM \"us-presidents\" WHERE \"President\" ~ 'trump'",
      {(4, 3)}),
    Q("q10", "train", "easter-dates", "When is easter in 2019?",
      "SELECT \"Date\" FROM \"easter-dates\" WHERE \"Year\" ~ '2019'",
      {(1, 1)}),
    Q("q11", "dev", "easter-dates", "What day is easter on in 2020?",
      "SELECT \"Weekday\" FROM \"easter-dates\" WHERE \"Year\" ~ '2020'",
      {(2, 2)}),
    Q("q12", "train", "easter-dates", "When is easter in 2018?",
      "SELECT \"Date\" FROM \"easter-dates\" WHERE \"Year\" ~ '2018'",
      {(0, 1)}),
    Q("q13", "train", "superbowl-games", "Where was Super Bowl LIII played?",
      "SELECT \"City\" FROM \"superbowl-games\" WHERE \"Game\" ~ 'liii'",
      {(1, 2)}),
    Q("q14", "test", "superbowl-games", "Who won Super Bowl LIII?",
      "SELECT \"Winner\" FROM \"superbowl-games\" WHERE \"Game\" ~ 'liii'",
      {(1, 3)}),
    Q("q15", "train", "cm-inch", "How many centimeters are in an inch?",
      "SELECT \"Centimeter\" FROM \"cm-inch\"",
      {(0, 1)}),
    Q("q16", "train", "mile-feet", "How many feet are in a mile?",
      "SELECT \"Feet\" FROM \"mile-feet\"",
      {(0, 1)}),
    Q("q17", "dev", "cat-lifespan", "How long do cats live?",
      "SELECT \"Lifespan\" FROM \"cat-lifespan\"",
      {(0, 1)}),
    Q("q18", "train", "nairu-concepts", "What is NAIRU?",
      "SELECT \"What is NAIRU? CONCEPTS\" FROM \"nairu-concepts\"",
      {(0, 0)}),
    Q("q19", "train", "ufc-fights", "What was the outcome of UFC 200?",
      "SELECT \"Outcome\" FROM \"ufc-fights\" WHERE \"Event\" ~ '200'",
      {(0, 3)}),
    Q("q20", "train", "ufc-fights", "When did Brock Lesnar fight at UFC 200?",
      "SELECT \"Date\" FROM \"ufc-fights\" WHERE \"Event\" ~ '200' "
      "ORDER BY \"Date\" DESC LIMIT 1",
      {(0, 2)}),
    Q("q21", "dev", "boston-population", "What is the population of Boston MA?",
      "SELECT \"2018 Population\" FROM \"boston-population\" WHERE \"City\" ~ 'boston'",
      {(0, 2)}),
    Q("q22", "train", "wizards-record", "What is Washington Wizards record?",
      "SELECT \"Wins\", \"Losses\" FROM \"wizards-record\" WHERE \"Team\" ~ 'washington'",
      {(0, 1), (0, 2)}),
    Q("q23", "train", "science-jobs", "What science jobs are available in Rochester NY?",
      "SELECT \"Title\" FROM \"science-jobs\" WHERE \"Location\" ~ 'rochester'",
      {(1, 0), (3, 0)}),
    Q("q24", "test", "stock-prices", "What is the price of Acme stock?",
      "SELECT \"Price\" FROM \"stock-prices\" WHERE \"Company\" ~ 'acme'",
      {(0, 1)}),
    Q("q25", "train", "grocery-prices", "How much does milk cost?",
      "SELECT \"Price\" FROM \"grocery-prices\" WHERE \"Item\" ~ 'milk'",
      {(0, 1)}),
    Q("q26", "dev", "grocery-prices", "Is bread in stock?",
      "SELECT \"In Stock\" FROM \"grocery-prices\" WHERE \"Item\" ~ 'bread'",
      {(1, 2)}),
    Q("q27", "train", "exam-results", "What score did Alice get on the exam?",
      "SELECT \"Score\" FROM \"exam-results\" WHERE \"Student\" ~ 'alice'",
      {(0, 1)}),
    Q("q28", "train", "exam-results", "Did Bob pass the exam?",
      "SELECT \"Passed\" FROM \"exam-results\" WHERE \"Student\" ~ 'bob'",
      {(1, 2)}),
    Q("q29", "train", "reference-websites", "What is the URL of the Python website?",
      "SELECT \"URL\" FROM \"reference-websites\" WHERE \"Site\" ~ 'python'",
      {(0, 1)}, alternates=["programming-languages"]),
    Q("q30", "train", "movie-releases", "When was Dune released?",
      "SELECT \"Release Date\" FROM \"movie-releases\" WHERE \"Movie\" ~ 'dune'",
      {(0, 1)}),
    Q("q31", "dev", "bank-rates", "What is the interest rate at Union Bank?",
      "SELECT \"Interest Rate\" FROM \"bank-rates\" WHERE \"Bank\" ~ 'union'",
      {(0, 1)}),
    Q("q32", "train", "planet-facts", "How many moons does Jupiter have?",
      "SELECT \"Moons\" FROM \"planet-facts\" WHERE \"Planet\" ~ 'jupiter'",
      {(2, 2)}),
    Q("q33", "train", "world-rivers", "How long is the Amazon river?",
      "SELECT \"Length km\" FROM \"world-rivers\" WHERE \"River\" ~ 'amazon'",
      {(0, 1)}, alternates=["amazon-river"]),
    Q("q34", "train", "olympics-hosts", "Where were the olympics in 2012?",
      "SELECT \"City\" FROM \"olympics-hosts\" WHERE \"Year\" ~ '2012'",
      {(1, 1)}),
    Q("q35", "test", "olympics-hosts", "What country hosted the olympics in 2016?",
      "SELECT \"Country\" FROM \"olympics-hosts\" WHERE \"Year\" ~ '2016'",
      {(2, 2)}),
    Q("q36", "train", "programming-languages", "Who created Python?",
      "SELECT \"Creator\" FROM \"programming-languages\" WHERE \"Language\" ~ 'python'",
      {(0, 2)}),
    Q("q37", "dev", "tallest-buildings", "How tall is the Burj Khalifa?",
      "SELECT \"Height m\" FROM \"tallest-buildings\" WHERE \"Building\" ~ 'burj'",
      {(0, 1)}),
    Q("q38", "train", "open-hours", "Is the store open on Sunday?",
      "SELECT \"Open\" FROM \"open-hours\" WHERE \"Day\" ~ 'sunday'",
      {(2, 1)}),
    Q("q39", "train", "whoopi-goldberg", "Who is the husband of Whoopi Goldberg?",
      "SELECT \"spouse\" FROM \"whoopi-goldberg\"",
      {(0, 0)}),
    Q("q40", "train", "donald-trump", "When was Donald Trump born?",
      "SELECT \"born\" FROM \"donald-trump\"",
      {(0, 1)}),
    Q("q41", "dev", "donald-trump", "What is Donald Trump's net worth?",
      "SELECT \"net worth\" FROM \"donald-trump\"",
      {(0, 3)}),
    Q("q42", "train", "barack-obama", "Where was Barack Obama born?",
      "SELECT \"birthplace\" FROM \"barack-obama\"",
      {(0, 1)}),
    Q("q43", "train", "albert-einstein", "When was Albert Einstein born?",
      "SELECT \"born\" FROM \"albert-einstein\"",
      {(0, 0)}),
    Q("q44", "test", "eiffel-tower", "How tall is the Eiffel Tower?",
      "SELECT \"height\" FROM \"eiffel-tower\"",
      {(0, 0)}, alternates=["tallest-buildings"]),
    Q("q45", "train", "mount-everest", "How tall is Mount Everest?",
      "SELECT \"height\" FROM \"mount-everest\"",
      {(0, 0)}),
    Q("q46", "train", "tesla-model-3", "What is the price of the Tesla Model 3?",
      "SELECT \"price\" FROM \"tesla-model-3\"",
      {(0, 0)}),
    Q("q47", "dev", "iphone-12", "How much does the iPhone 12 cost?",
      "SELECT \"price\" FROM \"iphone-12\"",
      {(0, 0)}),
    Q("q48", "train", "laptop-compare", "What is the price of the dell xps 13?",
      "SELECT \"lowest price\" FROM \"laptop-compare\" WHERE \"product\" ~ 'dell'",
      {(1, 1)}),
    Q("q49", "train", "laptop-compare", "How much ram does the hp spectre have?",
      "SELECT \"ram\" FROM \"laptop-compare\" WHERE \"product\" ~ 'hp'",
      {(2, 3)}),
    Q("q50", "test", "marie-curie", "When was Marie Curie born?",
      "SELECT \"born\" FROM \"marie-curie\"",
      {(0, 0)}),
    Q("q51", "train", "country-currencies", "What currency does Japan use?",
      "SELECT \"Currency\" FROM \"country-currencies\" WHERE \"Country\" ~ 'japan'",
      {(0, 1)}),
    Q("q52", "dev", "recipe-times", "How long does lasagna take to make?",
      "SELECT \"Prep Time\" FROM \"recipe-times\" WHERE \"Recipe\" ~ 'lasagna'",
      {(1, 1)}),
]


def build_table(fx: Fixture) -> Table:
    return Table(id=fx.id, name=fx.id, headers=list(fx.headers),
                 rows=[list(r) for r in fx.rows], kind=fx.kind)


def ingest(fx: Fixture) -> Table:
    t = build_table(fx)
    return transpose_key_value(t) if fx.kind is KV else t


def write_tables():
    tables_dir = FIX / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    for old in tables_dir.iterdir():
        old.unlink()
    for fx in TABLES:
        path = tables_dir / f"{fx.id}.{fx.fmt}"
        delim = "," if fx.fmt == "csv" else "\t"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=delim)
            writer.writerow(fx.headers)
            writer.writerows(fx.rows)


def write_kinds():
    with open(FIX / "table_types.txt", "w", encoding="utf-8") as fh:
        fh.write("# table_id <TAB> entity-instance | key-value\n")
        for fx in TABLES:
            fh.write(f"{fx.id}\t{fx.kind.value}\n")


def write_column_labels():
    counts = {}
    n = 0
    with open(FIX / "column_labels.txt", "w", encoding="utf-8") as fh:
        fh.write("# post-ingest column types: table_id <TAB> column_index <TAB> type\n")
        for fx in TABLES:
            ingested = ingest(fx)
            assert len(fx.coltypes) == ingested.n_columns, \
                f"{fx.id}: {len(fx.coltypes)} labels for {ingested.n_columns} columns"
            for i, label in enumerate(fx.coltypes):
                fh.write(f"{fx.id}\t{i}\t{label}\n")
                counts[label] = counts.get(label, 0) + 1
                n += 1
    assert n >= 200, f"only {n} labeled columns"
    return n, counts


def encode_cells(cells) -> str:
    return ",".join(f"{r}:{c}" for r, c in sorted(cells))


def validate_and_write_manifest():
    store = load_embeddings(FIX / "pipeline.vec")
    by_id = {fx.id: fx for fx in TABLES}
    with open(FIX / "manifest.txt", "w", encoding="utf-8") as fh:
        fh.write("# qid <TAB> split <TAB> table_id <TAB> alternates(,|-) "
                 "<TAB> cells(r:c,...) <TAB> question <TAB> gold query\n")
        for e in QUESTIONS:
            table = ingest(by_id[e.table])
            q = parse_query(e.query)
            got = execute(q, table, store)
            assert got == e.cells, f"{e.qid}: execute -> {got}, expected {e.cells}"
            # oracle-stub path: gold SELECT/WHERE through word-match rows
            select_idx = {table.headers.index(c) for c in q.select}
            pairs = {(table.headers.index(c.column), c.keyword) for c in q.where}
            rows = select_rows_word_match(table, pairs)
            stub = intersect_cells(table, rows, select_idx)
            assert stub == e.cells, f"{e.qid}: stub -> {stub}, expected {e.cells}"
            alts = ",".join(e.alternates) if e.alternates else "-"
            fh.write(f"{e.qid}\t{e.split}\t{e.table}\t{alts}\t"
                     f"{encode_cells(e.cells)}\t{e.question}\t{e.query}\n")


def main():
    assert len(TABLES) >= 40
    kinds = [fx.kind for fx in TABLES]
    print(f"{len(TABLES)} tables "
          f"({kinds.count(EI)} entity-instance, {kinds.count(KV)} key-value)")
    write_tables()
    write_kinds()
    n, counts = write_column_labels()
    print(f"{n} labeled columns: "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    validate_and_write_manifest()
    splits = [e.split for e in QUESTIONS]
    print(f"{len(QUESTIONS)} manifest entries "
          f"(train={splits.count('train')}, dev={splits.count('dev')}, "
          f"test={splits.count('test')})")
    print("all gold queries execute to their gold cells; stub path lossless")


if __name__ == "__main__":
    main()
