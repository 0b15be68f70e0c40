// Tests for the Berlin benchmark substrate: generator determinism and
// ratios, CSV round-trip through `ingest`, and the full BI query mix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "boxed_oracle.hpp"
#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "relational/operators.hpp"
#include "server/database.hpp"

namespace gems::bsbm {
namespace {

using storage::Value;

TEST(GeneratorTest, DerivedCountsFollowRatios) {
  const GeneratorConfig c = GeneratorConfig::derive(1000);
  EXPECT_EQ(c.num_products, 1000u);
  EXPECT_EQ(c.num_producers, 40u);
  EXPECT_EQ(c.num_vendors, 50u);
  EXPECT_EQ(c.num_persons, 100u);
  EXPECT_GT(c.num_features, 100u);
}

TEST(GeneratorTest, PopulatesAllTables) {
  auto db = make_populated_database(GeneratorConfig::derive(120, 9));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  EXPECT_EQ((*(*db)->table("Products"))->num_rows(), 120u);
  EXPECT_GT((*(*db)->table("Offers"))->num_rows(), 120u);
  EXPECT_GT((*(*db)->table("Reviews"))->num_rows(), 0u);
  EXPECT_GT((*(*db)->table("ProductFeatures"))->num_rows(), 120u);
  // Derived graph materialized.
  const auto& g = (*db)->graph();
  EXPECT_EQ(g.vertex_type(g.find_vertex_type("ProductVtx").value())
                .num_vertices(),
            120u);
  EXPECT_EQ(g.edge_type(g.find_edge_type("producer").value()).num_edges(),
            120u);
  // Many-to-one country vertices collapse to the country vocabulary.
  EXPECT_LE(g.vertex_type(g.find_vertex_type("ProducerCountry").value())
                .num_vertices(),
            countries().size());
}

TEST(GeneratorTest, DeterministicAcrossRuns) {
  auto a = make_populated_database(GeneratorConfig::derive(100, 77));
  auto b = make_populated_database(GeneratorConfig::derive(100, 77));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  for (const char* table : {"Products", "Offers", "Reviews", "Persons"}) {
    auto ta = (*a)->table(table).value();
    auto tb = (*b)->table(table).value();
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << table;
    // Spot-check full contents of a row stripe.
    for (storage::RowIndex r = 0; r < ta->num_rows();
         r += 1 + ta->num_rows() / 13) {
      for (storage::ColumnIndex c = 0; c < ta->num_columns(); ++c) {
        EXPECT_TRUE(ta->value_at(r, c) == tb->value_at(r, c))
            << table << " row " << r << " col " << c;
      }
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = make_populated_database(GeneratorConfig::derive(100, 1));
  auto b = make_populated_database(GeneratorConfig::derive(100, 2));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  auto ta = (*a)->table("Offers").value();
  auto tb = (*b)->table("Offers").value();
  EXPECT_NE(ta->num_rows(), tb->num_rows());
}

TEST(GeneratorTest, CsvFilesRoundTripThroughIngest) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "gems_bsbm_csv").string();
  fs::create_directories(dir);

  auto source = make_populated_database(GeneratorConfig::derive(50, 4));
  ASSERT_TRUE(source.is_ok());
  ASSERT_TRUE(write_csv_files(**source, dir).is_ok());

  // Fresh database, loaded via the paper's `ingest` command.
  server::DatabaseOptions options;
  options.data_dir = dir;
  server::Database db(options);
  ASSERT_TRUE(db.run_script(full_ddl()).is_ok());
  std::string ingest_script;
  for (const auto& name : db.tables().names()) {
    ingest_script += "ingest table " + name + " '" + name +
                     ".csv' with header\n";
  }
  auto r = db.run_script(ingest_script);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  for (const auto& name : db.tables().names()) {
    EXPECT_EQ((*db.table(name))->num_rows(),
              (*(*source)->table(name))->num_rows())
        << name;
  }
  // Derived graph identical sizes.
  EXPECT_EQ(db.graph().total_vertices(), (*source)->graph().total_vertices());
  EXPECT_EQ(db.graph().total_edges(), (*source)->graph().total_edges());
  fs::remove_all(dir);
}

// ---- The query mix ------------------------------------------------------------

class QueryMixTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = make_populated_database(GeneratorConfig::derive(200, 31));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    db_ = std::move(db).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static relational::ParamMap default_params() {
    relational::ParamMap params;
    params.emplace("Country1", Value::varchar("US"));
    params.emplace("Country2", Value::varchar("DE"));
    params.emplace("Product1", Value::varchar("p0"));
    params.emplace("Type1", Value::varchar("t1"));
    params.emplace("Producer1", Value::varchar("pr0"));
    params.emplace("Date1",
                   Value::date(storage::civil_to_days(2008, 6, 15)));
    return params;
  }

  static server::Database* db_;
};

server::Database* QueryMixTest::db_ = nullptr;

TEST_F(QueryMixTest, AllQueriesRunGreen) {
  for (const auto& q : all_queries()) {
    auto r = db_->run_script(q.text, default_params());
    ASSERT_TRUE(r.is_ok()) << q.name << ": " << r.status().to_string();
    ASSERT_FALSE(r->empty()) << q.name;
    EXPECT_NE(r->back().table, nullptr) << q.name;
  }
}

TEST_F(QueryMixTest, EveryResultTableMatchesBoxedAppends) {
  for (const auto& q : all_queries()) {
    auto r = db_->run_script(q.text, default_params());
    ASSERT_TRUE(r.is_ok()) << q.name << ": " << r.status().to_string();
    for (std::size_t i = 0; i < r->size(); ++i) {
      const auto& table = (*r)[i].table;
      if (table == nullptr) continue;
      gems::testing::expect_matches_boxed(
          *table, q.name + " statement " + std::to_string(i));
    }
  }
}

TEST_F(QueryMixTest, Q1ShapesMatchThePaper) {
  auto r = db_->run_script(berlin_q1(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& final_table = *r->back().table;
  EXPECT_LE(final_table.num_rows(), 10u);  // top 10
  ASSERT_EQ(final_table.num_columns(), 2u);
  // Counts are non-increasing (order by groupCount desc).
  for (storage::RowIndex i = 1; i < final_table.num_rows(); ++i) {
    EXPECT_GE(final_table.value_at(i - 1, 1).as_int64(),
              final_table.value_at(i, 1).as_int64());
  }
}

TEST_F(QueryMixTest, Q2FindsSimilarProducts) {
  relational::ParamMap params = default_params();
  auto r = db_->run_script(berlin_q2(), params);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& final_table = *r->back().table;
  EXPECT_LE(final_table.num_rows(), 10u);
  // %Product1% itself is excluded by the id <> condition.
  for (storage::RowIndex i = 0; i < final_table.num_rows(); ++i) {
    EXPECT_NE(final_table.value_at(i, 0).as_string(), "p0");
  }
}

TEST_F(QueryMixTest, Q4ExportPairsAreCrossCountry) {
  auto r = db_->run_script(berlin_q4(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& t = *r->back().table;
  ASSERT_GT(t.num_rows(), 0u);
  for (storage::RowIndex i = 0; i < t.num_rows(); ++i) {
    EXPECT_NE(t.value_at(i, 0).as_string(), t.value_at(i, 1).as_string());
    // Fig. 5 collapse: each (exporter, importer) pair appears once in the
    // graph, so every flow count is exactly 1.
    EXPECT_EQ(t.value_at(i, 2).as_int64(), 1);
  }
}

TEST_F(QueryMixTest, Q9RegexCoversDescendantTypes) {
  // Type t1's subtree: children are t(1*4+1..4) etc. The query must find
  // at least the products directly typed t1.
  auto direct = db_->run_statement(
      "select ProductVtx.id from graph TypeVtx (id = 't1') <--type-- "
      "ProductVtx () into table Direct");
  ASSERT_TRUE(direct.is_ok());
  auto r = db_->run_script(berlin_q9(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GE(r->back().table->num_rows(),
            relational::distinct(*direct->table, "d")->num_rows());
}

TEST_F(QueryMixTest, QueryMixInvariantAcrossExecutionModes) {
  // The whole BI mix must return identical final tables with the planner
  // disabled (lexical order) and with parallel statement scheduling —
  // execution strategy is performance-only (Sec. III-B).
  auto render = [](const storage::Table& t) {
    std::string out;
    for (storage::RowIndex r = 0; r < t.num_rows(); ++r) {
      for (storage::ColumnIndex c = 0; c < t.num_columns(); ++c) {
        out += t.value_at(r, c).to_string();
        out += '|';
      }
      out += '\n';
    }
    return out;
  };

  std::vector<std::vector<std::string>> renders;
  for (int mode = 0; mode < 3; ++mode) {
    server::DatabaseOptions options;
    options.enable_planner = mode != 1;
    options.parallel_statements = mode == 2;
    auto db = make_populated_database(GeneratorConfig::derive(150, 31),
                                      options);
    ASSERT_TRUE(db.is_ok()) << db.status().to_string();
    std::vector<std::string> mode_renders;
    for (const auto& q : all_queries()) {
      auto r = (*db)->run_script(q.text, default_params());
      ASSERT_TRUE(r.is_ok()) << q.name << ": " << r.status().to_string();
      mode_renders.push_back(render(*r->back().table));
    }
    renders.push_back(std::move(mode_renders));
  }
  for (std::size_t q = 0; q < renders[0].size(); ++q) {
    EXPECT_EQ(renders[0][q], renders[1][q]) << "planner-off, query " << q;
    EXPECT_EQ(renders[0][q], renders[2][q]) << "parallel, query " << q;
  }
}

TEST_F(QueryMixTest, QueriesAreDeterministic) {
  auto r1 = db_->run_script(berlin_q5(), default_params());
  auto r2 = db_->run_script(berlin_q5(), default_params());
  ASSERT_TRUE(r1.is_ok() && r2.is_ok());
  const auto& a = *r1->back().table;
  const auto& b = *r2->back().table;
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (storage::RowIndex i = 0; i < a.num_rows(); ++i) {
    for (storage::ColumnIndex c = 0; c < a.num_columns(); ++c) {
      EXPECT_TRUE(a.value_at(i, c) == b.value_at(i, c));
    }
  }
}

// ---- Whole statements: vectorized engine vs the row engine ---------------
//
// Two databases over the same generated data, one per engine
// (DatabaseOptions::vectorized_execution); every statement's result must
// be the same table, bit for bit, and byte-identical to its boxed
// re-append. This covers the table-statement pipeline end to end: typed
// sort keys, the bounded top-n heap, the grouping sink and typed min/max
// against the row engine's comparator sort and hash-of-encoded-keys.

/// The nine Table-I statements of the end-to-end `table_scan` workload.
const char* const kTableScanStatements[] = {
    "select id, price from table Offers where price > %Price1%",
    "select id as offer, price as cost, vendor from table Offers",
    "select product, count(*) as n, avg(price) as mean from table Offers "
    "group by product",
    "select distinct vendor from table Offers",
    "select min(price) as lo, max(price) as hi, min(validFrom) as first, "
    "max(validTo) as last from table Offers",
    "select sum(deliveryDays) as days, avg(price) as mean from table Offers",
    "select top 10 id, price from table Offers order by price, id",
    "select top 5 vendor, count(*) as n, avg(price) as mean from table "
    "Offers where deliveryDays <= %Days1% group by vendor "
    "order by mean desc, vendor",
    "select top 10 reviewFor, avg(ratings_1) as score, count(*) as n "
    "from table Reviews group by reviewFor order by score desc, reviewFor",
};

/// Statements over `Adv`, a table of ties, NULLs, NaN (both signs), ±0.0,
/// ±inf and duplicate varchar keys.
const char* const kAdversarialStatements[] = {
    "select id, x from table Adv order by x",
    "select id, x from table Adv order by x desc",
    "select top 3 id, x from table Adv order by x",
    "select top 3 id, x from table Adv order by x desc, id",
    "select top 100 id, k from table Adv order by k, id desc",
    "select id from table Adv order by x desc, id",
    "select top 5 id from table Adv order by n, x",
    "select id as x, x as id from table Adv order by x",
    "select k, b from table Adv order by b desc, k",
    "select x * 2.0 as y, id from table Adv order by y desc, id",
    "select top 4 * from table Adv",
    "select top 1000 k from table Adv",
    "select distinct k from table Adv order by k desc",
    "select top 2 distinct k, b from table Adv order by k, b",
    "select distinct x from table Adv",
    "select top 3 distinct n from table Adv order by x",
    "select k, min(x) as lo, max(x) as hi, count(*) as c, count(x) as cx, "
    "sum(n) as s, avg(x) as m from table Adv group by k order by k",
    "select min(x) as a, max(x) as z, min(k) as c, max(k) as e, "
    "min(d) as f, max(d) as g, min(b) as h, max(b) as i, min(n) as j, "
    "max(n) as l from table Adv",
    "select min(x) as lo, count(*) as c, sum(x) as s from table Adv "
    "where n > 100",
    "select top 2 k, count(*) as c from table Adv group by k "
    "order by c desc, k",
    "select top 3 b, k, avg(n) as m from table Adv group by b, k "
    "order by m desc, b, k",
    "select top 3 distinct count(*) as c from table Adv group by k "
    "order by c",
    "select top 50 n, sum(x) as s from table Adv where x > -1.0 "
    "group by n order by s",
    "select sum(n + 1) as s, max(x * 2.0) as m from table Adv",
    "select k, max(n * 2) as m, min(x) as lo from table Adv group by k "
    "order by m, k",
};

/// Adv's rows: x cycles through the special doubles, k repeats with
/// NULLs, n ties heavily.
std::string adversarial_csv() {
  const char* const xs[] = {"nan", "1.5",  "-0.0", "",    "0.0", "nan",
                            "-inf", "inf", "1.5",  "-2",  "0",   "-nan",
                            "-0",   "7.25"};
  const char* const ks[] = {"b", "a", "", "b", "c", "a", "c", "bb", ""};
  const char* const bs[] = {"true", "false", "", "false"};
  std::string csv;
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + "," + ks[i % 9] + "," + xs[i % 14] + "," +
           (i % 7 == 3 ? "" : std::to_string(i % 4)) + ",2008-01-0" +
           std::to_string(1 + i % 5) + "," + bs[i % 4] + "\n";
  }
  return csv;
}

class EngineSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "gems_engine_sweep";
    fs::create_directories(dir);
    {
      std::FILE* f = std::fopen((dir / "adv.csv").string().c_str(), "w");
      GEMS_CHECK(f != nullptr);
      const std::string csv = adversarial_csv();
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
    }
    for (const bool vectorized : {true, false}) {
      server::DatabaseOptions options;
      options.vectorized_execution = vectorized;
      options.data_dir = dir.string();
      auto db =
          make_populated_database(GeneratorConfig::derive(300, 31), options);
      GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
      auto r = (*db)->run_script(
          "create table Adv(id int, k varchar(4), x double, n int, d date, "
          "b boolean)\n"
          "ingest table Adv 'adv.csv'");
      GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
      (vectorized ? vec_ : row_) = std::move(db).value().release();
    }
  }
  static void TearDownTestSuite() {
    delete vec_;
    delete row_;
    vec_ = row_ = nullptr;
  }

  static relational::ParamMap params() {
    relational::ParamMap p;
    p.emplace("Country1", Value::varchar("US"));
    p.emplace("Country2", Value::varchar("DE"));
    p.emplace("Product1", Value::varchar("p0"));
    p.emplace("Type1", Value::varchar("t1"));
    p.emplace("Producer1", Value::varchar("pr0"));
    p.emplace("Date1", Value::date(storage::civil_to_days(2008, 6, 15)));
    p.emplace("Price1", Value::float64(500.0));
    p.emplace("Days1", Value::int64(7));
    return p;
  }

  /// Runs `script` on both engines and compares every statement's table.
  static void expect_engines_agree(const std::string& script,
                                   const std::string& what) {
    auto v = vec_->run_script(script, params());
    auto r = row_->run_script(script, params());
    ASSERT_TRUE(v.is_ok()) << what << ": " << v.status().to_string();
    ASSERT_TRUE(r.is_ok()) << what << ": " << r.status().to_string();
    ASSERT_EQ(v->size(), r->size()) << what;
    for (std::size_t i = 0; i < v->size(); ++i) {
      const auto& vt = (*v)[i].table;
      const auto& rt = (*r)[i].table;
      ASSERT_EQ(vt == nullptr, rt == nullptr) << what;
      if (vt == nullptr) continue;
      const std::string where = what + " statement " + std::to_string(i);
      gems::testing::expect_same_result(*vt, *rt, where);
      gems::testing::expect_matches_boxed(*vt, where);
    }
  }

  static server::Database* vec_;
  static server::Database* row_;
};

server::Database* EngineSweepTest::vec_ = nullptr;
server::Database* EngineSweepTest::row_ = nullptr;

TEST_F(EngineSweepTest, BerlinQueriesAreByteIdentical) {
  for (const auto& q : all_queries()) expect_engines_agree(q.text, q.name);
}

TEST_F(EngineSweepTest, TableScanStatementsAreByteIdentical) {
  for (const char* stmt : kTableScanStatements) {
    expect_engines_agree(stmt, stmt);
  }
}

TEST_F(EngineSweepTest, AdversarialStatementsAreByteIdentical) {
  auto rows = vec_->run_statement("select count(*) as c from table Adv");
  ASSERT_TRUE(rows.is_ok()) << rows.status().to_string();
  ASSERT_EQ(rows->table->value_at(0, 0).as_int64(), 40);
  for (const char* stmt : kAdversarialStatements) {
    expect_engines_agree(stmt, stmt);
  }
}

TEST_F(EngineSweepTest, AdversarialOrderIsNullsFirstNaNLast) {
  // Spot-check the order itself, not only the engines' agreement: x
  // ascending is NULLs, -inf, the numbers with -0.0/+0.0 ties in id
  // order, +inf, then every NaN in id order.
  auto r = vec_->run_statement("select id, x from table Adv order by x");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const storage::Table& t = *r->table;
  ASSERT_EQ(t.num_rows(), 40u);
  EXPECT_TRUE(t.value_at(0, 1).is_null());
  EXPECT_EQ(t.value_at(3, 1).as_double(),
            -std::numeric_limits<double>::infinity());
  std::int64_t last_nan_id = -1;
  bool seen_nan = false;
  for (storage::RowIndex i = 1; i < t.num_rows(); ++i) {
    const Value x = t.value_at(i, 1);
    if (x.is_null()) {
      EXPECT_FALSE(seen_nan);
      continue;
    }
    if (std::isnan(x.as_double())) {
      seen_nan = true;
      EXPECT_GT(t.value_at(i, 0).as_int64(), last_nan_id);
      last_nan_id = t.value_at(i, 0).as_int64();
    } else {
      EXPECT_FALSE(seen_nan) << "number after NaN at row " << i;
    }
  }
  EXPECT_TRUE(seen_nan);
}

}  // namespace
}  // namespace gems::bsbm
