#include "dist/dist_aggregate.hpp"

#include <algorithm>
#include <map>

#include "relational/row_key.hpp"

namespace gems::dist {

namespace {

using relational::AggKind;
using relational::AggSpec;
using storage::ColumnDef;
using storage::ColumnIndex;
using storage::DataType;
using storage::RowIndex;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::TypeKind;
using storage::Value;

constexpr int kTagPartials = 11;

/// Mergeable partial aggregate state. Min/max carry a boxed value encoded
/// as (kind, raw bits); varchar payloads are interned ids, valid across
/// ranks because the pool is shared.
struct Partial {
  std::int64_t count = 0;
  std::int64_t isum = 0;
  double dsum = 0;
  bool has_value = false;
  Value min;
  Value max;
};

struct GroupState {
  RowIndex representative = 0;
  std::vector<Partial> partials;
};

/// min/max's `<`: native on doubles, as relational::aggregate's typed
/// states use it (first seen wins among ±0.0 and against a NaN), not
/// ORDER BY's total order.
bool value_less(const Value& a, const Value& b) {
  if (a.kind() == TypeKind::kDouble && b.kind() == TypeKind::kDouble) {
    return a.as_double() < b.as_double();
  }
  return a.compare(b) < 0;
}

void accumulate(const Table& src, RowIndex row,
                std::span<const AggSpec> aggs, GroupState& state) {
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    Partial& p = state.partials[a];
    if (spec.kind == AggKind::kCountStar) {
      ++p.count;
      continue;
    }
    const storage::Column& col = src.column(spec.input);
    if (col.is_null(row)) continue;
    switch (spec.kind) {
      case AggKind::kCount:
        ++p.count;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++p.count;
        if (col.type().kind == TypeKind::kDouble) {
          p.dsum += col.double_at(row);
        } else {
          p.isum += col.int64_at(row);
          p.dsum += static_cast<double>(col.int64_at(row));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const Value v = src.value_at(row, spec.input);
        if (!p.has_value) {
          p.min = v;
          p.max = v;
          p.has_value = true;
        } else {
          if (value_less(v, p.min)) p.min = v;
          if (value_less(p.max, v)) p.max = v;
        }
        break;
      }
      default:
        GEMS_UNREACHABLE("handled above");
    }
  }
}

void merge(Partial& into, const Partial& from) {
  into.count += from.count;
  into.isum += from.isum;
  into.dsum += from.dsum;
  if (from.has_value) {
    if (!into.has_value) {
      into.min = from.min;
      into.max = from.max;
      into.has_value = true;
    } else {
      if (value_less(from.min, into.min)) into.min = from.min;
      if (value_less(into.max, from.max)) into.max = from.max;
    }
  }
}

// ---- Partials wire format ---------------------------------------------------
// Per group: u32 key length + key bytes, u32 representative row, then per
// aggregate: i64 count, i64 isum, f64 dsum, u8 has_value, and min and max
// as (u8 kind, u64 raw bits) — varchar payloads are interned ids.

void put_value(ByteWriter& w, const Value& v, StringPool& pool) {
  if (v.is_null()) {
    w.u8(0);
    w.u64(0);
    return;
  }
  switch (v.kind()) {
    case TypeKind::kBool:
      w.u8(1);
      w.u64(v.as_bool() ? 1 : 0);
      return;
    case TypeKind::kInt64:
      w.u8(2);
      w.i64(v.as_int64());
      return;
    case TypeKind::kDate:
      w.u8(3);
      w.i64(v.as_int64());
      return;
    case TypeKind::kDouble:
      w.u8(4);
      w.f64(v.as_double());
      return;
    case TypeKind::kVarchar:
      w.u8(5);
      w.u64(pool.intern(v.as_string()));
      return;
  }
}

Result<Value> get_value(ByteReader& r, const StringPool& pool) {
  const std::size_t at = r.position();
  GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, r.u8("value kind"));
  switch (kind) {
    case 0:
      GEMS_RETURN_IF_ERROR(r.u64("null payload").status());
      return Value::null();
    case 1: {
      GEMS_ASSIGN_OR_RETURN(std::uint64_t raw, r.u64("bool"));
      return Value::boolean(raw != 0);
    }
    case 2: {
      GEMS_ASSIGN_OR_RETURN(std::int64_t v, r.i64("int64"));
      return Value::int64(v);
    }
    case 3: {
      GEMS_ASSIGN_OR_RETURN(std::int64_t v, r.i64("date"));
      return Value::date(v);
    }
    case 4: {
      GEMS_ASSIGN_OR_RETURN(double v, r.f64("double"));
      return Value::float64(v);
    }
    case 5: {
      GEMS_ASSIGN_OR_RETURN(std::uint64_t id, r.u64("string id"));
      if (id >= pool.size()) {
        return r.error("string id " + std::to_string(id) + " outside pool", at);
      }
      return Value::varchar(std::string(pool.view(static_cast<StringId>(id))));
    }
    default:
      return r.error("bad value kind " + std::to_string(kind), at);
  }
}

/// Merges one rank's shipped partials into `merged`.
Status merge_partials(std::span<const std::uint8_t> payload,
                      std::size_t num_aggs, const StringPool& pool,
                      std::map<std::string, GroupState>& merged) {
  ByteReader r(payload, "partials payload");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t groups, r.count("group list", 8));
  for (std::uint32_t g = 0; g < groups; ++g) {
    GEMS_ASSIGN_OR_RETURN(std::string key, r.str("group key"));
    GEMS_ASSIGN_OR_RETURN(RowIndex representative, r.u32("representative"));
    auto [it, inserted] = merged.emplace(std::move(key), GroupState{});
    if (inserted) {
      it->second.representative = representative;
      it->second.partials.resize(num_aggs);
    }
    for (std::size_t a = 0; a < num_aggs; ++a) {
      Partial p;
      GEMS_ASSIGN_OR_RETURN(p.count, r.i64("count"));
      GEMS_ASSIGN_OR_RETURN(p.isum, r.i64("integer sum"));
      GEMS_ASSIGN_OR_RETURN(p.dsum, r.f64("double sum"));
      GEMS_ASSIGN_OR_RETURN(p.has_value, r.boolean("has value"));
      GEMS_ASSIGN_OR_RETURN(p.min, get_value(r, pool));
      GEMS_ASSIGN_OR_RETURN(p.max, get_value(r, pool));
      merge(it->second.partials[a], p);
    }
  }
  if (!r.at_end()) return r.error("trailing bytes", r.position());
  return Status::ok();
}

Result<DataType> agg_output_type(const AggSpec& spec, const Table& src) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return DataType::int64();
    case AggKind::kSum: {
      const DataType& in = src.schema().column(spec.input).type;
      if (!in.is_numeric()) {
        return type_error("sum() requires a numeric column");
      }
      return in;
    }
    case AggKind::kAvg: {
      const DataType& in = src.schema().column(spec.input).type;
      if (!in.is_numeric()) {
        return type_error("avg() requires a numeric column");
      }
      return DataType::float64();
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return src.schema().column(spec.input).type;
  }
  GEMS_UNREACHABLE("bad agg kind");
}

}  // namespace

Result<TablePtr> distributed_group_by(const Table& src,
                                      std::span<const ColumnIndex> keys,
                                      std::span<const AggSpec> aggs,
                                      std::string name,
                                      std::size_t num_ranks,
                                      DistStats* stats) {
  // Output schema (mirrors relational::group_by).
  std::vector<ColumnDef> defs;
  defs.reserve(keys.size() + aggs.size());
  for (const auto k : keys) defs.push_back(src.schema().column(k));
  for (const auto& a : aggs) {
    GEMS_ASSIGN_OR_RETURN(DataType type, agg_output_type(a, src));
    defs.push_back({a.output_name, type});
  }
  GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(std::move(defs)));

  SimCluster cluster(num_ranks);
  // Rank 0's merged groups (ordered by key bytes for determinism).
  std::map<std::string, GroupState> merged;
  Status merged_status = Status::ok();  // rank 0's decode of the partials
  StringPool& pool = src.pool();

  cluster.run([&](RankCtx& ctx) {
    const int rank = ctx.rank();
    const int n = ctx.size();
    // Stripe of rows owned by this rank.
    const std::size_t rows = src.num_rows();
    const std::size_t begin = rows * rank / n;
    const std::size_t end = rows * (rank + 1) / n;

    std::map<std::string, GroupState> local;
    for (std::size_t r = begin; r < end; ++r) {
      const RowIndex row = static_cast<RowIndex>(r);
      std::string key = relational::encode_row_key(src, row, keys);
      auto [it, inserted] = local.emplace(std::move(key), GroupState{});
      if (inserted) {
        it->second.representative = row;
        it->second.partials.resize(aggs.size());
      }
      accumulate(src, row, aggs, it->second);
    }

    if (rank != 0) {
      // Ship partials to rank 0.
      ByteWriter payload;
      payload.u32(static_cast<std::uint32_t>(local.size()));
      for (const auto& [key, state] : local) {
        payload.str(key);
        payload.u32(state.representative);
        for (const Partial& p : state.partials) {
          payload.i64(p.count);
          payload.i64(p.isum);
          payload.f64(p.dsum);
          payload.boolean(p.has_value);
          put_value(payload, p.min, pool);
          put_value(payload, p.max, pool);
        }
      }
      ctx.send(0, kTagPartials, payload.buffer());
      return;
    }

    merged = std::move(local);
    for (int i = 0; i < n - 1; ++i) {
      Message m = ctx.recv();
      GEMS_CHECK(m.tag == kTagPartials);
      if (merged_status.is_ok()) {
        merged_status = merge_partials(m.payload, aggs.size(), pool, merged);
      }
    }
  });
  GEMS_RETURN_IF_ERROR(merged_status);

  // SQL scalar aggregation: one row even for empty input.
  if (keys.empty() && merged.empty()) {
    GroupState state;
    state.partials.resize(aggs.size());
    merged.emplace("", std::move(state));
  }

  auto out = std::make_shared<Table>(std::move(name), std::move(schema),
                                     pool);
  for (const auto& [key, state] : merged) {
    std::vector<Value> row;
    row.reserve(keys.size() + aggs.size());
    for (const auto k : keys) {
      row.push_back(src.value_at(state.representative, k));
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      const Partial& p = state.partials[a];
      switch (spec.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value::int64(p.count));
          break;
        case AggKind::kSum:
          if (p.count == 0) {
            row.push_back(Value::null());
          } else if (src.column(spec.input).type().kind ==
                     TypeKind::kDouble) {
            row.push_back(Value::float64(p.dsum));
          } else {
            row.push_back(Value::int64(p.isum));
          }
          break;
        case AggKind::kAvg:
          row.push_back(p.count == 0
                            ? Value::null()
                            : Value::float64(p.dsum /
                                             static_cast<double>(p.count)));
          break;
        case AggKind::kMin:
          row.push_back(p.has_value ? p.min : Value::null());
          break;
        case AggKind::kMax:
          row.push_back(p.has_value ? p.max : Value::null());
          break;
      }
    }
    out->append_row_unchecked(row);
  }

  if (stats != nullptr) {
    stats->ranks = num_ranks;
    stats->messages = cluster.total_messages();
    stats->bytes = cluster.total_bytes();
    stats->bytes_per_rank.clear();
    for (const auto& s : cluster.rank_stats()) {
      stats->bytes_per_rank.push_back(s.bytes);
    }
  }
  return out;
}

}  // namespace gems::dist
