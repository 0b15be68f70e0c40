#include "graql/ir.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace gems::graql {

namespace {

using relational::Expr;
using relational::ExprPtr;
using storage::DataType;
using storage::TypeKind;
using storage::Value;

// ---- Writer ----------------------------------------------------------------

/// Appends to a caller-owned buffer, so a value can be encoded in place
/// (the WAL encodes one per ingested cell).
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : buf_(out) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void span(const SourceSpan& s) {
    u32(s.line);
    u32(s.column);
    u32(s.end_line);
    u32(s.end_column);
  }

  void strings(const std::vector<std::string>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) str(s);
  }

  void value(const Value& v) {
    if (v.is_null()) {
      u8(0);
      return;
    }
    switch (v.kind()) {
      case TypeKind::kBool:
        u8(1);
        boolean(v.as_bool());
        return;
      case TypeKind::kInt64:
        u8(2);
        i64(v.as_int64());
        return;
      case TypeKind::kDouble:
        u8(3);
        f64(v.as_double());
        return;
      case TypeKind::kVarchar:
        u8(4);
        str(v.as_string());
        return;
      case TypeKind::kDate:
        u8(5);
        i64(v.as_int64());
        return;
    }
    GEMS_UNREACHABLE("bad value kind");
  }

  void data_type(const DataType& t) {
    u8(static_cast<std::uint8_t>(t.kind));
    u32(t.varchar_length);
  }

  void expr(const ExprPtr& e) {
    if (!e) {
      u8(0);
      return;
    }
    switch (e->kind) {
      // Only leaves carry spans on the wire: unary/binary spans are the
      // covering range of their operands, which make_unary/make_binary
      // rederive identically on decode.
      case Expr::Kind::kLiteral:
        u8(1);
        expr_span(*e);
        value(e->literal);
        return;
      case Expr::Kind::kColumnRef:
        u8(2);
        expr_span(*e);
        str(e->qualifier);
        str(e->column);
        return;
      case Expr::Kind::kParameter:
        u8(3);
        expr_span(*e);
        str(e->param_name);
        return;
      case Expr::Kind::kUnary:
        u8(4);
        u8(static_cast<std::uint8_t>(e->uop));
        expr(e->lhs);
        return;
      case Expr::Kind::kBinary:
        u8(5);
        u8(static_cast<std::uint8_t>(e->bop));
        expr(e->lhs);
        expr(e->rhs);
        return;
    }
    GEMS_UNREACHABLE("bad expr kind");
  }

 private:
  void expr_span(const Expr& e) {
    u32(e.src_line);
    u32(e.src_column);
    u32(e.src_end_line);
    u32(e.src_end_column);
  }

  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }

  std::vector<std::uint8_t>& buf_;
};

// ---- Reader -----------------------------------------------------------------

// Bounds guard used by Reader methods (references Reader members). The
// offset pins down *where* a truncated/hostile input went bad, which is
// what a wire peer needs to debug a corrupt frame.
#define GEMS_RETURN_IF_SHORT(n)                                         \
  do {                                                                  \
    if ((n) > bytes_.size() - pos_)                                     \
      return parse_error("malformed IR: need " + std::to_string(n) +    \
                         " bytes but only " +                           \
                         std::to_string(bytes_.size() - pos_) +         \
                         " remain at byte offset " +                    \
                         std::to_string(pos_));                         \
  } while (0)

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  Result<std::uint8_t> u8() {
    GEMS_RETURN_IF_SHORT(1);
    return bytes_[pos_++];
  }
  Result<std::uint16_t> u16() { return fixed<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return fixed<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return fixed<std::uint64_t>(); }
  Result<std::int64_t> i64() { return fixed<std::int64_t>(); }
  Result<double> f64() { return fixed<double>(); }

  Result<bool> boolean() {
    GEMS_ASSIGN_OR_RETURN(std::uint8_t v, u8());
    return v != 0;
  }

  Result<SourceSpan> span() {
    SourceSpan s;
    GEMS_ASSIGN_OR_RETURN(s.line, u32());
    GEMS_ASSIGN_OR_RETURN(s.column, u32());
    GEMS_ASSIGN_OR_RETURN(s.end_line, u32());
    GEMS_ASSIGN_OR_RETURN(s.end_column, u32());
    return s;
  }

  Result<std::string> str() {
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, u32());
    // Reject the length prefix against the remaining buffer *before* the
    // string allocation: a mutated 4 GiB length must never reach new[].
    GEMS_RETURN_IF_SHORT(n);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Reads an element count and rejects it up front if even one byte per
  /// element would overrun the remaining buffer — so callers may size
  /// containers from it without trusting the wire.
  Result<std::uint32_t> count(const char* what) {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, u32());
    if (n > bytes_.size() - pos_) {
      return parse_error("malformed IR: " + std::string(what) + " count " +
                         std::to_string(n) + " exceeds remaining " +
                         std::to_string(bytes_.size() - pos_) +
                         " bytes at byte offset " + std::to_string(at));
    }
    return n;
  }

  Result<std::vector<std::string>> strings() {
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, count("string list"));
    std::vector<std::string> out;
    // Never trust a wire length for allocation (fuzz: a mutated count
    // must not trigger bad_alloc); the loop fails cleanly on truncation.
    out.reserve(std::min<std::uint32_t>(n, 1024));
    for (std::uint32_t i = 0; i < n; ++i) {
      GEMS_ASSIGN_OR_RETURN(std::string s, str());
      out.push_back(std::move(s));
    }
    return out;
  }

  Result<Value> value() {
    GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, u8());
    switch (tag) {
      case 0:
        return Value::null();
      case 1: {
        GEMS_ASSIGN_OR_RETURN(bool b, boolean());
        return Value::boolean(b);
      }
      case 2: {
        GEMS_ASSIGN_OR_RETURN(std::int64_t v, i64());
        return Value::int64(v);
      }
      case 3: {
        GEMS_ASSIGN_OR_RETURN(double v, f64());
        return Value::float64(v);
      }
      case 4: {
        GEMS_ASSIGN_OR_RETURN(std::string s, str());
        return Value::varchar(std::move(s));
      }
      case 5: {
        GEMS_ASSIGN_OR_RETURN(std::int64_t v, i64());
        return Value::date(v);
      }
      default:
        return malformed("value tag");
    }
  }

  Result<DataType> data_type() {
    GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, u8());
    GEMS_ASSIGN_OR_RETURN(std::uint32_t len, u32());
    if (kind > static_cast<std::uint8_t>(TypeKind::kDate)) {
      return malformed("type kind");
    }
    return DataType{static_cast<TypeKind>(kind), len};
  }

  Result<ExprPtr> expr() {
    GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, u8());
    switch (tag) {
      case 0:
        return ExprPtr(nullptr);
      case 1: {
        GEMS_ASSIGN_OR_RETURN(SourceSpan sp, span());
        GEMS_ASSIGN_OR_RETURN(Value v, value());
        return Expr::make_literal(std::move(v), sp.line, sp.column,
                                  sp.end_line, sp.end_column);
      }
      case 2: {
        GEMS_ASSIGN_OR_RETURN(SourceSpan sp, span());
        GEMS_ASSIGN_OR_RETURN(std::string qual, str());
        GEMS_ASSIGN_OR_RETURN(std::string col, str());
        return Expr::make_column(std::move(qual), std::move(col), sp.line,
                                 sp.column, sp.end_line, sp.end_column);
      }
      case 3: {
        GEMS_ASSIGN_OR_RETURN(SourceSpan sp, span());
        GEMS_ASSIGN_OR_RETURN(std::string name, str());
        return Expr::make_parameter(std::move(name), sp.line, sp.column,
                                    sp.end_line, sp.end_column);
      }
      case 4: {
        GEMS_ASSIGN_OR_RETURN(std::uint8_t op, u8());
        GEMS_ASSIGN_OR_RETURN(ExprPtr operand, expr());
        if (!operand) return malformed("unary without operand");
        if (op > static_cast<std::uint8_t>(relational::UnaryOp::kNeg)) {
          return malformed("unary op");
        }
        return Expr::make_unary(static_cast<relational::UnaryOp>(op),
                                std::move(operand));
      }
      case 5: {
        GEMS_ASSIGN_OR_RETURN(std::uint8_t op, u8());
        GEMS_ASSIGN_OR_RETURN(ExprPtr lhs, expr());
        GEMS_ASSIGN_OR_RETURN(ExprPtr rhs, expr());
        if (!lhs || !rhs) return malformed("binary without operands");
        if (op > static_cast<std::uint8_t>(relational::BinaryOp::kDiv)) {
          return malformed("binary op");
        }
        return Expr::make_binary(static_cast<relational::BinaryOp>(op),
                                 std::move(lhs), std::move(rhs));
      }
      default:
        return malformed("expr tag");
    }
  }

  static Status malformed(std::string what) {
    return parse_error("malformed IR: bad " + std::move(what));
  }

  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  Result<T> fixed() {
    GEMS_RETURN_IF_SHORT(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---- Statement encode/decode ---------------------------------------------

enum class StmtTag : std::uint8_t {
  kCreateTable = 1,
  kCreateVertex,
  kCreateEdge,
  kIngest,
  kGraphQuery,
  kTableQuery,
  kOutput,
};

void encode_vertex_step(Writer& w, const VertexStep& v) {
  w.span(v.span);
  w.boolean(v.variant);
  w.str(v.type_name);
  w.str(v.label_ref);
  w.str(v.seed_result);
  w.expr(v.condition);
  w.u8(static_cast<std::uint8_t>(v.label_kind));
  w.str(v.label);
}

Result<VertexStep> decode_vertex_step(Reader& r) {
  VertexStep v;
  GEMS_ASSIGN_OR_RETURN(v.span, r.span());
  GEMS_ASSIGN_OR_RETURN(v.variant, r.boolean());
  GEMS_ASSIGN_OR_RETURN(v.type_name, r.str());
  GEMS_ASSIGN_OR_RETURN(v.label_ref, r.str());
  GEMS_ASSIGN_OR_RETURN(v.seed_result, r.str());
  GEMS_ASSIGN_OR_RETURN(v.condition, r.expr());
  GEMS_ASSIGN_OR_RETURN(std::uint8_t lk, r.u8());
  if (lk > static_cast<std::uint8_t>(LabelKind::kForeach)) {
    return Reader::malformed("label kind");
  }
  v.label_kind = static_cast<LabelKind>(lk);
  GEMS_ASSIGN_OR_RETURN(v.label, r.str());
  return v;
}

void encode_edge_step(Writer& w, const EdgeStep& e) {
  w.span(e.span);
  w.boolean(e.variant);
  w.str(e.type_name);
  w.boolean(e.reversed);
  w.expr(e.condition);
  w.u8(static_cast<std::uint8_t>(e.label_kind));
  w.str(e.label);
}

Result<EdgeStep> decode_edge_step(Reader& r) {
  EdgeStep e;
  GEMS_ASSIGN_OR_RETURN(e.span, r.span());
  GEMS_ASSIGN_OR_RETURN(e.variant, r.boolean());
  GEMS_ASSIGN_OR_RETURN(e.type_name, r.str());
  GEMS_ASSIGN_OR_RETURN(e.reversed, r.boolean());
  GEMS_ASSIGN_OR_RETURN(e.condition, r.expr());
  GEMS_ASSIGN_OR_RETURN(std::uint8_t lk, r.u8());
  if (lk > static_cast<std::uint8_t>(LabelKind::kForeach)) {
    return Reader::malformed("label kind");
  }
  e.label_kind = static_cast<LabelKind>(lk);
  GEMS_ASSIGN_OR_RETURN(e.label, r.str());
  return e;
}

void encode_element(Writer& w, const PathElement& el);

void encode_group(Writer& w, const PathGroup& g) {
  w.span(g.span);
  w.u32(static_cast<std::uint32_t>(g.body.size()));
  for (const auto& el : g.body) encode_element(w, el);
  w.u8(static_cast<std::uint8_t>(g.quant));
  w.u32(g.count);
}

Result<PathGroup> decode_group(Reader& r, int depth);

Result<PathElement> decode_element(Reader& r, int depth) {
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (tag) {
    case 1: {
      GEMS_ASSIGN_OR_RETURN(VertexStep v, decode_vertex_step(r));
      return PathElement(std::move(v));
    }
    case 2: {
      GEMS_ASSIGN_OR_RETURN(EdgeStep e, decode_edge_step(r));
      return PathElement(std::move(e));
    }
    case 3: {
      if (depth > 4) return Reader::malformed("group nesting");
      GEMS_ASSIGN_OR_RETURN(PathGroup g, decode_group(r, depth + 1));
      return PathElement(std::move(g));
    }
    default:
      return Reader::malformed("path element tag");
  }
}

Result<PathGroup> decode_group(Reader& r, int depth) {
  PathGroup g;
  GEMS_ASSIGN_OR_RETURN(g.span, r.span());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("path group"));
  g.body.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(PathElement el, decode_element(r, depth));
    g.body.push_back(std::move(el));
  }
  GEMS_ASSIGN_OR_RETURN(std::uint8_t q, r.u8());
  if (q > static_cast<std::uint8_t>(PathGroup::Quant::kExact)) {
    return Reader::malformed("group quantifier");
  }
  g.quant = static_cast<PathGroup::Quant>(q);
  GEMS_ASSIGN_OR_RETURN(g.count, r.u32());
  return g;
}

void encode_element(Writer& w, const PathElement& el) {
  if (const auto* v = std::get_if<VertexStep>(&el)) {
    w.u8(1);
    encode_vertex_step(w, *v);
  } else if (const auto* e = std::get_if<EdgeStep>(&el)) {
    w.u8(2);
    encode_edge_step(w, *e);
  } else {
    w.u8(3);
    encode_group(w, std::get<PathGroup>(el));
  }
}

void encode_statement(Writer& w, const Statement& stmt) {
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateTable));
    w.str(s->name);
    w.u32(static_cast<std::uint32_t>(s->columns.size()));
    for (const auto& c : s->columns) {
      w.str(c.name);
      w.data_type(c.type);
    }
    return;
  }
  if (const auto* s = std::get_if<CreateVertexStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateVertex));
    w.str(s->decl.name);
    w.strings(s->decl.key_columns);
    w.str(s->decl.table);
    w.expr(s->decl.where);
    return;
  }
  if (const auto* s = std::get_if<CreateEdgeStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kCreateEdge));
    w.str(s->decl.name);
    w.str(s->decl.source.vertex_type);
    w.str(s->decl.source.alias);
    w.str(s->decl.target.vertex_type);
    w.str(s->decl.target.alias);
    w.strings(s->decl.assoc_tables);
    w.expr(s->decl.where);
    return;
  }
  if (const auto* s = std::get_if<IngestStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kIngest));
    w.str(s->table);
    w.str(s->path);
    w.boolean(s->has_header);
    return;
  }
  if (const auto* s = std::get_if<OutputStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kOutput));
    w.str(s->table);
    w.str(s->path);
    return;
  }
  if (const auto* s = std::get_if<GraphQueryStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kGraphQuery));
    w.u32(static_cast<std::uint32_t>(s->targets.size()));
    for (const auto& t : s->targets) {
      w.span(t.span);
      w.boolean(t.star);
      w.str(t.qualifier);
      w.str(t.column);
      w.str(t.alias);
    }
    w.u32(static_cast<std::uint32_t>(s->or_groups.size()));
    for (const auto& group : s->or_groups) {
      w.u32(static_cast<std::uint32_t>(group.size()));
      for (const auto& path : group) {
        w.u32(static_cast<std::uint32_t>(path.elements.size()));
        for (const auto& el : path.elements) encode_element(w, el);
      }
    }
    w.u8(static_cast<std::uint8_t>(s->into));
    w.str(s->into_name);
    return;
  }
  if (const auto* s = std::get_if<TableQueryStmt>(&stmt)) {
    w.u8(static_cast<std::uint8_t>(StmtTag::kTableQuery));
    w.u32(static_cast<std::uint32_t>(s->items.size()));
    for (const auto& item : s->items) {
      w.span(item.span);
      w.boolean(item.star);
      w.u8(static_cast<std::uint8_t>(item.agg));
      w.expr(item.expr);
      w.str(item.alias);
    }
    w.u64(s->top_n);
    w.boolean(s->distinct);
    w.str(s->from_table);
    w.expr(s->where);
    w.strings(s->group_by);
    w.u32(static_cast<std::uint32_t>(s->order_by.size()));
    for (const auto& o : s->order_by) {
      w.span(o.span);
      w.str(o.column);
      w.boolean(o.descending);
    }
    w.u8(static_cast<std::uint8_t>(s->into));
    w.str(s->into_name);
    return;
  }
  GEMS_UNREACHABLE("unhandled statement kind");
}

Result<Statement> decode_statement(Reader& r) {
  GEMS_ASSIGN_OR_RETURN(std::uint8_t tag, r.u8());
  switch (static_cast<StmtTag>(tag)) {
    case StmtTag::kCreateTable: {
      CreateTableStmt s;
      GEMS_ASSIGN_OR_RETURN(s.name, r.str());
      GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("column list"));
      for (std::uint32_t i = 0; i < n; ++i) {
        storage::ColumnDef def;
        GEMS_ASSIGN_OR_RETURN(def.name, r.str());
        GEMS_ASSIGN_OR_RETURN(def.type, r.data_type());
        s.columns.push_back(std::move(def));
      }
      return Statement(std::move(s));
    }
    case StmtTag::kCreateVertex: {
      CreateVertexStmt s;
      GEMS_ASSIGN_OR_RETURN(s.decl.name, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.key_columns, r.strings());
      GEMS_ASSIGN_OR_RETURN(s.decl.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.where, r.expr());
      return Statement(std::move(s));
    }
    case StmtTag::kCreateEdge: {
      CreateEdgeStmt s;
      GEMS_ASSIGN_OR_RETURN(s.decl.name, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.source.vertex_type, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.source.alias, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.target.vertex_type, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.target.alias, r.str());
      GEMS_ASSIGN_OR_RETURN(s.decl.assoc_tables, r.strings());
      GEMS_ASSIGN_OR_RETURN(s.decl.where, r.expr());
      return Statement(std::move(s));
    }
    case StmtTag::kIngest: {
      IngestStmt s;
      GEMS_ASSIGN_OR_RETURN(s.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.path, r.str());
      GEMS_ASSIGN_OR_RETURN(s.has_header, r.boolean());
      return Statement(std::move(s));
    }
    case StmtTag::kOutput: {
      OutputStmt s;
      GEMS_ASSIGN_OR_RETURN(s.table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.path, r.str());
      return Statement(std::move(s));
    }
    case StmtTag::kGraphQuery: {
      GraphQueryStmt s;
      GEMS_ASSIGN_OR_RETURN(std::uint32_t nt, r.count("select targets"));
      for (std::uint32_t i = 0; i < nt; ++i) {
        SelectTarget t;
        GEMS_ASSIGN_OR_RETURN(t.span, r.span());
        GEMS_ASSIGN_OR_RETURN(t.star, r.boolean());
        GEMS_ASSIGN_OR_RETURN(t.qualifier, r.str());
        GEMS_ASSIGN_OR_RETURN(t.column, r.str());
        GEMS_ASSIGN_OR_RETURN(t.alias, r.str());
        s.targets.push_back(std::move(t));
      }
      GEMS_ASSIGN_OR_RETURN(std::uint32_t ng, r.count("or-groups"));
      for (std::uint32_t g = 0; g < ng; ++g) {
        GEMS_ASSIGN_OR_RETURN(std::uint32_t np, r.count("paths"));
        std::vector<PathPattern> group;
        for (std::uint32_t p = 0; p < np; ++p) {
          GEMS_ASSIGN_OR_RETURN(std::uint32_t ne, r.count("path elements"));
          PathPattern path;
          for (std::uint32_t e = 0; e < ne; ++e) {
            GEMS_ASSIGN_OR_RETURN(PathElement el, decode_element(r, 0));
            path.elements.push_back(std::move(el));
          }
          group.push_back(std::move(path));
        }
        s.or_groups.push_back(std::move(group));
      }
      GEMS_ASSIGN_OR_RETURN(std::uint8_t into, r.u8());
      if (into > static_cast<std::uint8_t>(IntoKind::kTable)) {
        return Reader::malformed("into kind");
      }
      s.into = static_cast<IntoKind>(into);
      GEMS_ASSIGN_OR_RETURN(s.into_name, r.str());
      return Statement(std::move(s));
    }
    case StmtTag::kTableQuery: {
      TableQueryStmt s;
      GEMS_ASSIGN_OR_RETURN(std::uint32_t ni, r.count("select items"));
      for (std::uint32_t i = 0; i < ni; ++i) {
        SelectItem item;
        GEMS_ASSIGN_OR_RETURN(item.span, r.span());
        GEMS_ASSIGN_OR_RETURN(item.star, r.boolean());
        GEMS_ASSIGN_OR_RETURN(std::uint8_t agg, r.u8());
        if (agg > static_cast<std::uint8_t>(AggFunc::kMax)) {
          return Reader::malformed("aggregate function");
        }
        item.agg = static_cast<AggFunc>(agg);
        GEMS_ASSIGN_OR_RETURN(item.expr, r.expr());
        GEMS_ASSIGN_OR_RETURN(item.alias, r.str());
        s.items.push_back(std::move(item));
      }
      GEMS_ASSIGN_OR_RETURN(s.top_n, r.u64());
      GEMS_ASSIGN_OR_RETURN(s.distinct, r.boolean());
      GEMS_ASSIGN_OR_RETURN(s.from_table, r.str());
      GEMS_ASSIGN_OR_RETURN(s.where, r.expr());
      GEMS_ASSIGN_OR_RETURN(s.group_by, r.strings());
      GEMS_ASSIGN_OR_RETURN(std::uint32_t no, r.count("order-by list"));
      for (std::uint32_t i = 0; i < no; ++i) {
        OrderItem o;
        GEMS_ASSIGN_OR_RETURN(o.span, r.span());
        GEMS_ASSIGN_OR_RETURN(o.column, r.str());
        GEMS_ASSIGN_OR_RETURN(o.descending, r.boolean());
        s.order_by.push_back(std::move(o));
      }
      GEMS_ASSIGN_OR_RETURN(std::uint8_t into, r.u8());
      if (into > static_cast<std::uint8_t>(IntoKind::kTable)) {
        return Reader::malformed("into kind");
      }
      s.into = static_cast<IntoKind>(into);
      GEMS_ASSIGN_OR_RETURN(s.into_name, r.str());
      return Statement(std::move(s));
    }
    default:
      return Reader::malformed("statement tag");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_script(const Script& script) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(kIrMagic);
  w.u16(kIrVersion);
  w.u32(static_cast<std::uint32_t>(script.statements.size()));
  for (const auto& stmt : script.statements) {
    // Statement spans ride in the script frame (IR v2) so each decoded
    // statement diagnoses at its original source location.
    w.span(statement_span(stmt));
    encode_statement(w, stmt);
  }
  return out;
}

Result<Script> decode_script(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kIrMagic) return parse_error("not a GraQL IR blob");
  GEMS_ASSIGN_OR_RETURN(std::uint16_t version, r.u16());
  if (version != kIrVersion) {
    return parse_error("unsupported IR version " + std::to_string(version));
  }
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("statement list"));
  Script script;
  script.statements.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(SourceSpan sp, r.span());
    GEMS_ASSIGN_OR_RETURN(Statement stmt, decode_statement(r));
    std::visit([&](auto& st) { st.span = sp; }, stmt);
    script.statements.push_back(std::move(stmt));
  }
  if (!r.at_end()) return parse_error("trailing bytes after IR script");
  return script;
}

void encode_value(const storage::Value& v, std::vector<std::uint8_t>& out) {
  Writer(out).value(v);
}

Result<storage::Value> decode_value(std::span<const std::uint8_t> bytes,
                                    std::size_t& pos) {
  if (pos > bytes.size()) {
    return parse_error("malformed value: offset " + std::to_string(pos) +
                       " past end of " + std::to_string(bytes.size()) +
                       " bytes");
  }
  Reader r(bytes.subspan(pos));
  GEMS_ASSIGN_OR_RETURN(Value v, r.value());
  pos += r.position();
  return v;
}

std::vector<std::uint8_t> encode_params(const relational::ParamMap& params) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& [name, value] : params) {
    w.str(name);
    w.value(value);
  }
  return out;
}

Result<relational::ParamMap> decode_params(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("parameter map"));
  relational::ParamMap params;
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(std::string name, r.str());
    GEMS_ASSIGN_OR_RETURN(Value value, r.value());
    params.insert_or_assign(std::move(name), std::move(value));
  }
  if (!r.at_end()) return parse_error("trailing bytes after parameter map");
  return params;
}

}  // namespace gems::graql
