#include "net/wire.hpp"

#include <limits>
#include <utility>

#include "common/hash.hpp"

namespace gems::net {

namespace {

using storage::TypeKind;

}  // namespace

std::string_view verb_name(Verb verb) noexcept {
  switch (verb) {
    case Verb::kHandshake:
      return "handshake";
    case Verb::kRunScript:
      return "run-script";
    case Verb::kCheck:
      return "check";
    case Verb::kExplain:
      return "explain";
    case Verb::kCatalog:
      return "catalog";
    case Verb::kStats:
      return "stats";
    case Verb::kCancel:
      return "cancel";
    case Verb::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

// ---- Frame I/O -------------------------------------------------------------

Status send_frame(const Socket& socket, Verb verb, bool is_response,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.buffer().reserve(kFrameHeaderBytes + payload.size());
  w.u32(kFrameMagic);
  w.u16(kWireVersion);
  w.u8(static_cast<std::uint8_t>(verb));
  w.u8(is_response ? 1 : 0);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.buffer().insert(w.buffer().end(), payload.begin(), payload.end());
  return send_all(socket, w.buffer());
}

Result<Frame> recv_frame(const Socket& socket, std::size_t max_frame_bytes) {
  std::uint8_t header[kFrameHeaderBytes];
  GEMS_RETURN_IF_ERROR(recv_all(socket, header));
  ByteReader r(header, "frame");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kFrameMagic) {
    return parse_error("bad frame magic at byte offset 0 (not a GEMS wire "
                       "peer?)");
  }
  Frame frame;
  GEMS_ASSIGN_OR_RETURN(frame.header.version, r.u16());
  if (frame.header.version != kWireVersion) {
    return parse_error("unsupported wire version " +
                       std::to_string(frame.header.version) +
                       " at byte offset 4 (this peer speaks " +
                       std::to_string(kWireVersion) + ")");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint8_t verb, r.u8());
  if (verb >= kNumVerbs) {
    return parse_error("unknown verb " + std::to_string(verb) +
                       " at byte offset 6");
  }
  frame.header.verb = static_cast<Verb>(verb);
  GEMS_ASSIGN_OR_RETURN(std::uint8_t flags, r.u8());
  frame.header.is_response = (flags & 1) != 0;
  GEMS_ASSIGN_OR_RETURN(frame.header.request_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(frame.header.payload_size, r.u32());
  // The frame budget is the admission line for memory: a hostile length
  // is rejected here, before any allocation.
  if (frame.header.payload_size > max_frame_bytes) {
    return parse_error("frame payload length " +
                       std::to_string(frame.header.payload_size) +
                       " exceeds the frame budget of " +
                       std::to_string(max_frame_bytes) +
                       " bytes at byte offset 16");
  }
  frame.payload.resize(frame.header.payload_size);
  GEMS_RETURN_IF_ERROR(recv_all(socket, frame.payload));
  return frame;
}

// ---- Request payloads ------------------------------------------------------

std::vector<std::uint8_t> encode_handshake_request(const HandshakeRequest& r) {
  ByteWriter w;
  w.u16(r.wire_version);
  w.str(r.client_name);
  return w.take();
}

Result<HandshakeRequest> decode_handshake_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "frame");
  HandshakeRequest out;
  GEMS_ASSIGN_OR_RETURN(out.wire_version, r.u16());
  GEMS_ASSIGN_OR_RETURN(out.client_name, r.str());
  return out;
}

std::vector<std::uint8_t> encode_handshake_response(
    const HandshakeResponse& r) {
  ByteWriter w;
  w.u16(r.wire_version);
  w.u64(r.session_id);
  w.str(r.server_name);
  return w.take();
}

Result<HandshakeResponse> decode_handshake_response(ByteReader& reader) {
  HandshakeResponse out;
  GEMS_ASSIGN_OR_RETURN(out.wire_version, reader.u16());
  GEMS_ASSIGN_OR_RETURN(out.session_id, reader.u64());
  GEMS_ASSIGN_OR_RETURN(out.server_name, reader.str());
  return out;
}

std::vector<std::uint8_t> encode_script_request(const ScriptRequest& r) {
  ByteWriter w;
  w.blob(r.ir);
  w.blob(r.params);
  w.u32(r.deadline_ms);
  return w.take();
}

Result<ScriptRequest> decode_script_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "frame");
  ScriptRequest out;
  GEMS_ASSIGN_OR_RETURN(out.ir, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.params, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.deadline_ms, r.u32());
  return out;
}

std::vector<std::uint8_t> encode_cancel_request(const CancelRequest& r) {
  ByteWriter w;
  w.u64(r.target_request_id);
  return w.take();
}

Result<CancelRequest> decode_cancel_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "frame");
  CancelRequest out;
  GEMS_ASSIGN_OR_RETURN(out.target_request_id, r.u64());
  return out;
}

// ---- Response payloads -----------------------------------------------------

void encode_status(const Status& status, ByteWriter& w) {
  w.u16(static_cast<std::uint16_t>(status.code()));
  w.str(status.message());
}

Status decode_status(ByteReader& reader) {
  const std::size_t at = reader.position();
  auto code = reader.u16("status code");
  if (!code.is_ok()) return code.status();
  auto message = reader.str("status message");
  if (!message.is_ok()) return message.status();
  if (*code > static_cast<std::uint16_t>(StatusCode::kUnavailable)) {
    return reader.error("unknown status code " + std::to_string(*code), at);
  }
  return Status(static_cast<StatusCode>(*code), std::move(*message));
}

namespace {

std::size_t bit_words(std::uint64_t bits) { return (bits + 63) / 64; }

/// A varchar column's string dictionary: codes in first-use order, looked
/// up through an open-addressing table of (id + 1) << 32 | code slots
/// (0 = empty) kept at most 3/4 full — one allocation per growth instead
/// of one node per distinct string.
class Dictionary {
 public:
  std::uint32_t code(StringId id) {
    if (4 * (strings_.size() + 1) > 3 * slots_.size()) grow();
    const std::uint64_t key = std::uint64_t{id} + 1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(id) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        const auto code = static_cast<std::uint32_t>(strings_.size());
        slots_[i] = key << 32 | code;
        strings_.push_back(id);
        return code;
      }
      if (slots_[i] >> 32 == key) return static_cast<std::uint32_t>(slots_[i]);
    }
  }

  const std::vector<StringId>& strings() const { return strings_; }

 private:
  void grow() {
    const std::vector<std::uint64_t> old = std::exchange(
        slots_, std::vector<std::uint64_t>(slots_.size() * 2, 0));
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t slot : old) {
      if (slot == 0) continue;
      std::size_t i = mix64((slot >> 32) - 1) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(64, 0);
  std::vector<StringId> strings_;
};

void encode_column(const storage::Column& col, ByteWriter& w,
                   const StringPool& pool) {
  const std::span<const std::uint64_t> valid = col.validity().words();
  w.raw(valid.data(), valid.size_bytes());
  const std::size_t n = col.size();
  switch (col.type().kind) {
    case TypeKind::kBool: {
      std::vector<std::uint64_t> bits(bit_words(n), 0);
      const auto data = col.int_span();
      for (std::size_t i = 0; i < n; ++i) {
        bits[i >> 6] |= static_cast<std::uint64_t>(data[i] != 0) << (i & 63);
      }
      w.raw(bits.data(), bits.size() * sizeof(std::uint64_t));
      return;
    }
    case TypeKind::kInt64:
    case TypeKind::kDate:
      w.raw(col.int_span().data(), col.int_span().size_bytes());
      return;
    case TypeKind::kDouble:
      w.raw(col.double_span().data(), col.double_span().size_bytes());
      return;
    case TypeKind::kVarchar: {
      // One code per row; each distinct string then crosses the wire
      // once per column.
      const auto ids = col.string_span();
      std::vector<std::uint32_t> codes(n);
      Dictionary dictionary;
      for (std::size_t i = 0; i < n; ++i) {
        if (!col.is_null(static_cast<storage::RowIndex>(i))) {
          codes[i] = dictionary.code(ids[i]);
        }
      }
      w.raw(codes.data(), n * sizeof(std::uint32_t));
      w.u32(static_cast<std::uint32_t>(dictionary.strings().size()));
      for (const StringId id : dictionary.strings()) w.str(pool.view(id));
      return;
    }
  }
}

void encode_table(const storage::Table& table, ByteWriter& w) {
  w.str(table.name());
  w.u32(static_cast<std::uint32_t>(table.schema().num_columns()));
  for (const auto& col : table.schema().columns()) {
    w.str(col.name);
    w.u8(static_cast<std::uint8_t>(col.type.kind));
    w.u32(col.type.varchar_length);
  }
  w.u64(table.num_rows());
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    encode_column(table.column(static_cast<storage::ColumnIndex>(c)), w,
                  table.pool());
  }
}

/// Zeroes the payload of NULL lanes, the form every column writer stores.
template <typename T>
void clear_null_lanes(std::vector<T>& data, const DynamicBitset& valid,
                      T null_payload) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!valid.test(i)) data[i] = null_payload;
  }
}

Status decode_column(ByteReader& reader, std::uint64_t n,
                     storage::Column& col, StringPool& pool) {
  const std::size_t valid_at = reader.position();
  GEMS_ASSIGN_OR_RETURN(
      std::vector<std::uint64_t> words,
      reader.array<std::uint64_t>(bit_words(n), "validity block"));
  auto valid = DynamicBitset::from_words(static_cast<std::size_t>(n),
                                         std::move(words));
  if (!valid.is_ok()) {
    return reader.error("validity block: " + valid.status().message(),
                        valid_at);
  }
  switch (col.type().kind) {
    case TypeKind::kBool: {
      GEMS_ASSIGN_OR_RETURN(
          std::vector<std::uint64_t> bits,
          reader.array<std::uint64_t>(bit_words(n), "bool payload"));
      std::vector<std::int64_t> data(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::int64_t>((bits[i >> 6] >> (i & 63)) & 1u);
      }
      clear_null_lanes<std::int64_t>(data, *valid, 0);
      return col.load_ints(std::move(data), std::move(valid).value());
    }
    case TypeKind::kInt64:
    case TypeKind::kDate: {
      GEMS_ASSIGN_OR_RETURN(std::vector<std::int64_t> data,
                            reader.array<std::int64_t>(n, "payload"));
      clear_null_lanes<std::int64_t>(data, *valid, 0);
      return col.load_ints(std::move(data), std::move(valid).value());
    }
    case TypeKind::kDouble: {
      GEMS_ASSIGN_OR_RETURN(std::vector<double> data,
                            reader.array<double>(n, "payload"));
      clear_null_lanes<double>(data, *valid, 0.0);
      return col.load_doubles(std::move(data), std::move(valid).value());
    }
    case TypeKind::kVarchar: {
      const std::size_t codes_at = reader.position();
      GEMS_ASSIGN_OR_RETURN(std::vector<std::uint32_t> codes,
                            reader.array<std::uint32_t>(n, "string codes"));
      GEMS_ASSIGN_OR_RETURN(std::uint32_t dict_size,
                            reader.count("string dictionary", 4));
      std::vector<StringId> dictionary;
      dictionary.reserve(dict_size);
      for (std::uint32_t d = 0; d < dict_size; ++d) {
        const std::size_t at = reader.position();
        GEMS_ASSIGN_OR_RETURN(std::uint32_t len, reader.u32());
        GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> text,
                              reader.bytes(len, "dictionary string"));
        if (len > col.type().varchar_length) {
          return reader.error("dictionary string of " + std::to_string(len) +
                                  " bytes exceeds " + col.type().to_string(),
                              at);
        }
        dictionary.push_back(pool.intern(std::string_view(
            reinterpret_cast<const char*>(text.data()), text.size())));
      }
      std::vector<StringId> data(static_cast<std::size_t>(n),
                                 kInvalidStringId);
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (!valid->test(i)) continue;
        if (codes[i] >= dictionary.size()) {
          return reader.error("string code " + std::to_string(codes[i]) +
                                  " >= dictionary size " +
                                  std::to_string(dictionary.size()) +
                                  " in row " + std::to_string(i) +
                                  " of the codes",
                              codes_at);
        }
        data[i] = dictionary[codes[i]];
      }
      return col.load_strings(std::move(data), std::move(valid).value());
    }
  }
  return reader.error("bad column kind", reader.position());
}

Result<storage::TablePtr> decode_table(ByteReader& reader, StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(std::string table_name, reader.str());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t ncols, reader.count("column list"));
  std::vector<storage::ColumnDef> columns;
  columns.reserve(ncols);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    storage::ColumnDef def;
    GEMS_ASSIGN_OR_RETURN(def.name, reader.str());
    GEMS_ASSIGN_OR_RETURN(std::uint8_t type_kind, reader.u8("type kind"));
    if (type_kind > static_cast<std::uint8_t>(TypeKind::kDate)) {
      return reader.error("bad column type kind " + std::to_string(type_kind),
                          reader.position() - 1);
    }
    def.type.kind = static_cast<TypeKind>(type_kind);
    GEMS_ASSIGN_OR_RETURN(def.type.varchar_length, reader.u32());
    columns.push_back(std::move(def));
  }
  GEMS_ASSIGN_OR_RETURN(storage::Schema schema,
                        storage::Schema::create(std::move(columns)));
  const std::size_t at = reader.position();
  GEMS_ASSIGN_OR_RETURN(std::uint64_t nrows, reader.u64());
  // Rows are addressed by 32-bit RowIndex; the per-column blocks below
  // are each checked against the remaining bytes before allocating.
  if (nrows > std::numeric_limits<storage::RowIndex>::max()) {
    return reader.error("row count " + std::to_string(nrows) +
                            " exceeds the row index range",
                        at);
  }
  auto table = std::make_shared<storage::Table>(std::move(table_name),
                                                std::move(schema), pool);
  if (table->num_columns() == 0) {
    table->bump_rows(static_cast<std::size_t>(nrows));
    return table;
  }
  for (std::size_t c = 0; c < table->num_columns(); ++c) {
    GEMS_RETURN_IF_ERROR(decode_column(
        reader, nrows,
        table->column_mut(static_cast<storage::ColumnIndex>(c)), pool));
  }
  GEMS_RETURN_IF_ERROR(table->finish_restore());
  return table;
}

}  // namespace

void encode_results(const std::vector<exec::StatementResult>& results,
                    ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) {
    w.u8(static_cast<std::uint8_t>(r.kind));
    w.boolean(r.truncated);
    w.u8(static_cast<std::uint8_t>(r.into));
    w.str(r.into_name);
    w.str(r.message);
    const storage::Table* table = r.table.get();
    w.boolean(table != nullptr);
    if (table != nullptr) encode_table(*table, w);
    const bool has_subgraph = r.subgraph != nullptr;
    w.boolean(has_subgraph);
    if (has_subgraph) {
      w.u64(r.subgraph->num_vertices());
      w.u64(r.subgraph->num_edges());
    }
  }
}

Result<std::vector<exec::StatementResult>> decode_results(ByteReader& reader,
                                                          StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, reader.count("result list"));
  std::vector<exec::StatementResult> results;
  results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    exec::StatementResult result;
    GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, reader.u8("result kind"));
    if (kind > static_cast<std::uint8_t>(
                   exec::StatementResult::Kind::kSubgraph)) {
      return reader.error("bad result kind " + std::to_string(kind),
                          reader.position() - 1);
    }
    result.kind = static_cast<exec::StatementResult::Kind>(kind);
    GEMS_ASSIGN_OR_RETURN(result.truncated, reader.boolean());
    GEMS_ASSIGN_OR_RETURN(std::uint8_t into, reader.u8("into kind"));
    if (into > static_cast<std::uint8_t>(graql::IntoKind::kTable)) {
      return reader.error("bad into kind " + std::to_string(into),
                          reader.position() - 1);
    }
    result.into = static_cast<graql::IntoKind>(into);
    GEMS_ASSIGN_OR_RETURN(result.into_name, reader.str());
    GEMS_ASSIGN_OR_RETURN(result.message, reader.str());
    GEMS_ASSIGN_OR_RETURN(bool has_table, reader.boolean());
    if (has_table) {
      GEMS_ASSIGN_OR_RETURN(result.table, decode_table(reader, pool));
    }
    GEMS_ASSIGN_OR_RETURN(bool has_subgraph, reader.boolean());
    if (has_subgraph) {
      // The vertex/edge sets stay server-side; clients get the summary.
      GEMS_ASSIGN_OR_RETURN(std::uint64_t nverts, reader.u64());
      GEMS_ASSIGN_OR_RETURN(std::uint64_t nedges, reader.u64());
      if (result.message.empty()) {
        result.message = "subgraph '" + result.into_name + "': " +
                         std::to_string(nverts) + " vertices, " +
                         std::to_string(nedges) + " edges (server-side)";
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

void encode_catalog(const std::vector<server::CatalogEntry>& entries,
                    ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.str(e.name);
    w.u64(e.instances);
    w.u64(e.byte_size);
  }
}

Result<std::vector<server::CatalogEntry>> decode_catalog(ByteReader& reader) {
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, reader.count("catalog list"));
  std::vector<server::CatalogEntry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    server::CatalogEntry e;
    GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, reader.u8("catalog kind"));
    if (kind > static_cast<std::uint8_t>(
                   server::CatalogEntry::Kind::kSubgraph)) {
      return reader.error("bad catalog kind " + std::to_string(kind),
                          reader.position() - 1);
    }
    e.kind = static_cast<server::CatalogEntry::Kind>(kind);
    GEMS_ASSIGN_OR_RETURN(e.name, reader.str());
    GEMS_ASSIGN_OR_RETURN(std::uint64_t instances, reader.u64());
    GEMS_ASSIGN_OR_RETURN(std::uint64_t byte_size, reader.u64());
    e.instances = static_cast<std::size_t>(instances);
    e.byte_size = static_cast<std::size_t>(byte_size);
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace gems::net
