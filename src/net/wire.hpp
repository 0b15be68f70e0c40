// The GEMS wire protocol: length-prefixed, versioned binary frames
// carrying the front-end/backend hand-off of the paper (Sec. III) across
// a real TCP connection. A request's run-script payload is exactly the
// binary IR produced by `graql::encode_script` plus encoded parameter
// bindings; responses carry `exec::StatementResult` tables / subgraph
// summaries and a structured `Status`.
//
// Frame layout (little-endian, matching the IR):
//   u32 magic      "GNET" (0x474E4554)
//   u16 version    wire protocol version (2)
//   u8  verb       request verb (also echoed on the response)
//   u8  flags      bit 0: response
//   u64 request_id client-assigned, echoed on the response
//   u32 payload    payload byte length (bounded by the frame budget)
//   payload bytes
//
// Every decoder here rejects hostile lengths — a length prefix larger
// than the remaining buffer or the configured frame budget — *before*
// allocating, and reports the byte offset of the offending field.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "exec/executor.hpp"
#include "net/socket.hpp"
#include "server/database.hpp"

namespace gems::net {

inline constexpr std::uint32_t kFrameMagic = 0x474E4554;  // "GNET"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Default frame budget: the largest payload either side will accept.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// Request verbs (paper Sec. III: clients submit scripts; the server
/// checks, compiles, executes — plus the operational verbs a real service
/// needs).
enum class Verb : std::uint8_t {
  kHandshake = 0,  // version negotiation, opens a session
  kRunScript,      // execute IR + params, return results
  kCheck,          // static analysis only
  kExplain,        // plan rendering only
  kCatalog,        // list catalog objects with sizes
  kStats,          // per-request metrics snapshot
  kCancel,         // best-effort cancel of a queued request
  kShutdown,       // stop the server (admin)
};
inline constexpr std::size_t kNumVerbs = 8;

std::string_view verb_name(Verb verb) noexcept;

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  Verb verb = Verb::kHandshake;
  bool is_response = false;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
};

// ---- Primitive payload codec ----------------------------------------------
// Shared by every payload struct below and by tests that craft hostile
// frames on purpose. Values reuse the IR's tagged encoding
// (graql::encode_value), so a literal looks the same in a script IR and
// in a result table.

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  /// Length-prefixed opaque byte blob.
  void blob(std::span<const std::uint8_t> bytes);
  void value(const storage::Value& v);

  std::vector<std::uint8_t>& buffer() { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n);
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<bool> boolean();
  Result<std::string> str();
  Result<std::vector<std::uint8_t>> blob();
  Result<storage::Value> value();

  /// Element count, pre-validated against the remaining bytes so callers
  /// can size containers from it.
  Result<std::uint32_t> count(const char* what);

  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status short_input(std::size_t need) const;
  template <typename T>
  Result<T> fixed();

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---- Frame I/O -------------------------------------------------------------

/// Sends one frame (header + payload) as a single buffered write.
Status send_frame(const Socket& socket, Verb verb, bool is_response,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;

  std::size_t wire_size() const {
    return kFrameHeaderBytes + payload.size();
  }
};

/// Reads one frame. Validates magic, version, verb, and the payload
/// length against `max_frame_bytes` before allocating the payload buffer.
/// kUnavailable on clean EOF, kParseError on garbage.
Result<Frame> recv_frame(const Socket& socket, std::size_t max_frame_bytes);

// ---- Request payloads ------------------------------------------------------

struct HandshakeRequest {
  std::uint16_t wire_version = kWireVersion;
  std::string client_name;
};

struct HandshakeResponse {
  std::uint16_t wire_version = kWireVersion;
  std::uint64_t session_id = 0;
  std::string server_name;
};

/// Payload of kRunScript / kCheck / kExplain: the script IR, the encoded
/// parameter bindings, and a server-enforced deadline (0 = none).
struct ScriptRequest {
  std::vector<std::uint8_t> ir;
  std::vector<std::uint8_t> params;  // graql::encode_params blob
  std::uint32_t deadline_ms = 0;
};

struct CancelRequest {
  std::uint64_t target_request_id = 0;
};

std::vector<std::uint8_t> encode_handshake_request(const HandshakeRequest& r);
Result<HandshakeRequest> decode_handshake_request(
    std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> encode_handshake_response(
    const HandshakeResponse& r);
Result<HandshakeResponse> decode_handshake_response(WireReader& reader);

std::vector<std::uint8_t> encode_script_request(const ScriptRequest& r);
Result<ScriptRequest> decode_script_request(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_cancel_request(const CancelRequest& r);
Result<CancelRequest> decode_cancel_request(
    std::span<const std::uint8_t> bytes);

// ---- Response payloads -----------------------------------------------------
// Every response payload starts with an encoded Status; a verb-specific
// body follows only when the status is OK.

void encode_status(const Status& status, WireWriter& w);
/// Returns the decoded status; a malformed status field itself decodes to
/// kParseError. OK means "the peer reported success; the body follows".
Status decode_status(WireReader& reader);

/// Result tables / subgraph summaries. Tables ship schema + row values;
/// subgraphs ship their instance counts (the full vertex/edge sets stay
/// server-side, as named catalog objects).
void encode_results(const std::vector<exec::StatementResult>& results,
                    WireWriter& w);
/// Decoded tables are rebuilt against `pool` (the client's interner).
Result<std::vector<exec::StatementResult>> decode_results(WireReader& reader,
                                                          StringPool& pool);

void encode_catalog(const std::vector<server::CatalogEntry>& entries,
                    WireWriter& w);
Result<std::vector<server::CatalogEntry>> decode_catalog(WireReader& reader);

}  // namespace gems::net
