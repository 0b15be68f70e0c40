#include "net/client.hpp"

#include <chrono>
#include <thread>

#include "graql/ir.hpp"
#include "graql/parser.hpp"

namespace gems::net {

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  socket_.close();
  session_id_ = 0;
}

Status Client::connect() {
  disconnect();
  Status last = unavailable("connect not attempted");
  std::uint32_t backoff_ms = options_.retry_backoff_ms;
  for (int attempt = 0; attempt <= options_.connect_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    auto sock = tcp_connect(options_.host, options_.port);
    if (!sock.is_ok()) {
      last = sock.status();
      continue;
    }
    socket_ = std::move(sock).value();
    GEMS_RETURN_IF_ERROR(
        set_recv_timeout(socket_, options_.request_timeout_ms));
    // Version handshake opens the session.
    auto payload = round_trip(
        Verb::kHandshake,
        encode_handshake_request({kWireVersion, options_.client_name}));
    if (!payload.is_ok()) {
      last = payload.status();
      disconnect();
      continue;
    }
    WireReader reader(*payload);
    const Status status = decode_status(reader);
    if (!status.is_ok()) return status;  // e.g. version rejected: no retry
    GEMS_ASSIGN_OR_RETURN(HandshakeResponse handshake,
                          decode_handshake_response(reader));
    session_id_ = handshake.session_id;
    return Status::ok();
  }
  return last.with_context("connect to " + options_.host + ":" +
                           std::to_string(options_.port) + " failed after " +
                           std::to_string(options_.connect_retries + 1) +
                           " attempts");
}

Result<std::vector<std::uint8_t>> Client::round_trip(
    Verb verb, std::span<const std::uint8_t> payload) {
  if (!socket_.valid()) {
    return unavailable("not connected (call connect() first)");
  }
  const std::uint64_t request_id = next_request_id_++;
  Status sent = send_frame(socket_, verb, /*is_response=*/false, request_id,
                           payload);
  if (!sent.is_ok()) {
    disconnect();
    return sent;
  }
  // Synchronous protocol: responses come back in request order on this
  // connection. Skip stray responses to older ids (e.g. a cancel raced
  // its target) until ours arrives.
  for (;;) {
    auto frame = recv_frame(socket_, options_.max_frame_bytes);
    if (!frame.is_ok()) {
      disconnect();  // timeout or broken stream: connection is unusable
      return frame.status().with_context(
          std::string(verb_name(verb)) + " request " +
          std::to_string(request_id));
    }
    if (!frame->header.is_response || frame->header.request_id < request_id) {
      continue;
    }
    if (frame->header.request_id != request_id ||
        frame->header.verb != verb) {
      disconnect();
      return internal_error("response pairing violated: got " +
                            std::string(verb_name(frame->header.verb)) +
                            " id " +
                            std::to_string(frame->header.request_id) +
                            ", expected " + std::string(verb_name(verb)) +
                            " id " + std::to_string(request_id));
    }
    return std::move(frame->payload);
  }
}

Result<std::vector<std::uint8_t>> Client::make_script_request(
    const std::string& text, const relational::ParamMap& params) {
  // Front-end half of the hand-off: parse + compile locally, ship IR.
  GEMS_ASSIGN_OR_RETURN(graql::Script script, graql::parse_script(text));
  ScriptRequest request;
  request.ir = graql::encode_script(script);
  // No params: ship an empty blob (the server treats it as "no params")
  // instead of encoding a zero-entry map on every request.
  if (!params.empty()) request.params = graql::encode_params(params);
  request.deadline_ms = options_.request_timeout_ms;
  return encode_script_request(request);
}

Result<std::vector<exec::StatementResult>> Client::run_script(
    const std::string& text, const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> payload,
                        make_script_request(text, params));
  // Bounded auto-retry, for *in-band* kUnavailable statuses only: the
  // server decoded and answered, so nothing executed — re-running is
  // safe. A transport failure from round_trip is returned as-is (the
  // outcome server-side is unknown; see ClientOptions).
  for (std::uint32_t attempt = 0;; ++attempt) {
    GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> response,
                          round_trip(Verb::kRunScript, payload));
    WireReader reader(response);
    const Status status = decode_status(reader);
    if (status.code() == StatusCode::kUnavailable &&
        attempt < options_.unavailable_retries) {
      ++unavailable_retries_used_;
      if (options_.unavailable_backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.unavailable_backoff_ms));
      }
      continue;
    }
    GEMS_RETURN_IF_ERROR(status);
    return decode_results(reader, pool_);
  }
}

Status Client::check_script(const std::string& text,
                            const relational::ParamMap* params) {
  GEMS_ASSIGN_OR_RETURN(std::vector<graql::Diagnostic> diags,
                        check(text, params));
  return graql::first_error_status(diags);
}

Result<std::vector<graql::Diagnostic>> Client::check(
    const std::string& text, const relational::ParamMap* params) {
  // Lex/parse problems are found client-side — a script that does not
  // parse has no IR to ship. The server only ever sees well-formed IR.
  graql::DiagnosticEngine local;
  graql::Script script = graql::parse_script_collect(text, local);
  if (!local.empty()) return local.take();

  ScriptRequest request;
  request.ir = graql::encode_script(script);
  if (params != nullptr && !params->empty()) {
    request.params = graql::encode_params(*params);
  }
  request.deadline_ms = options_.request_timeout_ms;
  GEMS_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> response,
      round_trip(Verb::kCheck, encode_script_request(request)));
  WireReader reader(response);
  GEMS_RETURN_IF_ERROR(decode_status(reader));
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> blob, reader.blob());
  return graql::decode_diagnostics(blob);
}

Result<std::string> Client::explain(const std::string& text,
                                    const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> payload,
                        make_script_request(text, params));
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> response,
                        round_trip(Verb::kExplain, payload));
  WireReader reader(response);
  const Status status = decode_status(reader);
  GEMS_RETURN_IF_ERROR(status);
  return reader.str();
}

Result<std::vector<server::CatalogEntry>> Client::catalog() {
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> response,
                        round_trip(Verb::kCatalog, {}));
  WireReader reader(response);
  const Status status = decode_status(reader);
  GEMS_RETURN_IF_ERROR(status);
  return decode_catalog(reader);
}

Result<MetricsSnapshot> Client::stats() {
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> response,
                        round_trip(Verb::kStats, {}));
  WireReader reader(response);
  const Status status = decode_status(reader);
  GEMS_RETURN_IF_ERROR(status);
  return decode_metrics(
      std::span<const std::uint8_t>(response).subspan(reader.position()));
}

Status Client::cancel(std::uint64_t request_id) {
  GEMS_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> response,
      round_trip(Verb::kCancel, encode_cancel_request({request_id})));
  WireReader reader(response);
  const Status status = decode_status(reader);
  return status;
}

Status Client::shutdown_server() {
  GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> response,
                        round_trip(Verb::kShutdown, {}));
  WireReader reader(response);
  const Status status = decode_status(reader);
  return status;
}

}  // namespace gems::net
