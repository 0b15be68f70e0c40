#include "cluster/bsp_wire.hpp"

#include "common/crc32.hpp"
#include "net/wire.hpp"

namespace gems::cluster {

std::string_view bsp_kind_name(BspKind kind) noexcept {
  switch (kind) {
    case BspKind::kHello: return "hello";
    case BspKind::kWelcome: return "welcome";
    case BspKind::kSync: return "sync";
    case BspKind::kSyncAck: return "sync_ack";
    case BspKind::kJob: return "job";
    case BspKind::kJobDone: return "job_done";
    case BspKind::kData: return "data";
    case BspKind::kBarrier: return "barrier";
    case BspKind::kBarrierRelease: return "barrier_release";
    case BspKind::kError: return "error";
    case BspKind::kShutdown: return "shutdown";
  }
  return "?";
}

std::vector<std::uint8_t> encode_bsp_frame(const BspFrame& frame) {
  ByteWriter w;
  w.buffer().reserve(kBspHeaderBytes + frame.payload.size());
  w.u32(kBspMagic);
  w.u16(kBspVersion);
  w.u8(static_cast<std::uint8_t>(frame.kind));
  w.u8(0);  // flags
  w.u32(frame.from);
  w.u32(frame.dest);
  w.u32(static_cast<std::uint32_t>(frame.tag));
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u32(crc32(frame.payload));
  w.buffer().insert(w.buffer().end(), frame.payload.begin(),
                    frame.payload.end());
  return w.take();
}

Status send_bsp_frame(const net::Socket& socket, const BspFrame& frame) {
  return net::send_all(socket, encode_bsp_frame(frame));
}

Result<BspFrame> recv_bsp_frame(const net::Socket& socket,
                                std::size_t max_frame_bytes) {
  std::uint8_t header[kBspHeaderBytes];
  GEMS_RETURN_IF_ERROR(net::recv_all(socket, header));
  ByteReader r(header, "BSP frame");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kBspMagic) {
    return parse_error(
        "bad BSP frame magic at byte offset 0 (not a GEMS cluster peer?)");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint16_t version, r.u16());
  if (version != kBspVersion) {
    return parse_error("unsupported BSP wire version " +
                       std::to_string(version) + " at byte offset 4 (this "
                       "peer speaks " + std::to_string(kBspVersion) + ")");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint8_t kind, r.u8());
  if (kind >= kNumBspKinds) {
    return parse_error("unknown BSP frame kind " + std::to_string(kind) +
                       " at byte offset 6");
  }
  BspFrame frame;
  frame.kind = static_cast<BspKind>(kind);
  GEMS_ASSIGN_OR_RETURN(std::uint8_t flags, r.u8());
  (void)flags;
  GEMS_ASSIGN_OR_RETURN(frame.from, r.u32());
  GEMS_ASSIGN_OR_RETURN(frame.dest, r.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t tag, r.u32());
  frame.tag = static_cast<std::int32_t>(tag);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t payload_len, r.u32());
  // The frame budget is the admission line for memory: a hostile length
  // is rejected here, before any allocation.
  if (payload_len > max_frame_bytes) {
    return parse_error("BSP frame payload length " +
                       std::to_string(payload_len) +
                       " exceeds the frame budget of " +
                       std::to_string(max_frame_bytes) +
                       " bytes at byte offset 20");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint32_t expected_crc, r.u32());
  frame.payload.resize(payload_len);
  GEMS_RETURN_IF_ERROR(net::recv_all(socket, frame.payload));
  const std::uint32_t actual_crc = crc32(frame.payload);
  if (actual_crc != expected_crc) {
    return parse_error("BSP frame payload CRC mismatch on a " +
                       std::string(bsp_kind_name(frame.kind)) + " frame");
  }
  return frame;
}

// ---- Control payloads ------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloPayload& p) {
  ByteWriter w;
  w.u32(p.rank);
  w.u32(p.state_crc);
  w.str(p.worker_name);
  return w.take();
}

Result<HelloPayload> decode_hello(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "BSP payload");
  HelloPayload out;
  GEMS_ASSIGN_OR_RETURN(out.rank, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.state_crc, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.worker_name, r.str());
  return out;
}

std::vector<std::uint8_t> encode_welcome(const WelcomePayload& p) {
  ByteWriter w;
  w.u32(p.num_ranks);
  w.boolean(p.sync_needed);
  return w.take();
}

Result<WelcomePayload> decode_welcome(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "BSP payload");
  WelcomePayload out;
  GEMS_ASSIGN_OR_RETURN(out.num_ranks, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.sync_needed, r.boolean());
  return out;
}

std::vector<std::uint8_t> encode_job(const JobPayload& p) {
  ByteWriter w;
  w.u64(p.job_id);
  w.u32(p.num_ranks);
  w.u32(p.network_index);
  w.boolean(p.record_transcript);
  w.blob(p.ir);
  w.blob(p.params);
  return w.take();
}

Result<JobPayload> decode_job(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "BSP payload");
  JobPayload out;
  GEMS_ASSIGN_OR_RETURN(out.job_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.num_ranks, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.network_index, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.record_transcript, r.boolean());
  GEMS_ASSIGN_OR_RETURN(out.ir, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.params, r.blob());
  return out;
}

std::vector<std::uint8_t> encode_job_done(const JobDonePayload& p) {
  ByteWriter w;
  w.u64(p.job_id);
  w.u64(p.messages);
  w.u64(p.payload_bytes);
  w.u64(p.wire_bytes);
  w.u64(p.activations);
  w.u64(p.supersteps);
  w.u64(p.stall_us);
  w.blob(p.transcript);
  w.blob(p.domains);
  return w.take();
}

Result<JobDonePayload> decode_job_done(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "BSP payload");
  JobDonePayload out;
  GEMS_ASSIGN_OR_RETURN(out.job_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.messages, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.payload_bytes, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.wire_bytes, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.activations, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.supersteps, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.stall_us, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.transcript, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.domains, r.blob());
  return out;
}

std::vector<std::uint8_t> encode_error(const Status& status) {
  ByteWriter w;
  net::encode_status(status, w);
  return w.take();
}

Status decode_error(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "BSP payload");
  const Status status = net::decode_status(r);
  if (status.is_ok()) {
    return parse_error("BSP error frame carried an OK status");
  }
  return status;
}

}  // namespace gems::cluster
