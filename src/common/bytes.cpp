#include "common/bytes.hpp"

namespace gems {

Status ByteReader::error(std::string_view detail, std::size_t at) const {
  return parse_error("malformed " + std::string(format_) + ": " +
                     std::string(detail) + " at byte offset " +
                     std::to_string(at));
}

Status ByteReader::overrun(const char* what, std::uint64_t n,
                           std::size_t width, std::size_t at) const {
  const std::string need =
      width == 1 ? std::to_string(n) + " bytes"
                 : std::to_string(n) + " x " + std::to_string(width) +
                       " bytes";
  return error(std::string(what) + " needs " + need + " but only " +
                   std::to_string(remaining()) + " remain",
               at);
}

}  // namespace gems
