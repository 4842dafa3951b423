// CRC-32 (IEEE 802.3 polynomial, the zlib/Ethernet value). COM seals every
// datagram with it and checks it at every receiver; CHKSUM uses it as an
// end-to-end check over the content above it (property P10, garbling
// detection, in the paper's Table 4).
#pragma once

#include <cstdint>

#include "horus/util/bytes.hpp"

namespace horus {

/// One-shot CRC-32 over a byte span.
std::uint32_t crc32(ByteSpan data);

/// Incremental CRC-32: continue a running checksum.
/// crc32_update(crc32(a), b) == crc32(a followed by b).
std::uint32_t crc32_update(std::uint32_t crc, ByteSpan data);

}  // namespace horus
