// The two CRC-32 kernels behind crc32_update, exposed so tests can check
// each one directly: crc32_update picks the carry-less-multiply kernel when
// the CPU has it, which would otherwise leave the portable kernel untested
// on such hosts. Not for use outside util/crc32.cpp and its tests.
#pragma once

#include <cstdint>

#include "horus/util/bytes.hpp"

namespace horus::detail {

/// Slicing-by-8 table kernel; runs on every CPU. Same contract as
/// crc32_update.
std::uint32_t crc32_update_portable(std::uint32_t crc, ByteSpan data);

#if defined(__x86_64__)
/// True when this CPU has PCLMULQDQ and SSE4.1.
bool crc32_clmul_supported();

/// PCLMULQDQ folding kernel (spans below 64 B and the last < 16 B go
/// through the portable loop). Same contract as crc32_update; call only
/// when crc32_clmul_supported().
std::uint32_t crc32_update_clmul(std::uint32_t crc, ByteSpan data);
#endif

}  // namespace horus::detail
