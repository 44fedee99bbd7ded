#include "compression/best_of.hpp"

#include <utility>

#include "common/assert.hpp"

namespace pcmsim {

std::uint8_t pack_encoding(CompressionScheme scheme, std::uint8_t layout) {
  expects(layout < 8, "layout must fit 3 bits");
  return static_cast<std::uint8_t>((static_cast<std::uint8_t>(scheme) << 3) | layout);
}

CompressionScheme unpack_scheme(std::uint8_t packed) {
  return static_cast<CompressionScheme>((packed >> 3) & 0x3u);
}

std::uint8_t unpack_layout(std::uint8_t packed) { return packed & 0x7u; }

std::optional<CompressionPlan> BestOfCompressor::plan(const Block& block) const {
  CompressionPlan p;
  p.scan = scan_block(block);
  const auto bdi_layout = BdiCompressor::probe_layout(p.scan);
  const auto fpc_size = FpcCompressor::probe_size(p.scan);
  const auto bdi_size = bdi_layout ? std::optional<std::size_t>(bdi_layout_size(*bdi_layout))
                                   : std::nullopt;
  if (!bdi_size && !fpc_size) return std::nullopt;
  if (bdi_size && (!fpc_size || *bdi_size <= *fpc_size)) {
    p.size = static_cast<std::uint8_t>(*bdi_size);
    p.scheme = CompressionScheme::kBdi;
    p.encoding = static_cast<std::uint8_t>(*bdi_layout);
  } else {
    p.size = static_cast<std::uint8_t>(*fpc_size);
    p.scheme = CompressionScheme::kFpc;
    p.encoding = 0;
  }
  return p;
}

CompressedBlock BestOfCompressor::materialize(const Block& block, const CompressionPlan& p) const {
  if (p.scheme == CompressionScheme::kBdi) {
    auto out = bdi_.compress_with_layout(block, static_cast<BdiLayout>(p.encoding));
    expects(out.has_value() && out->size_bytes() == p.size,
            "BDI materialization disagrees with the plan");
    return std::move(*out);
  }
  expects(p.scheme == CompressionScheme::kFpc, "cannot materialize a kNone plan");
  return fpc_.materialize(block, p.scan);
}

std::optional<CompressedBlock> BestOfCompressor::compress(const Block& block) const {
  const auto p = plan(block);
  if (!p) return std::nullopt;
  return materialize(block, *p);
}

ProbePair BestOfCompressor::probe_both(const Block& block) const {
  const auto scan = scan_block(block);
  return ProbePair{BdiCompressor::probe_size(scan), FpcCompressor::probe_size(scan)};
}

std::optional<SizeProbe> BestOfCompressor::probe(const Block& block) const {
  const auto p = plan(block);
  if (!p) return std::nullopt;
  return SizeProbe{p->size_bytes(), p->scheme};
}

std::optional<std::size_t> BestOfCompressor::probe_size(const Block& block) const {
  const auto p = probe(block);
  if (!p) return std::nullopt;
  return p->size_bytes;
}

Block BestOfCompressor::decompress(const CompressedBlock& cb) const {
  switch (cb.scheme) {
    case CompressionScheme::kBdi: return bdi_.decompress(cb);
    case CompressionScheme::kFpc: return fpc_.decompress(cb);
    case CompressionScheme::kNone: break;
  }
  expects(false, "cannot decompress a raw image");
  return {};
}

std::uint32_t BestOfCompressor::latency_for(const CompressedBlock& cb) const {
  // Table I: BDI decompresses in 1 CPU cycle, FPC in 5.
  switch (cb.scheme) {
    case CompressionScheme::kBdi: return 1;
    case CompressionScheme::kFpc: return 5;
    case CompressionScheme::kNone: return 0;
  }
  return 0;
}

}  // namespace pcmsim
