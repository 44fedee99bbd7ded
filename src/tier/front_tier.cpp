#include "tier/front_tier.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"

namespace pcmsim {

std::string_view to_string(TierPolicy p) {
  switch (p) {
    case TierPolicy::kLru: return "lru";
    case TierPolicy::kSilent: return "silent";
    case TierPolicy::kComp: return "comp";
  }
  return "?";
}

TierPolicy tier_policy_from_string(std::string_view s) {
  if (s == "lru") return TierPolicy::kLru;
  if (s == "silent") return TierPolicy::kSilent;
  if (s == "comp") return TierPolicy::kComp;
  expects(false, "tier policy must be lru, silent, or comp");
  return TierPolicy::kLru;  // unreachable
}

ControllerConfig dram_tier_controller_config() {
  ControllerConfig cfg;
  cfg.banks = 1;  // the tier is one buffer, not a banked device
  // DDR3-1600-flavoured service at the shared 400 MHz command clock: no PCM
  // programming commit, so writes retire in a burst + write-recovery window
  // instead of PCM's 60-cycle precharge.
  cfg.timing.t_rdc = 20;
  cfg.timing.t_rp = 6;
  cfg.timing.t_cl = 5;
  cfg.timing.t_wl = 4;
  return cfg;
}

FrontTierConfig FrontTierConfig::for_kb(std::size_t kb, TierPolicy policy) {
  FrontTierConfig cfg;
  cfg.capacity_lines = kb * 1024 / kBlockBytes;
  cfg.policy = policy;
  return cfg;
}

std::uint64_t FrontTier::fingerprint(const Block& data) {
  std::uint64_t h = 0x46504d5449455231ull;  // "FPMTIER1"
  for (std::size_t i = 0; i < kBlockBytes; i += 8) {
    h = mix64(h, load_le<std::uint64_t>(data, i));
  }
  return h;
}

FrontTier::FrontTier(const FrontTierConfig& config, ForwardSink sink)
    : config_(config), sink_(std::move(sink)), controller_(config_.controller) {
  expects(config_.enabled(), "FrontTier requires capacity_lines > 0 (use the "
                             "embedding seam's disabled default instead)");
  expects(config_.ways >= 1, "tier needs at least one way");
  expects(config_.capacity_lines >= config_.ways,
          "tier capacity must hold at least one full set");
  expects(sink_ != nullptr, "tier needs a forward sink");
  sets_ = config_.capacity_lines / config_.ways;
  tags_.resize(sets_ * config_.ways);
  payloads_.resize(sets_ * config_.ways);
}

std::size_t FrontTier::set_of(LineAddr line) const {
  // Hash the index so tenant-sliced (contiguous) address spaces spread
  // across sets instead of aliasing set 0 per slice.
  return static_cast<std::size_t>(mix64(line) % sets_);
}

std::size_t FrontTier::find(std::size_t set, LineAddr line) const {
  const std::size_t base = set * config_.ways;
  for (std::size_t i = base; i < base + config_.ways; ++i) {
    if (tags_[i].valid && tags_[i].line == line) return i;
  }
  return tags_.size();
}

std::size_t FrontTier::choose_victim(std::size_t set) const {
  const std::size_t ways = config_.ways;
  const TagEntry* base = tags_.data() + set * ways;
  if (config_.policy == TierPolicy::kComp) {
    // Compressibility-aware retention: among the least-recently-used half of
    // the set, evict the entry whose payload compresses smallest (cheapest
    // to rewrite in PCM); ties go to the older entry. Incompressible lines
    // therefore survive roughly twice as long as plain LRU would keep them,
    // at the same capacity.
    std::vector<std::size_t> order(ways);
    for (std::size_t w = 0; w < ways; ++w) order[w] = w;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return base[a].lru < base[b].lru; });
    const PayloadSlot* slots = payloads_.data() + set * ways;
    std::size_t best = order[0];
    for (std::size_t i = 1; i < (ways + 1) / 2; ++i) {
      if (slots[order[i]].plan_size < slots[best].plan_size) best = order[i];
    }
    return best;
  }
  std::size_t best = 0;
  for (std::size_t w = 1; w < ways; ++w) {
    if (base[w].lru < base[best].lru) best = w;
  }
  return best;
}

void FrontTier::evict(std::size_t idx) {
  TagEntry& e = tags_[idx];
  const PayloadSlot& p = payloads_[idx];
  if (content_aware()) {
    pcm_resident_[e.line] = ResidentLine{p.fp, p.data};
    stats_.words_touched += static_cast<std::uint64_t>(std::popcount(e.touched));
  } else {
    stats_.words_touched += kBlockBytes / 4;  // content-blind: full line
  }
  stats_.words_forwarded += kBlockBytes / 4;
  ++stats_.evictions;
  e.valid = false;
  --resident_;
  pending_.push_back(Forward{e.line, e.tag, p.data});
}

void FrontTier::drain_forwards() {
  // The sink (the PCM write path) may be arbitrarily heavy; it runs outside
  // the kTierFilter profiler scope and outside the structure mutation, in
  // eviction order.
  for (const Forward& fwd : pending_) sink_(fwd);
  pending_.clear();
}

void FrontTier::charge_latency(std::uint64_t order) {
  MemRequest req;
  req.arrival_cycle = order * config_.arrival_gap_cycles;
  req.is_read = false;
  req.bank = 0;
  controller_.submit(req);
}

std::uint16_t FrontTier::touched_words(const Block& before, const Block& after) const {
  std::uint16_t mask = 0;
  for (std::size_t w = 0; w < kBlockBytes / 4; ++w) {
    if (load_le<std::uint32_t>(before, w * 4) != load_le<std::uint32_t>(after, w * 4)) {
      mask = static_cast<std::uint16_t>(mask | (1u << w));
    }
  }
  return mask;
}

std::uint8_t FrontTier::probe_plan_size(const Block& data) const {
  const auto size = compressor_.probe_size(data);
  return static_cast<std::uint8_t>(size ? *size : kBlockBytes);
}

FrontTier::Outcome FrontTier::put(LineAddr line, const Block& data, std::uint32_t tag) {
  return put_impl(stats_.offered, line, data, tag);
}

FrontTier::Outcome FrontTier::put_at(std::uint64_t order, LineAddr line, const Block& data,
                                     std::uint32_t tag) {
  expects(order >= last_order_, "tier arrival order must be non-decreasing");
  return put_impl(order, line, data, tag);
}

FrontTier::Outcome FrontTier::put_impl(std::uint64_t order, LineAddr line, const Block& data,
                                       std::uint32_t tag) {
  ++stats_.offered;
  last_order_ = order;
  charge_latency(order);
  Outcome out;
  {
    const prof::ScopedStage stage(prof::Stage::kTierFilter);
    out = filter(line, data, tag);
  }
  drain_forwards();
  return out;
}

FrontTier::Outcome FrontTier::filter(LineAddr line, const Block& data, std::uint32_t tag) {
  const std::size_t set = set_of(line);
  if (const std::size_t hit = find(set, line); hit != tags_.size()) {
    // Hit: the write-back coalesces in DRAM. Content-aware policies compare
    // payloads first so byte-identical rewrites don't even touch the stored
    // copy (and are reported as silent hits).
    TagEntry& e = tags_[hit];
    PayloadSlot& old = payloads_[hit];
    ++stats_.hits;
    e.lru = ++tick_;
    e.tag = tag;
    if (content_aware()) {
      const std::uint64_t fp = fingerprint(data);
      if (old.fp == fp && std::memcmp(old.data.data(), data.data(), kBlockBytes) == 0) {
        ++stats_.silent_hits;
        return Outcome::kSilentHit;
      }
      e.touched = static_cast<std::uint16_t>(e.touched | touched_words(old.data, data));
      old.fp = fp;
      old.plan_size = probe_plan_size(data);
    }
    old.data = data;
    return Outcome::kHit;
  }

  std::uint16_t touched = static_cast<std::uint16_t>((1u << (kBlockBytes / 4)) - 1);
  std::uint64_t fp = 0;
  if (content_aware()) {
    fp = fingerprint(data);
    // Silent/partial-store elimination: a miss whose payload matches what PCM
    // already holds is dropped outright (fingerprint gate, then a verifying
    // word compare); a partial overlap shrinks the entry's touched-word mask
    // to the words that actually differ.
    const auto it = pcm_resident_.find(line);
    if (it != pcm_resident_.end()) {
      if (it->second.fp == fp) {
        if (std::memcmp(it->second.data.data(), data.data(), kBlockBytes) == 0) {
          ++stats_.silent_drops;
          return Outcome::kSilentDrop;
        }
        ++stats_.fp_false_hits;
      }
      touched = touched_words(it->second.data, data);
    }
  }

  // Miss: take the first free way, or evict the policy victim when the set
  // is full.
  const std::size_t base = set * config_.ways;
  std::size_t idx = base;
  while (idx < base + config_.ways && tags_[idx].valid) ++idx;
  if (idx == base + config_.ways) {
    idx = base + choose_victim(set);
    evict(idx);
  }
  const std::uint8_t psize = content_aware() ? probe_plan_size(data) : kBlockBytes;
  tags_[idx] = TagEntry{line, true, tag, ++tick_, touched};
  payloads_[idx] = PayloadSlot{data, fp, psize};
  ++resident_;
  ++stats_.inserts;
  return Outcome::kInserted;
}

void FrontTier::finish_timing() {
  if (!sealed_) {
    controller_.finish();
    sealed_ = true;
  }
}

bool FrontTier::contains(LineAddr line) const {
  return find(set_of(line), line) != tags_.size();
}

const Block* FrontTier::peek(LineAddr line) const {
  const std::size_t idx = find(set_of(line), line);
  return idx == tags_.size() ? nullptr : &payloads_[idx].data;
}

const Block* FrontTier::pcm_resident(LineAddr line) const {
  const auto it = pcm_resident_.find(line);
  return it == pcm_resident_.end() ? nullptr : &it->second.data;
}

}  // namespace pcmsim
