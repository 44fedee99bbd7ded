// Cross-cutting property sweeps over the compression substrate, driven by
// the same value classes the workload models use — so the compressors are
// exercised on exactly the content families the experiments rely on.
#include <gtest/gtest.h>

#include <algorithm>

#include "compression/best_of.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

struct ClassCase {
  ValueClass cls;
  std::uint8_t plo;
  std::uint8_t phi;
  std::uint8_t aux;
  std::size_t max_expected_size;  // best-of image must stay below this
  bool always_compressible;
};

class PerClass : public ::testing::TestWithParam<ClassCase> {};

TEST_P(PerClass, RoundTripAndSizeEnvelope) {
  const auto& param = GetParam();
  ValueClassSpec spec;
  spec.cls = param.cls;
  spec.param_lo = param.plo;
  spec.param_hi = param.phi;
  spec.aux = param.aux;
  spec.mutate_min = 1;
  spec.mutate_max = 6;

  BestOfCompressor best;
  int compressed = 0;
  int total = 0;
  for (std::uint64_t line = 0; line < 40; ++line) {
    for (std::uint32_t version = 0; version < 10; ++version) {
      const Block b = generate_value(spec, line, 777, version);
      const auto c = best.compress(b);
      ++total;
      if (param.always_compressible) {
        ASSERT_TRUE(c.has_value()) << "line " << line << " v" << version;
      }
      if (c) {
        ++compressed;
        EXPECT_LE(c->size_bytes(), param.max_expected_size);
        EXPECT_EQ(best.decompress(*c), b) << to_string(param.cls);
        EXPECT_LT(c->encoding, 8) << "scheme-local encoding must fit 3 bits";
      }
    }
  }
  if (!param.always_compressible) {
    EXPECT_LT(compressed, total) << "kRandom content should sometimes be incompressible";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ValueClasses, PerClass,
    ::testing::Values(ClassCase{ValueClass::kZeroPage, 0, 3, 0, 16, true},
                      ClassCase{ValueClass::kSmallInt, 1, 2, 0, 24, true},
                      ClassCase{ValueClass::kSmallInt, 4, 4, 0, 40, true},
                      ClassCase{ValueClass::kNarrowInt64, 1, 1, 0, 18, true},
                      ClassCase{ValueClass::kNarrowInt64, 2, 2, 0, 26, true},
                      ClassCase{ValueClass::kNarrowInt64, 4, 4, 0, 42, true},
                      ClassCase{ValueClass::kNarrowInt32, 1, 1, 0, 23, true},
                      ClassCase{ValueClass::kNarrowInt32, 2, 2, 0, 39, true},
                      ClassCase{ValueClass::kPointerHeap, 2, 4, 0, 42, true},
                      ClassCase{ValueClass::kFloatArray, 4, 4, 0, 42, true},
                      ClassCase{ValueClass::kFpcMixed, 8, 10, 4, 48, true},
                      ClassCase{ValueClass::kRandom, 1, 1, 0, 64, false}),
    [](const ::testing::TestParamInfo<ClassCase>& param_info) {
      std::string name = std::string(to_string(param_info.param.cls)) + "_p" +
                         std::to_string(param_info.param.plo) + "_" +
                         std::to_string(param_info.param.phi) + "_a" +
                         std::to_string(param_info.param.aux);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The BEST selector must never be larger than either constituent.
TEST(BestOfProperty, NeverWorseThanEitherScheme) {
  BestOfCompressor best;
  for (const auto& app : spec2006_profiles()) {
    for (const auto& spec : app.classes) {
      for (std::uint64_t line = 0; line < 20; ++line) {
        const Block b = generate_value(spec, line, 99, 3);
        const auto combined = best.compress(b);
        const auto bdi = best.bdi().compress(b);
        const auto fpc = best.fpc().compress(b);
        if (bdi) {
          ASSERT_TRUE(combined.has_value());
          EXPECT_LE(combined->size_bytes(), bdi->size_bytes());
        }
        if (fpc) {
          ASSERT_TRUE(combined.has_value());
          EXPECT_LE(combined->size_bytes(), fpc->size_bytes());
        }
      }
    }
  }
}

// Compressed images must be deterministic: same block, same image.
TEST(BestOfProperty, CompressionIsDeterministic) {
  BestOfCompressor best;
  const auto& app = profile_by_name("gcc");
  for (std::uint64_t line = 0; line < 50; ++line) {
    const Block b = generate_value(app.classes[0], line, 5, 2);
    const auto c1 = best.compress(b);
    const auto c2 = best.compress(b);
    ASSERT_EQ(c1.has_value(), c2.has_value());
    if (c1) {
      EXPECT_EQ(c1->bytes, c2->bytes);
      EXPECT_EQ(c1->scheme, c2->scheme);
      EXPECT_EQ(c1->encoding, c2->encoding);
    }
  }
}

}  // namespace
}  // namespace pcmsim
